import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from privmech import __version__, channel_from_dict, cli
from privmech.bounds import BoundCheckResult
from privmech.core import SUM_TOL
from privmech.errors import RowSumOutOfTolerance

# with the "tol" object that older versions wrote, which is now ignored
RR21 = {"rows": [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], "tol": {"sum_tol": 1e-9}}


def run_cli(*args, stdin=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "privmech", *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestAnalyze:
    def test_binary_randomized_response(self):
        res = run_cli("analyze", json.dumps(RR21))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        report = payload["report"]
        assert abs(report["eta_tv"] - 1 / 3) <= 1e-12
        assert abs(report["ldp_level_bits"] - 1.0) <= 1e-12
        assert abs(report["maxl_bits"] - math.log2(4 / 3)) <= 1e-12
        assert all(c["passed"] for c in payload["checks"])
        assert payload["version"] and "seed" in payload

    def test_identity_serializes_infinite_level(self):
        channel = {"rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        res = run_cli("analyze", json.dumps(channel))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["report"]["ldp_level_bits"] == "inf"
        assert payload["report"]["eta_tv"] == 1.0
        assert abs(payload["report"]["maxl_bits"] - math.log2(3)) <= 1e-12

    def test_single_input_channel_exits_zero(self):
        res = run_cli("analyze", '{"rows": [[0.3, 0.7]]}')
        assert res.returncode == 0, res.stderr
        checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
        assert not checks["thm4"]["applicable"] and not checks["maxl_sandwich_upper"]["applicable"]

    def test_overflowing_column_ratio_exits_zero(self):
        res = run_cli("analyze", '{"rows": [[1e-310, 1.0], [0.5, 0.5]]}')
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert math.isfinite(payload["report"]["ldp_level_bits"])
        for c in payload["checks"]:  # no "inf" or "nan" strings: every side is a number
            for key in ("lhs", "rhs", "margin"):
                assert isinstance(c[key], float) and math.isfinite(c[key]), c

    def test_malformed_json_exits_two(self):
        res = run_cli("analyze", "{not json")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.strip()

    def test_invalid_channel_exits_two_and_names_the_row(self):
        res = run_cli("analyze", json.dumps({"rows": [[0.5, 0.6], [0.2, 0.8]]}))
        assert res.returncode == 2
        assert "row 0" in res.stderr

    def test_non_finite_channel_exits_two(self):
        res = run_cli("analyze", '{"rows": [[NaN, 1.0], [0.5, 0.5]]}')
        assert res.returncode == 2
        assert "non-finite entry nan at row 0, column 0" in res.stderr

    def test_reads_from_file_and_stdin(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(RR21))
        assert run_cli("analyze", str(path)).returncode == 0
        assert run_cli("analyze", "-", stdin=json.dumps(RR21)).returncode == 0

    # the minimum over the whole matrix, not the least column minimum, which
    # reads -0.0 on the first channel
    @pytest.mark.parametrize(
        "rows, text",
        [([[1.0, -0.0], [0.0, 1.0]], '"min_entry": 0.0,'),
         ([[-0.0, 1.0], [0.5, 0.5]], '"min_entry": -0.0,')],
        ids=["positive", "negative"],
    )
    def test_min_entry_keeps_the_sign_of_zero(self, capsys, rows, text):
        cli.main(["analyze", json.dumps({"rows": rows})])
        assert text in capsys.readouterr().out


class TestConstruct:
    def test_rr_three(self):
        res = run_cli("construct", "rr", "--k", "3", "--alpha", "1")
        assert res.returncode == 0
        rows = json.loads(res.stdout)["rows"]
        assert rows[0][0] == pytest.approx(0.5, abs=1e-15)
        assert rows[0][1] == pytest.approx(0.25, abs=1e-15)

    def test_z_out_of_range_exits_two(self):
        res = run_cli("construct", "z", "--alpha", "1.5")
        assert res.returncode == 2

    def test_staircase_boundary(self):
        res = run_cli("construct", "staircase", "--k", "2", "--alpha", "1")
        rows = json.loads(res.stdout)["rows"]
        assert rows == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

    def test_missing_k_exits_two(self):
        assert run_cli("construct", "rr", "--alpha", "1").returncode == 2

    def test_round_trip_into_analyze(self, tmp_path):
        out = tmp_path / "chan.json"
        res = run_cli("construct", "rr", "--k", "4", "--alpha", "0.5", "-o", str(out))
        assert res.returncode == 0
        res2 = run_cli("analyze", str(out))
        assert res2.returncode == 0, res2.stderr


class TestBoundsCheck:
    def test_one_json_object_per_verdict(self):
        res = run_cli("bounds-check", json.dumps(RR21))
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 9
        names = [json.loads(line)["name"] for line in lines]
        assert names[0] == "thm1" and names[-1] == "lemma1"
        for line in lines:
            record = json.loads(line)
            assert record["version"] and "seed" in record

    def test_exit_zero_iff_applicable_pass(self):
        channel = {"rows": [[1, 0], [0, 1]]}  # some checks inapplicable, none fail
        assert run_cli("bounds-check", json.dumps(channel)).returncode == 0


class TestSimulate:
    def test_mean_near_closed_form(self):
        res = run_cli(
            "simulate", "--k", "3", "--alpha", "1", "--n", "100",
            "--replicates", "2000", "--seed", "1",
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["closed_form"] == pytest.approx(1 / 60, rel=1e-12)
        assert abs(payload["mean_risk"] - 1 / 60) <= 4 * payload["std_error"]

    def test_custom_source_inline(self):
        res = run_cli(
            "simulate", "--k", "2", "--alpha", "0.5", "--n", "50",
            "--replicates", "100", "--seed", "2",
            "--source", json.dumps({"probs": [0.8, 0.2]}),
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["source"] == [0.8, 0.2]

    def test_vacuous_budget_exits_two(self):
        res = run_cli(
            "simulate", "--k", "2", "--alpha", "1.5", "--n", "10",
            "--replicates", "10", "--seed", "0",
        )
        assert res.returncode == 2
        assert "vacuous" in res.stderr

    def test_seed_echoed(self):
        res = run_cli(
            "simulate", "--k", "2", "--alpha", "1", "--n", "10",
            "--replicates", "10", "--seed", "9",
        )
        assert json.loads(res.stdout)["seed"] == 9


class TestSweep:
    def test_csv_schema(self):
        res = run_cli(
            "sweep", "--k", "3", "--alpha", "1", "--n-grid", "50,100",
            "--replicates", "200", "--seed", "3",
        )
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0].startswith("# privmech")
        assert lines[1] == (
            "k,alpha_bits,n,replicates,seed,mean_risk,std_error,"
            "closed_form,upper_bound,lecam_lower,normalized_risk"
        )
        assert len(lines) == 4
        for line in lines[2:]:
            fields = line.split(",")
            assert int(fields[0]) == 3
            # every float column round-trips through repr exactly
            for tok in fields[5:]:
                assert repr(float(tok)) == tok

    def test_json_format(self):
        res = run_cli(
            "sweep", "--k", "3", "--alpha", "1", "--n-grid", "50",
            "--replicates", "100", "--seed", "0", "--format", "json",
        )
        payload = json.loads(res.stdout)
        assert len(payload["rows"]) == 1 and payload["rows"][0]["n"] == 50


class TestFailedVerdict:
    # one applicable and one inapplicable failing verdict: only the first
    # sets the exit code and is named on stderr
    CHECKS = [
        BoundCheckResult("thm1", 0.9, 0.5, -0.4, False, True, ""),
        BoundCheckResult("thm2", 2.0, 1.0, -1.0, False, False, "zero entry"),
    ]
    STDERR = (
        "bound check(s) failed: thm1. This indicates either an implementation bug "
        "or a genuine counterexample; please report the channel JSON and seed.\n"
    )

    @pytest.mark.parametrize("command", ["analyze", "bounds-check"])
    def test_exits_one_and_names_the_applicable_failure(self, monkeypatch, capsys, command):
        monkeypatch.setattr(cli, "run_all_checks", lambda w: self.CHECKS)
        assert cli.main([command, json.dumps(RR21), "--seed", "3"]) == 1
        out, err = capsys.readouterr()
        assert err == self.STDERR
        records = [c.to_dict() for c in self.CHECKS]
        if command == "analyze":
            assert json.loads(out)["checks"] == records
        else:
            assert out == "".join(
                json.dumps({**r, "version": __version__, "seed": 3}) + "\n" for r in records
            )


class TestOutOfMemory:
    # the real sizes would ask numpy for 7 EiB, 74.5 GiB and 745 GiB: the
    # called function is replaced by one that raises as numpy would
    @pytest.mark.parametrize(
        "target, argv",
        [
            ("randomized_response", ["construct", "rr", "--k", "1000000000", "--alpha", "1"]),
            ("maxl_staircase", ["construct", "staircase", "--k", "100000", "--alpha", "1"]),
            ("empirical_risk", ["simulate", "--k", "3", "--alpha", "1", "--n", "10",
                                "--replicates", "100000000000"]),
        ],
    )
    def test_exits_two_with_one_error_line(self, monkeypatch, capsys, target, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cli, target, exhausted)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "74.5 GiB" in err


class TestMalformedInput:
    # in process, so an uncaught exception fails the test instead of
    # exiting 1 with a traceback
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", '{"rows": [[{}]]}'],
            ["bounds-check", '{"rows": [[0.5, {}], [0.5, 0.5]]}'],
            ["simulate", "--k", "2", "--alpha", "1", "--n", "10", "--replicates", "10",
             "--source", '{"probs": [{}, 1]}'],
            ["analyze", '{"rows": [["a", 0.5]]}'],
            ["analyze", '{"rows": [["0.5", "0.5"]]}'],
            ["analyze", '{"rows": [[%d, 0]]}' % 10 ** 399],
            ["analyze", '{"rows": [[1.0], [0.5, 0.5]]}'],
            ["simulate", "--k", "2", "--alpha", "1", "--n", "10", "--replicates", "10",
             "--source", '{"probs": [[1], [1, 2]]}'],
            # 2**2000 overflows a double, and 2**1e-20 rounds to 1
            ["construct", "rr", "--k", "3", "--alpha", "2000"],
            ["construct", "staircase", "--k", "3", "--alpha", "2000"],
            ["simulate", "--k", "3", "--alpha", "2000", "--n", "10", "--replicates", "10"],
            ["simulate", "--k", "3", "--alpha", "1e-20", "--n", "10", "--replicates", "10"],
            ["sweep", "--k", "3", "--alpha", "1e-20", "--n-grid", "10", "--replicates", "10"],
            # an empty grid: replicates is checked before the grid
            ["sweep", "--k", "3", "--alpha", "1", "--n-grid", ",", "--replicates", "0"],
        ],
    )
    def test_exits_two_with_one_error_line(self, capsys, argv):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_json_tol_is_ignored_not_obeyed(self, capsys):
        # older versions wrote "tol" and obeyed its sum_tol; the slack is SUM_TOL now
        rows = [[0.7, 0.3 - 1e-7], [0.2, 0.8 + 1e-7]]
        loose = {"rows": rows, "tol": {"sum_tol": 1e-6}}
        with pytest.raises(RowSumOutOfTolerance) as exc:
            channel_from_dict(loose)
        assert exc.value.row == 0 and exc.value.sum_tol == SUM_TOL
        assert cli.main(["analyze", json.dumps(loose)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: row 0 sums to ") and "1e-09" in err
        assert np.array_equal(channel_from_dict(RR21).rows, RR21["rows"])


class TestNegativeSeed:
    # numpy refused it with "expected non-negative integer", not naming the seed
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--k", "3", "--alpha", "1", "--n", "10", "--replicates", "10"],
            ["sweep", "--k", "3", "--alpha", "1", "--n-grid", "10", "--replicates", "10"],
            ["sweep", "--k", "3", "--alpha", "1", "--n-grid", "", "--replicates", "10"],
            # these only echo the seed, and echoed -1 with exit 0
            ["construct", "rr", "--k", "3", "--alpha", "1"],
            ["analyze", json.dumps(RR21)],
            ["bounds-check", json.dumps(RR21)],
        ],
        ids=["simulate", "sweep", "sweep-empty-grid", "construct", "analyze", "bounds-check"],
    )
    def test_exits_two_naming_the_seed(self, capsys, argv):
        assert cli.main([*argv, "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must be >= 0, got -1\n"


class TestStudyArguments:
    # SimulationConfig checks every study's arguments, k first: the uniform
    # source was built from --k before it, and an empty grid skipped the domain
    def test_empty_grid_with_vacuous_alpha_exits_two(self, capsys):
        argv = ["sweep", "--k", "3", "--alpha", "2", "--n-grid", "", "--replicates", "10"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "exceeds k" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--k", "0", "--alpha", "1", "--n", "10", "--replicates", "10"],
            ["sweep", "--k", "0", "--alpha", "1", "--n-grid", "10", "--replicates", "10"],
        ],
        ids=["simulate", "sweep"],
    )
    def test_k_zero_is_refused_as_k(self, capsys, argv):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: k must be an integer >= 2, got 0\n"

    def test_seed_help_says_what_reads_it(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, p in sub.choices.items():
            (seed,) = [a for a in p._actions if "--seed" in a.option_strings]
            draws = name in ("simulate", "sweep")
            assert ("Monte Carlo draws" in seed.help) is draws, name
            assert ("no computation reads it" in seed.help) is not draws, name


class TestOversizedCount:
    # 10**23 is past numpy's int64: the count check refuses it before any
    # draw, where numpy would raise OverflowError and the CLI would exit 1
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--k", "3", "--alpha", "1", "--n", "100000000000000000000000",
             "--replicates", "10"],
            ["sweep", "--k", "3", "--alpha", "1", "--n-grid", "100,100000000000000000000000",
             "--replicates", "10"],
        ],
        ids=["simulate", "sweep"],
    )
    def test_exits_two_with_one_error_line(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 2, res.stderr
        assert res.stdout == "" and "Traceback" not in res.stderr
        assert res.stderr.startswith("error: n must be a whole number >= 1")
        assert res.stderr.count("\n") == 1


class TestDeterminismAndEnvironment:
    def test_byte_identical_reruns(self, tmp_path):
        invocations = [
            ("analyze", json.dumps(RR21)),
            ("construct", "staircase", "--k", "3", "--alpha", "1"),
            ("bounds-check", json.dumps(RR21)),
            ("simulate", "--k", "3", "--alpha", "1", "--n", "100", "--replicates", "300", "--seed", "4"),
            ("sweep", "--k", "3", "--alpha", "1", "--n-grid", "50,100", "--replicates", "200", "--seed", "4"),
        ]
        for argv in invocations:
            first = run_cli(*argv, cwd=tmp_path)
            second = run_cli(*argv, cwd=tmp_path)
            for res in (first, second):
                assert res.returncode == 0, (argv, res.stderr)
            assert first.stdout == second.stdout, argv

    def test_no_subcommand_exits_two(self):
        assert run_cli().returncode == 2
