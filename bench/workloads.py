"""The four benchmark workloads: certify, search, risk and cli.

A workload generates all of its inputs from the seed in its constructor
(raw arrays, or JSON files for cli) and exposes one *cycle*: a fixed list
of ops. The harness in run.py repeats the cycle. Each op is a callable
that makes the timed calls into privmech and returns a zero-argument
check; the check runs outside the timed region and returns True when the
op's output is correct.

Library functions are always looked up on the `privmech` module at call
time (``pm.validate_channel(...)``), never bound at import, so the tracer
in tracing.py sees every call the benchmark makes.
"""
from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np

import privmech as pm

from tracing import load_spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# closed forms the checks compare against; computed here, not by privmech
# ---------------------------------------------------------------------------


def eta_tv_reference(rows: np.ndarray) -> float:
    """Largest total-variation distance between two rows."""
    k = rows.shape[0]
    return max(
        (0.5 * float(np.abs(rows[i] - rows[j]).sum()) for i in range(k) for j in range(i + 1, k)),
        default=0.0,
    )


def rr_eta_kl(alpha: float) -> float:
    """Exact KL (and chi-squared) contraction of binary randomized response:
    ((2^a - 1) / (2^a + 1))^2 (Polyanskiy & Wu 2017)."""
    r = 2.0 ** alpha
    return ((r - 1.0) / (r + 1.0)) ** 2


def staircase_risk(p: np.ndarray, k: int, alpha: float, n: int) -> float:
    lam = (2.0 ** alpha - 1.0) / (k - 1.0)
    return float(np.sum(p * (1.0 - lam * p)) / (n * lam))


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class Workload:
    """Base class: `cycle` is the list of ops, `summary()` extra report values."""

    name = ""
    # percentile reported as op_tail_ms: the highest that leaves at least 10
    # whole-cycle latencies beyond it at BENCHMARK.json's run_seconds
    tail_percentile = 50.0

    def __init__(self, seed: int, workdir: str):
        self.tracer = None  # set by the harness for the traced phase
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.cycle = []
        self.wall = {}  # cli: subcommand -> child wall times (s)

    def warm_up(self):
        """Run each distinct code path once on a small input."""

    def summary(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process running the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# certify: exact certificates and all nine verdicts on small channels
# ---------------------------------------------------------------------------

CERTIFY_SHAPES = ((2, 2), (2, 5), (4, 4), (5, 3), (8, 8))
CONCENTRATIONS = (0.1, 1.0, 10.0)
CERTIFY_DRAWS = 2
NAMED_KS = (2, 3, 5, 8)
NAMED_ALPHAS = 3


def _verdicts_pass(checks) -> bool:
    return all(c.passed for c in checks if c.applicable)


def _thm4_equality(checks, k: int) -> bool:
    # on binary inputs the column-max sum equals 1 + eta_tv exactly
    if k != 2:
        return True
    thm4 = next(c for c in checks if c.name == "thm4")
    return close(thm4.lhs, thm4.rhs, 1e-12)


class Certify(Workload):
    name = "certify"
    # p99.9 has about 50 ops beyond it, but they are the host's scheduling
    # hiccups: its spread across runs was 0.7 of its median
    tail_percentile = 99.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        raw = []
        for k, m in CERTIFY_SHAPES:
            for conc in CONCENTRATIONS:
                for _ in range(CERTIFY_DRAWS):
                    raw.append(self.rng.dirichlet(np.full(m, conc), size=k))
        named = []
        for k in NAMED_KS:
            for a in self.rng.uniform(0.1, 3.0, NAMED_ALPHAS):
                named.append(("rr", k, float(a)))
            for a in self.rng.uniform(0.1, math.log2(k), NAMED_ALPHAS):
                named.append(("staircase", k, float(a)))
        for a in self.rng.uniform(0.05, 1.0, NAMED_ALPHAS):
            named.append(("z", 2, float(a)))
        # interleave so every stretch of the cycle mixes both kinds
        ops = [self._raw_op(rows) for rows in raw]
        for i, spec in enumerate(named):
            ops.insert(2 * i + 1, self._named_op(*spec))
        self.cycle = ops

    @staticmethod
    def _raw_op(rows):
        k = rows.shape[0]

        def op():
            w = pm.validate_channel(rows)
            report = pm.privacy_report(w)
            checks = pm.run_all_checks(w)
            return lambda: _verdicts_pass(checks) and _thm4_equality(checks, k) and (
                close(report.eta_tv, eta_tv_reference(rows), 1e-12)
            )

        return op

    @staticmethod
    def _named_op(kind, k, alpha):
        r = 2.0 ** alpha

        def op():
            if kind == "rr":
                w = pm.randomized_response(k, alpha)
            elif kind == "staircase":
                w = pm.maxl_staircase(k, alpha)
            else:
                w = pm.z_channel(alpha)
            report = pm.privacy_report(w)
            checks = pm.run_all_checks(w)

            def check():
                if not (_verdicts_pass(checks) and _thm4_equality(checks, w.input_size)):
                    return False
                if kind == "rr":
                    return close(report.eta_tv, (r - 1.0) / (r + k - 1.0), 1e-12) and close(
                        report.ldp_level_bits, alpha, 1e-9
                    )
                return close(report.maxl_bits, alpha, 1e-9)

            return check

        return op

    def warm_up(self):
        for op in self.cycle[:4]:
            op()()


# ---------------------------------------------------------------------------
# search: seeded lower-bound search for eta_KL / eta_chi2
# ---------------------------------------------------------------------------

SEARCH_KS = (2, 3, 5, 8)
SEARCH_DRAWS = 2
SEARCH_RR_ALPHAS = (0.5, 1.0, 2.0)
SEARCH_BUDGET = 10_000


class Search(Workload):
    name = "search"
    tail_percentile = 65.0  # one cycle of 30 ops in a run

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # 30 distinct searches: an order statistic over fewer swung with
        # the seed, since one search's cost varies by a third across inputs
        searches = []
        for conc in CONCENTRATIONS:
            for _ in range(SEARCH_DRAWS):
                for k in SEARCH_KS:
                    # alternate divergences, shifting by one per row of
                    # len(SEARCH_KS) so every k is searched under both
                    j = len(searches)
                    spec = pm.KL if (j + j // len(SEARCH_KS)) % 2 == 0 else pm.CHI_SQUARED
                    searches.append((("dirichlet", self.rng.dirichlet(np.full(k, conc), size=k)), spec))
        for a in SEARCH_RR_ALPHAS:
            searches += [(("rr", a), pm.KL), (("rr", a), pm.CHI_SQUARED)]
        self.values = {}
        self.cycle = [
            self._op(j, item, spec, int(self.rng.integers(2**31)))
            for j, (item, spec) in enumerate(searches)
        ]

    def _op(self, j, item, spec, search_seed):
        kind, data = item
        if kind == "rr":
            r = 2.0 ** data
            limit = (r - 1.0) / (r + 1.0)
            exact = rr_eta_kl(data)
        else:
            limit = eta_tv_reference(data)
            exact = None

        def op():
            w = pm.randomized_response(2, data) if kind == "rr" else pm.validate_channel(data)
            est = pm.estimate_eta_f(w, spec, SEARCH_BUDGET, search_seed)
            # explain the witness as a user would: its input and output divergence
            pm.f_divergence(est.witness_p0, est.witness_p1, spec)
            pm.f_divergence(
                pm.pushforward(w, est.witness_p0), pm.pushforward(w, est.witness_p1), spec
            )

            def check():
                ok = 0.0 <= est.value <= limit + 1e-10 and est.evaluations <= SEARCH_BUDGET
                if exact is not None:
                    ok = ok and est.value <= exact + 1e-10
                # the search is deterministic given (budget, seed): repeats must agree
                first = self.values.setdefault(j, est.value)
                return ok and first == est.value

            return check

        return op

    def warm_up(self):
        w = pm.validate_channel(np.array([[0.7, 0.3], [0.2, 0.8]]))
        pm.estimate_eta_f(w, pm.KL, 200, 0)
        pm.estimate_eta_f(pm.randomized_response(3, 1.0), pm.CHI_SQUARED, 200, 0)

    def summary(self):
        if len(self.values) < len(self.cycle):
            return {}
        return {"search_bound_mean": float(np.mean([self.values[j] for j in range(len(self.cycle))]))}


# ---------------------------------------------------------------------------
# risk: Monte Carlo risk of the plug-in estimator under the staircase
# ---------------------------------------------------------------------------

RISK_KS = (2, 3, 5)
RISK_ALPHAS = (0.5, 1.0)
RISK_NS = (100, 1_000, 10_000)
RISK_REPLICATES = 2_000
SWEEP_GRID = (100, 300, 1_000)
LECAM_N = 10_000
LECAM_REPLICATES = 1_000
RISK_SIGMAS = 5.0


def _risk_ok(mean, se, reference) -> bool:
    return abs(mean - reference) <= RISK_SIGMAS * se


class Risk(Workload):
    name = "risk"
    tail_percentile = 85.0  # four cycles of 20 ops in a run

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.results = {}
        ops = []
        for n in RISK_NS:
            for k in RISK_KS:
                for alpha in RISK_ALPHAS:
                    source = self.rng.dirichlet(np.ones(k))
                    ops.append(self._risk_op(len(ops), k, alpha, n, source, self._seed()))
        # spread the expensive n = 10 000 ops through the cycle
        ops = [op for trio in zip(ops[:6], ops[6:12], ops[12:]) for op in trio]
        ops.insert(9, self._sweep_op(self._seed()))
        ops.append(self._lecam_op(self._seed()))
        self.cycle = ops

    def _seed(self) -> int:
        return int(self.rng.integers(2**31))

    def _repeatable(self, key, value) -> bool:
        return self.results.setdefault(key, value) == value

    def _risk_op(self, key, k, alpha, n, source, mc_seed):
        reference = staircase_risk(source, k, alpha, n)

        def op():
            cfg = pm.SimulationConfig(
                k=k, alpha_bits=alpha, n=n, replicates=RISK_REPLICATES, seed=mc_seed,
                source=pm.validate_distribution(source),
            )
            est = pm.empirical_risk(cfg)
            return lambda: (
                close(est.closed_form, reference, 1e-12)
                and _risk_ok(est.mean_risk, est.std_error, reference)
                and self._repeatable(key, est.mean_risk)
            )

        return op

    def _sweep_op(self, mc_seed):
        k, alpha = 3, 1.0
        uniform = np.full(k, 1.0 / k)

        def op():
            rows = pm.scaling_sweep(k, alpha, SWEEP_GRID, RISK_REPLICATES, mc_seed)
            return lambda: (
                [r.n for r in rows] == list(SWEEP_GRID)
                and all(_risk_ok(r.mean_risk, r.std_error, staircase_risk(uniform, k, alpha, r.n)) for r in rows)
                and self._repeatable("sweep", tuple(r.mean_risk for r in rows))
            )

        return op

    def _lecam_op(self, mc_seed):
        def op():
            verdict = pm.lecam_lower_check(2, 1.0, LECAM_N, LECAM_REPLICATES, mc_seed)
            return lambda: verdict.applicable and verdict.passed and self._repeatable("lecam", verdict.rhs)

        return op

    def warm_up(self):
        cfg = pm.SimulationConfig(k=3, alpha_bits=1.0, n=50, replicates=20, seed=0, source=pm.Distribution.uniform(3))
        pm.empirical_risk(cfg)
        pm.scaling_sweep(2, 1.0, [50], 10, 0)
        pm.lecam_lower_check(2, 1.0, 1_000, 10, 0)


# ---------------------------------------------------------------------------
# cli: one `python -m privmech` child at a time
# ---------------------------------------------------------------------------

CLI_SIZES = (128, 256)


def run_child(argv, cwd) -> tuple[int, bytes, float, float]:
    """Run one child to completion: (exit code, stdout, wall s, peak RSS MB).

    The child inherits the environment, where run.py has put src/ on
    PYTHONPATH. It is reaped with wait4 so its own peak RSS is known;
    stderr is discarded.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=cwd)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss * 1024 / 1e6


class Cli(Workload):
    name = "cli"
    tail_percentile = 65.0  # four cycles of 8 ops in a run

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.references = {}
        self.child_rss_mb = 0.0
        paths = {}
        for size in CLI_SIZES:
            rows = self.rng.dirichlet(np.ones(size), size=size)
            paths[size] = os.path.join(workdir, f"channel{size}.json")
            with open(paths[size], "w", encoding="utf-8") as fh:
                json.dump({"rows": rows.tolist()}, fh)
        s = str(seed)
        k_rr = int(self.rng.integers(2, 17))
        k_st = int(self.rng.integers(2, 17))
        a_rr = f"{self.rng.uniform(0.1, 3.0):.6f}"
        a_st = f"{self.rng.uniform(0.1, math.log2(k_st)):.6f}"
        a_mc = f"{self.rng.uniform(0.5, math.log2(3)):.6f}"
        invocations = [
            ["construct", "rr", "--k", str(k_rr), "--alpha", a_rr, "--seed", s],
            ["analyze", paths[128], "--seed", s],
            ["simulate", "--k", "3", "--alpha", a_mc, "--n", "1000", "--replicates", "200", "--seed", s],
            ["analyze", paths[256], "--seed", s],
            ["construct", "staircase", "--k", str(k_st), "--alpha", a_st, "--seed", s],
            ["bounds-check", paths[128], "--seed", s],
            ["sweep", "--k", "3", "--alpha", a_mc, "--n-grid", "100,1000", "--replicates", "200", "--seed", s],
            ["bounds-check", paths[256], "--seed", s],
        ]
        self.cycle = [self._op(i, argv) for i, argv in enumerate(invocations)]

    def _op(self, i, argv):
        def op():
            if self.tracer is None:
                prefix = [sys.executable, "-m", "privmech"]
            else:
                # same CLI entry point, run under the tracer in the child
                spans = os.path.join(self.workdir, "child-spans.jsonl")
                prefix = [
                    sys.executable, os.path.join(BENCH_DIR, "trace_child.py"), spans,
                    str(int(self.tracer.memory)),
                ]
            code, out, wall, rss = run_child(prefix + argv, self.workdir)
            if self.tracer is not None:
                self.tracer.spans += load_spans(spans, self.tracer.op, len(self.tracer.spans))
            self.child_rss_mb = max(self.child_rss_mb, rss)
            self.wall.setdefault(argv[0], []).append(wall)
            first = self.references.setdefault(i, out)
            return lambda: code == 0 and bool(out) and out == first

        return op

    def warm_up(self):
        # loads the interpreter, numpy and privmech from disk once
        run_child([sys.executable, "-m", "privmech", "--version"], self.workdir)

    def peak_rss_mb(self):
        """The largest child's peak resident memory."""
        return self.child_rss_mb

    def summary(self):
        return {"output_bytes": sum(len(out) for out in self.references.values())}


WORKLOADS = {cls.name: cls for cls in (Certify, Search, Risk, Cli)}
