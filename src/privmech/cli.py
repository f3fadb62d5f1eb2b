"""Command-line interface: analyze / construct / bounds-check / simulate / sweep.

Data goes to stdout (or --output), diagnostics to stderr. Exit codes:
0 success, 1 an applicable bound check failed, 2 usage/validation errors
and inputs too large to allocate.
Every output record embeds the tool version and the seed, so identical
invocations are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bounds import run_all_checks
from .coefficients import privacy_report
from .core import (
    _check_count,
    _check_seed,
    channel_from_dict,
    channel_to_dict,
    distribution_from_dict,
    distribution_to_dict,
)
from .errors import PrivmechError
from .mechanisms import maxl_staircase, randomized_response, z_channel
from .minimax import SimulationConfig, empirical_risk, scaling_sweep

SWEEP_COLUMNS = (
    "k,alpha_bits,n,replicates,seed,mean_risk,std_error,"
    "closed_form,upper_bound,lecam_lower,normalized_risk"
)
# the SweepRow fields written per row, in column order
_SWEEP_ROW = ("n", *SWEEP_COLUMNS.split(",")[-6:])


def _read_json(text: str) -> dict:
    if text == "-":
        return json.load(sys.stdin)
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_channel(text: str):
    return channel_from_dict(_read_json(text))


def _load_source(text: str):
    # None for "uniform": SimulationConfig makes it once k has passed its check
    return None if text == "uniform" else distribution_from_dict(_read_json(text))


def _emit(text: str, output: str):
    if not text.endswith("\n"):
        text += "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(value) -> str:
    # shortest decimal that round-trips the IEEE-754 double
    return repr(float(value))


def _exit_status(checks) -> int:
    """1, with one message on stderr, when an applicable verdict failed; else 0."""
    failed = [c.name for c in checks if c.applicable and not c.passed]
    if not failed:
        return 0
    print(
        f"bound check(s) failed: {', '.join(failed)}. This indicates either an "
        "implementation bug or a genuine counterexample; please report the "
        "channel JSON and seed.",
        file=sys.stderr,
    )
    return 1


def cmd_analyze(args) -> int:
    w = _load_channel(args.channel)
    report = privacy_report(w)
    checks = run_all_checks(w)
    payload = {
        "version": __version__,
        "seed": args.seed,
        "report": report.to_dict(),
        "checks": [c.to_dict() for c in checks],
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return _exit_status(checks)


def cmd_construct(args) -> int:
    if args.kind in ("rr", "staircase") and args.k is None:
        raise PrivmechError(f"construct {args.kind} requires --k")
    if args.kind == "rr":
        w = randomized_response(args.k, args.alpha)
    elif args.kind == "z":
        w = z_channel(args.alpha)
    else:
        w = maxl_staircase(args.k, args.alpha)
    payload = dict(channel_to_dict(w))
    payload["version"] = __version__
    payload["seed"] = args.seed
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def cmd_bounds_check(args) -> int:
    w = _load_channel(args.channel)
    checks = run_all_checks(w)
    lines = [
        json.dumps({**c.to_dict(), "version": __version__, "seed": args.seed})
        for c in checks
    ]
    _emit("\n".join(lines), args.output)
    return _exit_status(checks)


def cmd_simulate(args) -> int:
    cfg = SimulationConfig(
        k=args.k,
        alpha_bits=args.alpha,
        n=args.n,
        replicates=args.replicates,
        seed=args.seed,
        source=_load_source(args.source),
    )
    est = empirical_risk(cfg)
    payload = {
        "version": __version__,
        "seed": args.seed,
        "k": args.k,
        "alpha_bits": args.alpha,
        "n": args.n,
        "replicates": args.replicates,
        "source": distribution_to_dict(cfg.source)["probs"],
        **est.to_dict(),
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _grid_count(tok: str) -> int:
    """An --n-grid token as a sample size, by the library's count rule: a
    token that spells an integer is read exactly, however many digits, any
    other as a float, so 100.0 is the count 100 and 100.5 is refused as n,
    and one that is no number as its text, which the rule refuses too."""
    try:
        value = int(tok)
    except ValueError:
        try:
            value = float(tok)
        except ValueError:
            value = tok.strip()
    return _check_count("n", value)


def cmd_sweep(args) -> int:
    grid = [_grid_count(tok) for tok in args.n_grid.split(",") if tok.strip()]
    source = _load_source(args.source)
    rows = scaling_sweep(args.k, args.alpha, grid, args.replicates, args.seed, source)
    if args.format == "json":
        payload = {
            "version": __version__,
            "seed": args.seed,
            "k": args.k,
            "alpha_bits": args.alpha,
            "replicates": args.replicates,
            "rows": [{name: getattr(r, name) for name in _SWEEP_ROW} for r in rows],
        }
        _emit(json.dumps(payload, indent=2), args.output)
        return 0
    lines = [f"# privmech {__version__}", SWEEP_COLUMNS]
    for r in rows:
        head = [str(args.k), _fmt(args.alpha), str(r.n), str(args.replicates), str(args.seed)]
        lines.append(",".join(head + [_fmt(getattr(r, name)) for name in _SWEEP_ROW[1:]]))
    _emit("\n".join(lines), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privmech",
        description=(
            "Represent finite privacy mechanisms as row-stochastic channels; "
            "compute contraction and leakage certificates, check the bounds "
            "relating them, and simulate distribution-estimation risk."
        ),
    )
    parser.add_argument("--version", action="version", version=f"privmech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help="echoed into the output; no computation reads it"):
        p.add_argument("--seed", type=int, default=0, help=f"{seed_help} (default 0)")
        p.add_argument("-o", "--output", default="-", help="output path (default stdout)")

    p = sub.add_parser("analyze", help="privacy certificates plus all bound checks for a channel")
    p.add_argument("channel", help="channel JSON: a path, inline JSON, or - for stdin")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="emit a named mechanism as channel JSON")
    p.add_argument("kind", choices=["rr", "z", "staircase"])
    p.add_argument("--k", type=int, default=None, help="input alphabet size (rr, staircase)")
    p.add_argument("--alpha", type=float, required=True, help="privacy level in bits")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds-check", help="one JSON verdict per line; exit 0 iff all applicable pass")
    p.add_argument("channel", help="channel JSON: a path, inline JSON, or - for stdin")
    common(p)
    p.set_defaults(func=cmd_bounds_check)

    p = sub.add_parser("simulate", help="Monte Carlo risk of the plug-in estimator")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="samples per replicate")
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--source", default="uniform", help="'uniform', a path, or inline distribution JSON")
    common(p, "seed of the Monte Carlo draws, echoed into the output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="risk scaling across sample sizes (CSV by default)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n-grid", required=True, help="comma-separated sample sizes, e.g. 100,200,400")
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--source", default="uniform", help="'uniform', a path, or inline distribution JSON")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    common(p, "seed of the Monte Carlo draws, echoed into the output")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_seed(args.seed)  # one rule for every subcommand, also those that only echo it
        return args.func(args)
    except (PrivmechError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's error names the size it could not allocate
        print(f"error: not enough memory for this input. {exc}".rstrip(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
