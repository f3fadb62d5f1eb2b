"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --seeds 1-10 [--workloads certify,risk]
                             [--trace-seed N] [--out FILE]

For every workload and seed it runs bench/run.py with BENCHMARK.json's
run_seconds, then reports each end-to-end metric's median, quartiles and
spread: the distance between the first and third quartile as a share of
the median, next to the metric's bound. With --trace-seed it adds one
traced run per workload. With --out it writes the whole summary as JSON
(bench/baseline.json was made this way).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROVENANCE = (
    "nproc", "pinned_cpus", "cpu_model", "python", "numpy", "blas_threads", "git_commit", "src_sha256",
)
EXTRAS = ("fail_frac", "search_bound_mean", "op_tail_percentile", "op_tail_samples_beyond", "timed_ops")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed (exit {res.returncode}):\n{res.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0, "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        reports = []
        for seed in args.seeds:
            report, result = run(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
            reports.append(report)
        summary.setdefault("provenance", {k: reports[0][k] for k in PROVENANCE})
        entry = {"end_to_end": {}, "report": {}}
        print(f"\n{workload}: {len(args.seeds)} seeds, {seconds} s each")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = spread([r["metrics"][name]["value"] for r in reports])
            stats.update(unit=metric["unit"], bound=metric["bound"])
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < metric["bound"] / 3 else "WIDE"
            raw = ""
            if name in reports[0].get("raw", {}):
                stats["raw"] = spread([r["raw"][name] for r in reports])
                raw = f"   uncalibrated: median {stats['raw']['median']:.6g} spread {stats['raw']['spread']:.4f}"
            print(f"  {name:<14} median {stats['median']:<12.6g} {metric['unit']:<6} "
                  f"spread {stats['spread']:.4f} (bound {metric['bound']}) {flag}{raw}")
        for key in EXTRAS:
            values = [r[key] for r in reports if key in r]
            if values:
                entry["report"][key] = values
                print(f"  {key:<24} {values}")
        if args.trace_seed is not None:
            report, _ = run(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {
                "seed": args.trace_seed,
                "tracing_overhead": report["tracing_overhead"],
                "per_layer": {k: v["value"] for k, v in report["metrics"].items()},
            }
            print(f"  traced seed {args.trace_seed}: tracing overhead {report['tracing_overhead']:.3f}")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
