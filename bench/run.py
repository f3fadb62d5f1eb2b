"""privmech benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: privmech is imported from src/.
The workload (certify, search, risk or cli; see workloads.py) builds its
inputs from the seed, then repeats its cycle of ops, one at a time, for
the number of whole cycles that comes closest to S seconds. Every op's
output is checked; a failed check is counted, never fatal.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs S/2 seconds untraced, then S/2 seconds with every privmech public
function wrapped (tracing.py), then, if the workload calls a function with
a peak-memory metric, one cycle with tracemalloc on. It reports the
per-layer metrics and the tracing overhead; spans go to .bench_work/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The line before it is the full report, with provenance.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9  # fresh processes timed from start to their first op
CHILD_TIMEOUT_S = 120
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_TRACEBACKS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["certify", "search", "risk", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "privmech").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, nproc) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up and the timed loop
# ---------------------------------------------------------------------------


def set_up(args, workdir):
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    workload.warm_up()
    # keep the collector from rescanning set-up objects during timing
    gc.collect()
    gc.freeze()
    return workload


def time_setup_in_child(args) -> tuple[float, float]:
    """Seconds from spawning a fresh benchmark process to its first op:
    (raw, scaled by the calibration ticks just before and after)."""
    from calibration import REFERENCE_S, tick

    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    before = tick()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code})")
    return elapsed, elapsed * REFERENCE_S / (0.5 * (before + tick()))


class Phase:
    """Latencies and outcomes of one timed phase of whole cycles."""

    def __init__(self):
        self.latencies = []  # raw wall seconds
        self.scaled = []  # the same, calibrated (calibration.py)
        self.failed = 0
        self.elapsed_s = 0.0


def run_phase(workload, seconds, tracer=None, first_op=0) -> Phase:
    """Run whole cycles, at least one, and stop at the cycle boundary
    nearest to `seconds`: when another cycle of the mean length so far
    would end further past it. Whole cycles keep every run's mix of ops the
    same."""
    from calibration import Scaler

    cycle = workload.cycle
    phase = Phase()
    scaler = Scaler()
    tracebacks = 0
    start = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.op = first_op + i
        t0 = time.perf_counter()
        try:
            check = cycle[i % len(cycle)]()
            t1 = time.perf_counter()
            ok = bool(check())
        except Exception:  # a broken op is a failed op; the run goes on
            t1 = time.perf_counter()
            ok = False
            if tracebacks < MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
                tracebacks += 1
        phase.latencies.append(t1 - t0)
        scaler.add(t1 - t0, phase.scaled)
        phase.failed += not ok
        i += 1
        if i % len(cycle) == 0:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / (i // len(cycle)) >= seconds:
                scaler.flush(phase.scaled)
                phase.elapsed_s = elapsed
                return phase


def mean_op_s(phase) -> float:
    """Mean scaled op time."""
    return sum(phase.scaled) / len(phase.scaled)


def percentile(values, q) -> float:
    """Nearest-rank percentile; q = 100 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def timings(latencies, cycle_len, tail_q) -> dict:
    """Timing metrics from whole-cycle op times in seconds.

    The median is taken over the cycle's ops of each op's median across
    cycles. On a cycle of unlike ops the plain median falls between two
    kinds of op and swings with the extremes of each; this one is the
    median op of the cycle, steadied by its repeats.
    """
    per_op = [statistics.median(latencies[p::cycle_len]) for p in range(cycle_len)]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * percentile(latencies, tail_q),
    }


def end_to_end(workload, phase, setup_samples) -> tuple[dict, dict]:
    """(metrics, extra report values) of an untraced run."""
    tail_q, cycle_len = workload.tail_percentile, len(workload.cycle)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        **timings(phase.scaled, cycle_len, tail_q),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    tail = percentile(phase.scaled, tail_q)
    extra = {
        "fail_frac": phase.failed / len(phase.latencies),
        "op_tail_percentile": tail_q,
        "op_tail_samples_beyond": sum(t > tail for t in phase.scaled),
        "timed_ops": len(phase.latencies),
        "timed_cycles": len(phase.latencies) // cycle_len,
        "timed_s": phase.elapsed_s,
        "raw": {
            "setup_s": statistics.median(raw for raw, _ in setup_samples),
            **timings(phase.latencies, cycle_len, tail_q),
        },
        **workload.summary(),
    }
    return metrics, extra


def child_ms(argv, samples=3) -> float:
    walls = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
    return 1e3 * statistics.median(walls)


def traced_phase(workload, seconds, memory, first_op):
    from tracing import Tracer

    tracer = Tracer(memory)
    workload.tracer = tracer
    tracer.install()
    try:
        return run_phase(workload, seconds, tracer, first_op), tracer
    finally:
        tracer.uninstall()
        workload.tracer = None


def per_layer(workload, spans, memory_spans, untraced_wall) -> dict:
    from tracing import CLI_SUBCOMMANDS, layer_metrics

    metrics = layer_metrics(spans, memory_spans)
    is_cli = workload.name == "cli"
    metrics["cli.python_ms"] = child_ms([sys.executable, "-c", "pass"]) if is_cli else 0.0
    metrics["cli.import_ms"] = child_ms([sys.executable, "-c", "import privmech"]) if is_cli else 0.0
    for sub in CLI_SUBCOMMANDS:
        walls = untraced_wall.get(sub)
        metrics[f"cli.{sub}.ms"] = 1e3 * statistics.median(walls) if walls else 0.0
    metrics["cli.output_bytes"] = workload.summary().get("output_bytes", 0)
    return metrics


def select(declared, computed) -> dict:
    """The metrics BENCHMARK.json declares, in its order and units."""
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}


def print_table(metrics):
    for name, entry in metrics.items():
        print(f"  {name:<48} {entry['value']:>16.6g} {entry['unit']}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "privmech" / "__init__.py").is_file():
        print(f"error: privmech sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = len(os.sched_getaffinity(0))
    # one core for this process and its children: the calibration ticks
    # then measure the core every op runs on, and no op pays a migration
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # one BLAS thread: privmech's products are tiny, and an idle BLAS thread
    # spinning on the other core made timings slower and less steady
    for var in BLAS_VARS:  # before numpy loads; children inherit both
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            set_up(args, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, spec, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, nproc, workdir) -> int:
    setup_samples = [] if args.trace else [time_setup_in_child(args) for _ in range(SETUP_SAMPLES)]
    workload = set_up(args, workdir)
    report = provenance(args, nproc)

    if not args.trace:
        phase = run_phase(workload, args.seconds)
        computed, extra = end_to_end(workload, phase, setup_samples)
        metrics = select(spec["end_to_end"], computed)
        attempted, failed = len(phase.latencies), phase.failed
    else:
        from tracing import PEAK_TRACKED

        untraced = run_phase(workload, args.seconds / 2)
        untraced_wall = {sub: list(walls) for sub, walls in workload.wall.items()}
        traced, timing = traced_phase(workload, args.seconds / 2, False, len(untraced.latencies))
        phases = [untraced, traced]
        memory_spans = []
        if any(s["name"] in PEAK_TRACKED for s in timing.spans):
            # one more cycle, with tracemalloc, for the peak-memory metrics
            phase, memory = traced_phase(
                workload, 0, True, len(untraced.latencies) + len(traced.latencies)
            )
            phases.append(phase)
            memory_spans = memory.spans
            memory.write(WORK / f"spans-{args.workload}-{args.seed}-memory.jsonl")
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        timing.write(spans_path)
        metrics = select(spec["per_layer"], per_layer(workload, timing.spans, memory_spans, untraced_wall))
        attempted = sum(len(p.latencies) for p in phases)
        failed = sum(p.failed for p in phases)
        extra = {
            "fail_frac": failed / attempted,
            "spans": len(timing.spans),
            "spans_path": str(spans_path.relative_to(ROOT)),
            "tracing_overhead": mean_op_s(traced) / mean_op_s(untraced) - 1.0,
            **workload.summary(),
        }

    report.update(extra)
    report["metrics"] = metrics
    print(f"privmech benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print_table(metrics)
    for key in ("fail_frac", "search_bound_mean", "tracing_overhead"):
        if key in extra:
            print(f"  {key:<48} {extra[key]:>16.6g}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
