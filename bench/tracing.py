"""Span tracing around privmech's public functions, for the traced run only.

`Tracer.install()` replaces each target function at every binding in the
`privmech.*` module namespaces (the package itself included), so calls
between modules are caught too, e.g. `bounds.check_thm1` calling
`coefficients.dobrushin_coefficient`. Each call records a span: name,
start, end, parent span and op id. A memory tracer (memory=True) also
records the tracemalloc peak of the allocations made inside each call of
the functions that have a peak-memory metric.
Spans stay in memory until the run writes them out.

`layer_metrics()` turns spans into the per-layer metrics named in
BENCHMARK.json.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

TARGETS = {
    "core": ("validate_channel",),
    "mechanisms": ("randomized_response", "z_channel", "maxl_staircase"),
    "coefficients": (
        "dobrushin_coefficient", "ldp_level", "max_leakage", "min_entry",
        "privacy_report", "estimate_eta_f",
    ),
    "divergences": ("f_divergence",),
    "bounds": (
        "run_all_checks", "check_thm1", "check_thm2", "check_thm3", "check_thm4",
        "check_maxl_sandwich", "check_ldp_sandwich", "check_lemma1",
    ),
    "minimax": ("empirical_risk", "scaling_sweep", "lecam_lower_check"),
}
CERTIFICATES = tuple(
    f"coefficients.{n}" for n in ("dobrushin_coefficient", "ldp_level", "max_leakage", "min_entry")
)
CLI_SUBCOMMANDS = ("construct", "analyze", "bounds-check", "simulate", "sweep")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# what a span keeps from its call, beyond timing: small numbers only
def _info_min_entry(args, kwargs, result):
    return {"value": result}


def _info_eta(args, kwargs, result):
    return {"evaluations": result.evaluations, "budget": _arg(args, kwargs, 2, "budget")}


def _info_checks(args, kwargs, result):
    return {"verdicts": len(result), "applicable": sum(c.applicable for c in result)}


def _info_risk(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"replicates": cfg.replicates, "samples": cfg.n * cfg.replicates}


def _info_lecam(args, kwargs, result):
    n, reps = _arg(args, kwargs, 2, "n"), _arg(args, kwargs, 3, "replicates")
    return {"replicates": 2 * reps, "samples": 2 * n * reps}


INFO = {
    "coefficients.min_entry": _info_min_entry,
    "coefficients.estimate_eta_f": _info_eta,
    "bounds.run_all_checks": _info_checks,
    "minimax.empirical_risk": _info_risk,
    "minimax.lecam_lower_check": _info_lecam,
}


# With memory=True, tracemalloc runs inside spans of these functions only:
# it costs on every allocation, several times the time of a small op, so
# timing and peak memory come from separate passes.
PEAK_TRACKED = frozenset(
    ["bounds.run_all_checks", "coefficients.privacy_report"] + list(CERTIFICATES)
)


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []  # dicts: id, parent, op, name, start, end, peak_bytes[, info]
        self.op = 0
        # [span, traced bytes at entry, highest traced bytes so far, owns tracemalloc]
        self._stack = []
        # spans begun while tracemalloc runs wait here, so that growing
        # self.spans is not counted in a measured peak
        self._pending = []
        self._patched = []

    def install(self):
        originals = {}
        for module, names in TARGETS.items():
            mod = sys.modules[f"privmech.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "privmech" and not modname.startswith("privmech."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        info_of = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if info_of is not None:
                span["info"] = info_of(args, kwargs, result)
            return result

        return traced

    def _enter(self, name):
        owner = self.memory and name in PEAK_TRACKED and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        parent = self._stack[-1][0]["id"] if self._stack else None
        span = {"id": len(self.spans) + len(self._pending), "parent": parent, "op": self.op, "name": name}
        (self._pending if tracemalloc.is_tracing() else self.spans).append(span)
        current, peak = tracemalloc.get_traced_memory()  # (0, 0) when not tracing
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        self._stack.append([span, current, current, owner])
        tracemalloc.reset_peak()
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span):
        span["end"] = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        _, at_entry, running, owner = self._stack.pop()
        top = max(running, peak)
        span["peak_bytes"] = top - at_entry
        if owner:
            tracemalloc.stop()
            self.spans += self._pending
            self._pending.clear()
        elif self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], top)
            tracemalloc.reset_peak()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path, op, first_id):
    """Spans a traced child wrote, renumbered into the parent's op and ids."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            span["id"] += first_id
            if span["parent"] is not None:
                span["parent"] += first_id
            span["op"] = op
            spans.append(span)
    return spans


def layer_metrics(spans, memory_spans) -> dict:
    """Per-layer metrics: times and counts from `spans`, peaks from
    `memory_spans`. Every layer appears, 0 where the workload bypasses it."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    peak = defaultdict(int)
    covered = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    for s in memory_spans:
        peak[s["name"]] = max(peak[s["name"]], s["peak_bytes"])
    for s in spans:
        dur = s["end"] - s["start"]
        calls[s["name"]] += 1
        busy[s["name"]] += dur
        if s["parent"] is not None:
            covered[s["parent"]] += dur
    module_self = defaultdict(float)
    for s in spans:
        module_self[s["name"].split(".")[0]] += s["end"] - s["start"] - covered[s["id"]]

    m = {}
    for module, names in TARGETS.items():
        m[f"{module}.self_s"] = module_self[module]
        for fname in names:
            name = f"{module}.{fname}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = busy[name]
            m[f"{name}.peak_mb"] = peak[name] / 1e6

    # certificate calls per channel: ops that ran privacy_report and
    # run_all_checks once each on a channel without zero entries
    per_op = defaultdict(lambda: defaultdict(int))
    zero_entry = set()
    for s in spans:
        per_op[s["op"]][s["name"]] += 1
        if s["name"] == "coefficients.min_entry" and s.get("info", {}).get("value") == 0.0:
            zero_entry.add(s["op"])
    per_channel = [
        sum(names[c] for c in CERTIFICATES)
        for op, names in per_op.items()
        if names["coefficients.privacy_report"] == 1
        and names["bounds.run_all_checks"] == 1
        and op not in zero_entry
    ]
    m["coefficients.cert_calls_per_channel"] = sum(per_channel) / len(per_channel) if per_channel else 0.0

    def total(names, key):
        # a call that raised has no info and counts as no work
        return sum(s.get("info", {}).get(key, 0) for s in spans if s["name"] in names)

    evals = total(("coefficients.estimate_eta_f",), "evaluations")
    budget = total(("coefficients.estimate_eta_f",), "budget")
    eta_s = busy["coefficients.estimate_eta_f"]
    m["coefficients.estimate_eta_f.evaluations"] = evals
    m["coefficients.estimate_eta_f.evals_per_s"] = evals / eta_s if eta_s else 0.0
    m["coefficients.estimate_eta_f.evals_per_budget"] = evals / budget if budget else 0.0

    verdicts = total(("bounds.run_all_checks",), "verdicts")
    m["bounds.verdicts"] = verdicts
    m["bounds.applicable_frac"] = total(("bounds.run_all_checks",), "applicable") / verdicts if verdicts else 0.0

    sampling = ("minimax.empirical_risk", "minimax.lecam_lower_check")
    m["minimax.replicates"] = total(sampling, "replicates")
    samples = total(sampling, "samples")
    # time of outermost minimax calls, so a sweep's nested risks count once
    outer = [
        s for s in spans
        if s["name"].startswith("minimax.")
        and (s["parent"] is None or not by_id[s["parent"]]["name"].startswith("minimax."))
    ]
    minimax_s = sum(s["end"] - s["start"] for s in outer)
    m["minimax.samples_per_s"] = samples / minimax_s if minimax_s else 0.0
    return m
