"""Every benchmark op's own check passes on one cycle of each workload,
and the span tracer of the traced run finds every function it wraps.

The benchmark counts an op whose check fails as a failed op; this runs the
same checks under the test suite. It imports bench/workloads.py and
bench/tracing.py as bench/run.py does and writes only into a temporary
directory.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["certify", "search", "risk", "cli"])
def test_one_cycle_passes_every_check(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in bench/
    import workloads

    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    failed = [i for i, op in enumerate(workload.cycle) if not op()()]
    assert workload.cycle and not failed, f"{name} ops {failed} failed their check"


def test_tracer_wraps_every_target_and_restores_every_binding(monkeypatch):
    # a renamed or removed target fails here, not in a traced benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import privmech
    import tracing

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "privmech"]
    before = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, names in tracing.TARGETS.items():
            for fname in names:
                home = f"privmech.{module}"
                traced = getattr(sys.modules[home], fname)
                assert traced.__wrapped__ is before[(home, fname)], f"{module}.{fname}"
        w = privmech.validate_channel([[0.6, 0.4], [0.2, 0.8]])
        privmech.privacy_report(w)
        report = next(s for s in tracer.spans if s["name"] == "coefficients.privacy_report")
        inner = {s["name"] for s in tracer.spans if s["parent"] == report["id"]}
        assert inner == {"coefficients.dobrushin_coefficient", "coefficients.min_entry"}
    finally:
        tracer.uninstall()
    after = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
