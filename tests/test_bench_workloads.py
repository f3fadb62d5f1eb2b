"""Every benchmark op's own check passes on one cycle of each workload.

The benchmark counts an op whose check fails as a failed op; this runs the
same checks under the test suite. It imports bench/workloads.py as
bench/run.py does and writes only into a temporary directory.
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
