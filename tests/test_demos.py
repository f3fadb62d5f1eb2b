"""Each demo script runs to completion as its own process and prints output.

The demos import the package as a user would; the children find it through
the PYTHONPATH that conftest.py makes absolute, so they run from a temporary
directory.
"""
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    res = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
