"""The pytest configuration in pyproject.toml, run on a test file of its own.

pytest turns every warning into an error. A failing property test must still
be reported as a failure, and the tests after it must still run: hypothesis
reports the failure through a third-party import that warns, and as an error
that warning would end the session with INTERNALERROR (exit 3).
"""
import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_inner.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_inner.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout, res.stdout
