"""README's library tour runs as written, and the certificate values in its
comments are the ones it computes.

The block runs as a user would paste it: in a fresh interpreter, from a
temporary directory, importing the package through the PYTHONPATH that
conftest.py makes absolute. A signature change that the tour does not follow
fails here.
"""
import json
import math
import pathlib
import re
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _comment_value(text: str) -> float:
    """A commented value: a decimal, or log2 of one."""
    inner = re.fullmatch(r"log2\((.+)\)", text)
    return math.log2(float(inner.group(1))) if inner else float(text)


def test_library_tour_runs_and_its_certificate_comments_hold(tmp_path):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commented = dict(re.findall(r"^rep\.(\w+) +# (\S+)$", code, re.M))
    assert sorted(commented) == ["eta_tv", "ldp_level_bits", "maxl_bits"]
    probe = f"\nimport json\nprint(json.dumps({{n: getattr(rep, n) for n in {sorted(commented)!r}}}))\n"
    res = subprocess.run(
        [sys.executable, "-c", code + probe], capture_output=True, text=True, cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.splitlines()[-1])
    assert got == {name: _comment_value(text) for name, text in commented.items()}
