"""numpy is the library's only dependency: every absolute import in the
package is of the standard library or of numpy. scipy and mpmath may be
installed alongside, so an accidental import of either would still run."""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "privmech"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    outside = {
        f"{path.name}: {name}"
        for path in files
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}
    }
    assert not outside, sorted(outside)
