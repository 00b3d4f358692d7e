"""The package runs on the standard library alone: every import in
src/widthk is either the package's own or a stdlib module."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "widthk"


def _imports(tree: ast.AST):
    # (line, top-level module) of every import; None for a relative one
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            yield node.lineno, top


def test_every_import_is_the_package_or_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "genfun.py" in sources
    foreign = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, top in _imports(tree):
            if top not in (None, "widthk") and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{line}: {top}")
    assert foreign == []


def test_the_check_sees_a_foreign_import():
    tree = ast.parse("import os\nfrom . import poly\nif True:\n    import numpy.linalg\n")
    assert list(_imports(tree)) == [(1, "os"), (2, None), (4, "numpy")]
