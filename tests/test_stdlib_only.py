"""The package runs on the standard library alone: every import in
src/widthk is either the package's own or a stdlib module."""

import ast
import json
import os
import pathlib
import subprocess
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


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # dataclasses pulls in inspect, ast, dis and tokenize, and fractions
    # pulls in decimal: each costs every CLI process its import time; pickle
    # and csv load only inside verify, where they are used
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import widthk.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(done.stdout))
    assert "widthk.genfun" in loaded
    assert loaded & {"dataclasses", "inspect", "fractions", "pickle", "csv"} == set()
