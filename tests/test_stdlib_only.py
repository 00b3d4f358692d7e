"""The package runs on the standard library alone: every import in
src/widthk is either the package's own or a stdlib module.  It also loads
no more than a command needs: only verify loads the verification engine."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

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
    loaded = set(_run(script))
    assert "widthk.genfun" in loaded
    assert loaded & {"dataclasses", "inspect", "fractions", "pickle", "csv"} == set()
    assert "widthk.verify" not in loaded


def _run(script: str, *args: str):
    # the JSON that script prints, run in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


# a small argv per command
COMMANDS = {
    "stat": ["stat", "--perm", "4136572", "--widths", "2,3", "--stat", "maj"],
    "gf": ["gf", "--n", "5", "--stat", "des", "--width", "2", "--method", "all"],
    "avoid": ["avoid", "--n", "5", "--patterns", "132,4321", "--members"],
    "tpoly": ["tpoly", "--n", "4", "--avoid", "312"],
    "gtable": ["gtable", "--n", "5,6"],
    "verify": ["verify", "--suite", "example"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_only_verify_loads_the_engine(command):
    script = (
        "import contextlib, io, json, sys\n"
        "import widthk.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = widthk.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, 'widthk.verify' in sys.modules]))\n"
    )
    assert _run(script, json.dumps(COMMANDS[command])) == [0, command == "verify"]


def test_the_package_serves_the_engine_on_first_use():
    # widthk.run_suite and widthk.VerificationReport load the engine when
    # first read, and genfun forwards SUITES alone
    script = (
        "import json, sys\n"
        "import widthk\n"
        "from widthk import genfun\n"
        "before = 'widthk.verify' in sys.modules\n"
        "star = {}\n"
        "exec('from widthk import *', star)\n"
        "from widthk import verify\n"
        "print(json.dumps({\n"
        "    'before': before,\n"
        "    'all': widthk.__all__,\n"
        "    'star': sorted(set(star) - {'__builtins__'}),\n"
        "    'served': [\n"
        "        widthk.run_suite is star['run_suite'] is verify.run_suite,\n"
        "        widthk.VerificationReport is star['VerificationReport']\n"
        "        is verify.VerificationReport,\n"
        "        genfun.SUITES is verify.SUITES,\n"
        "    ],\n"
        "    'missing': [\n"
        "        hasattr(widthk, 'suite_reports'), hasattr(genfun, 'SweepCaches'),\n"
        "        hasattr(genfun, 'run_suite'),\n"
        "    ],\n"
        "}))\n"
    )
    got = _run(script)
    assert got["before"] is False
    assert got["all"] == got["star"] == PUBLIC_NAMES
    assert got["served"] == [True, True, True]
    assert got["missing"] == [False, False, False]


PUBLIC_NAMES = [
    "EnumerationCapError", "InvalidInputError", "LaurentPoly", "MultiPoly",
    "VerificationReport", "avoidance_class", "avoids", "brute_distribution", "catalan",
    "closed_des_k", "closed_g", "closed_inv_132_312", "closed_inv_k", "complement",
    "contains", "des", "des_set", "enumerate_sn", "enumeration_cap", "eulerian_poly", "exc",
    "g_table", "inv", "inv_by_lcm", "inv_set", "maj", "parse_patterns", "parse_perm",
    "product_132_231", "product_132_312", "q_factorial", "rec_123_132", "rec_123_312",
    "rec_132_213", "rec_312", "reverse", "run_suite", "standardize", "t_polynomial",
]
