"""Every verification suite reads its distributions through the run's
SweepCaches: t_poly for a whole joint polynomial, dist for one
distribution.  No suite_* function in verify, nor any helper nested in one,
names a counting program, a grading call or an unmemoized constructor, so
each distribution stays counted once per run."""

import ast
import pathlib

VERIFY = pathlib.Path(__file__).resolve().parents[1] / "src" / "widthk" / "verify.py"
DIRECT = {"_sn_excedances", "_sn_majors", "_sn_g", "grade", "t_polynomial", "g_table"}


def _direct_reads(source: str) -> list[str]:
    # names read (x) and attributes reached (obj.x) inside each suite_*
    found = []
    for suite in ast.parse(source).body:
        if not (isinstance(suite, ast.FunctionDef) and suite.name.startswith("suite_")):
            continue
        for node in ast.walk(suite):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in DIRECT:
                found.append((node.lineno, f"{suite.name}:{node.lineno}: {name}"))
    return [where for _, where in sorted(found)]


def test_suites_read_distributions_only_through_the_memo():
    source = VERIFY.read_text()
    assert "def suite_theorem(" in source
    assert _direct_reads(source) == []


def test_the_check_sees_a_direct_read():
    source = (
        "def suite_a(top, caches):\n"
        "    def cases():\n"
        "        return caches.g_table(top)\n"
        "    return _sn_g(top, 1), caches.dist(top, 'G', (1,))\n"
        "def suite_b(top, caches):\n"
        "    return caches.t_poly(top, ()).grade([])\n"
        "def helper(n):\n"
        "    return t_polynomial(n)\n"
    )
    assert _direct_reads(source) == [
        "suite_a:3: g_table",
        "suite_a:4: _sn_g",
        "suite_b:6: grade",
    ]
