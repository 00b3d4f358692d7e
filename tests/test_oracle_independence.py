"""The batch scanner and the per-word width sets stay separate routes.

The tests compare stats.scanner with des_set and inv_set, and
SweepCaches.dist with brute_distribution, which counts through the scanner.
A comparison checks something only while its two sides share no rule: in
stats, the per-word sets, inv_by_lcm and the lcm expansion never name the
scanner, nor the scanner them; in genfun, only brute_distribution names the
scanner; in perm, only _joint_descents names it; and nothing in verify
names it.

A class with a pattern of length other than 3 is counted by brute force:
_joint_descents runs the scanner over the class's listed columns.  So the
oracle of its joint is the per-word count joint_descent_counts of
tests/test_genfun.py, not brute_distribution, and no test compares
SweepCaches.dist with brute_distribution over such a class.

Likewise the tests compare the DP's filter for classes of length-3 patterns
(perm._allowed) with the class walk's fold tables: the two name neither each
other nor a common helper of perm, and the filter does not name _gap."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "widthk"
PER_WORD = {"des_set", "inv_set", "inv_by_lcm", "_lcm_terms"}
# the names each function of stats may not reach
FORBIDDEN = {**dict.fromkeys(PER_WORD, {"scanner"}), "scanner": PER_WORD}


def _names(node: ast.AST):
    # names read (x) and attributes reached (obj.x) anywhere below node
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.lineno, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.lineno, sub.attr


def _names_scanner(module: str, source: str, owner: str = "") -> list[str]:
    # every place outside the function owner where source names the scanner
    return [
        f"{module}:{line}: {name}"
        for node in ast.parse(source).body
        if not (isinstance(node, ast.FunctionDef) and node.name == owner)
        for line, name in _names(node)
        if name == "scanner"
    ]


def _crossings(
    stats_source: str, genfun_source: str, verify_source: str, perm_source: str
) -> list[str]:
    found = []
    for fn in ast.parse(stats_source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        forbidden = FORBIDDEN.get(fn.name, ())
        found += [
            f"stats.py:{line}: {fn.name} names {name}"
            for line, name in _names(fn)
            if name in forbidden
        ]
    found += _names_scanner("genfun.py", genfun_source, "brute_distribution")
    found += _names_scanner("perm.py", perm_source, "_joint_descents")
    found += _names_scanner("verify.py", verify_source)
    return found


def test_scanner_and_per_word_sets_share_no_rule():
    stats_source = (PACKAGE / "stats.py").read_text()
    genfun_source = (PACKAGE / "genfun.py").read_text()
    verify_source = (PACKAGE / "verify.py").read_text()
    perm_source = (PACKAGE / "perm.py").read_text()
    assert "def scanner(" in stats_source and "def _lcm_terms(" in stats_source
    assert "def brute_distribution(" in genfun_source
    assert "class SweepCaches:" in verify_source and "def suite_theorem(" in verify_source
    assert "def _joint_descents(" in perm_source and "def _class_walk(" in perm_source
    assert _crossings(stats_source, genfun_source, verify_source, perm_source) == []


def test_the_check_sees_a_crossing():
    stats_source = (
        "def des_set(word, widths):\n"
        "    return scanner('des', len(word), widths)\n"
        "def inv_set(word, widths):\n"
        "    return sorted(word)\n"
        "def scanner(statistic, n, widths):\n"
        "    return _lcm_terms(widths, n)\n"
        "def inv(word, widths):\n"
        "    return scanner('inv', len(word), widths)\n"
    )
    genfun_source = (
        "def brute_distribution(n, statistic, widths):\n"
        "    return stats.scanner(statistic, n, widths)\n"
        "def t_polynomial(n):\n"
        "    return stats.scanner('des', n, 1)\n"
        "count = scanner\n"
    )
    verify_source = (
        "class SweepCaches:\n"
        "    def dist(self, n):\n"
        "        return stats.scanner('des', n, 1)\n"
        "def suite_theorem(top, caches):\n"
        "    return scanner\n"
    )
    perm_source = (
        "def _joint_descents(n, pats):\n"
        "    return stats.scanner('des', n, 1)\n"
        "def _class_walk(n, pats):\n"
        "    return stats.scanner('des', n, 2)\n"
        "def _sn_dp(n, w, allowed=None):\n"
        "    return [scanner for _ in range(n)]\n"
    )
    assert _crossings(stats_source, genfun_source, verify_source, perm_source) == [
        "stats.py:2: des_set names scanner",
        "stats.py:6: scanner names _lcm_terms",
        "genfun.py:4: scanner",
        "genfun.py:5: scanner",
        "perm.py:4: scanner",
        "perm.py:6: scanner",
        "verify.py:3: scanner",
        "verify.py:5: scanner",
    ]


def _filter_crossings(perm_source: str) -> list[str]:
    # perm's own module-level names are its helpers
    body = ast.parse(perm_source).body
    functions = {node.name: node for node in body if isinstance(node, ast.FunctionDef)}
    defined = set(functions) | {
        target.id
        for node in body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    walk_names = {name for _, name in _names(functions["_class_walk"])}
    found = [
        f"perm.py:{line}: _allowed names {name}"
        for line, name in _names(functions["_allowed"])
        if name in ("_class_walk", "_gap") or name in defined & walk_names
    ]
    found += [
        f"perm.py:{line}: _class_walk names _allowed"
        for line, name in _names(functions["_class_walk"])
        if name == "_allowed"
    ]
    return sorted(found)


def test_the_filter_and_the_walk_share_no_rule():
    perm_source = (PACKAGE / "perm.py").read_text()
    assert "def _allowed(" in perm_source and "def _class_walk(" in perm_source
    assert _filter_crossings(perm_source) == []


def test_the_filter_check_sees_a_crossing():
    perm_source = (
        "_WIDTH = 3\n"
        "def _gap(pattern, s, n):\n"
        "    return s\n"
        "def _class_walk(n, pats):\n"
        "    fold = [_gap(p, 0, n) for p in pats]\n"
        "    return _WIDTH, fold, _allowed(n, pats)\n"
        "def _allowed(n, pats):\n"
        "    rules = _gap(pats[0], 0, n)\n"
        "    return rules, _WIDTH, _class_walk\n"
    )
    assert _filter_crossings(perm_source) == [
        "perm.py:6: _class_walk names _allowed",
        "perm.py:8: _allowed names _gap",
        "perm.py:9: _allowed names _WIDTH",
        "perm.py:9: _allowed names _class_walk",
    ]
