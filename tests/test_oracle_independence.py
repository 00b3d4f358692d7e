"""The batch scanner and the per-word width sets stay separate routes.

The tests compare stats.scanner with des_set and inv_set, and
SweepCaches.dist with brute_distribution, which counts through the scanner.
A comparison checks something only while its two sides share no rule: in
stats, the per-word sets, inv_by_lcm and the lcm expansion never name the
scanner, nor the scanner them; in genfun, only brute_distribution names the
scanner."""

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


def _crossings(stats_source: str, genfun_source: str) -> list[str]:
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
    for node in ast.parse(genfun_source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "brute_distribution":
            continue
        found += [f"genfun.py:{line}: {name}" for line, name in _names(node) if name == "scanner"]
    return found


def test_scanner_and_per_word_sets_share_no_rule():
    stats_source = (PACKAGE / "stats.py").read_text()
    genfun_source = (PACKAGE / "genfun.py").read_text()
    assert "def scanner(" in stats_source and "def _lcm_terms(" in stats_source
    assert "def brute_distribution(" in genfun_source
    assert _crossings(stats_source, genfun_source) == []


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
        "class SweepCaches:\n"
        "    def dist(self, n):\n"
        "        return stats.scanner('des', n, 1)\n"
        "count = scanner\n"
    )
    assert _crossings(stats_source, genfun_source) == [
        "stats.py:2: des_set names scanner",
        "stats.py:6: scanner names _lcm_terms",
        "genfun.py:5: scanner",
        "genfun.py:6: scanner",
    ]
