"""
Seeded operation lists for the benchmark workloads, and the checks on their outputs.

Every workload is a fixed list of templates.  A template fixes what drives an
operation's cost: subcommand, n, statistic, widths, route, and the pattern set
up to complement.  Its variants differ only in what leaves the cost alone:
the output format, and a pattern set or its complement (complementing maps
the prefix tree of an avoidance walk onto itself, so both walk the same number
of prefixes).  `--seed` picks one variant per template and the order of the
templates, so two seeds run different inputs of the same cost.  Moving n
would not do: `closed_inv_k(70, 2)` costs three times `closed_inv_k(71, 2)`.
The variants come from a fixed master seed, which lets `freeze.py` record the
sha256 of every variant's exact output once, at a known-good commit.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import dataclass

WORKLOADS = ("verify-all", "formula-large", "queries")
VARIANTS = 3


@dataclass(frozen=True)
class Op:
    """One `widthk` invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    count: int | None = None  # expected poly(1) of a formula result
    same_as_previous: bool = False  # result must equal the previous op's

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _perm_text(word) -> str:
    return ("," if len(word) > 9 else "").join(map(str, word))


def _patterns(rng: random.Random, length: int, count: int) -> str:
    pool = [_perm_text(p) for p in itertools.permutations(range(1, length + 1))]
    return ",".join(sorted(rng.sample(pool, count)))


def _widths(rng: random.Random, n: int, size: int) -> str:
    return ",".join(map(str, sorted(rng.sample(range(1, n), size))))


FORMATS = ("plain", "json", "csv")


def _format(rng: random.Random) -> tuple[str, ...]:
    return ("--format", rng.choice(FORMATS))


def _complement(patterns: str) -> str:
    return ",".join(sorted(
        "".join(str(len(p) + 1 - int(c)) for c in p) for p in patterns.split(",")
    ))


def _pattern_variants(rng: random.Random, patterns: str, make) -> list[list["Op"]]:
    # Alternate the pattern set and its complement; every variant draws a format.
    return [
        [make(patterns if i % 2 == 0 else _complement(patterns), _format(rng))]
        for i in range(VARIANTS)
    ]


# ---------------------------------------------------------------------------
# queries: many small in-process calls across every subcommand but verify

def _stat(rng: random.Random, small: bool) -> Op:
    n = rng.randint(3, 6 if small else 12)
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return Op((
        "stat", "--perm", _perm_text(word), "--widths",
        _widths(rng, n, rng.randint(1, min(3, n - 1))),
        "--stat", rng.choice(("des", "inv", "exc", "maj")), *_format(rng),
    ))


def _gf_template(rng: random.Random, n: int, pattern_len: int) -> list[list[Op]]:
    stat = rng.choice(("des", "inv", "exc", "maj"))
    if rng.random() < 0.4:
        widths = ("--widths", _widths(rng, n, 2))
    else:
        widths = ("--width", str(rng.randint(1, n - 1)))
    method = rng.choice(("brute", "all"))
    patterns = _patterns(rng, pattern_len or 3, rng.randint(1, 2))

    def make(pats: str, fmt: tuple[str, ...]) -> Op:
        avoid = ("--avoid", pats) if pattern_len else ()
        return Op(("gf", "--n", str(n), "--stat", stat, *widths, *avoid,
                   "--method", method, *fmt))

    return _pattern_variants(rng, patterns, make)


def _avoid_template(rng: random.Random, n: int, pattern_len: int) -> list[list[Op]]:
    members = ("--members",) if n <= 7 and rng.random() < 0.3 else ()
    patterns = _patterns(rng, pattern_len, rng.randint(1, 2))

    def make(pats: str, fmt: tuple[str, ...]) -> Op:
        return Op(("avoid", "--n", str(n), "--patterns", pats, *members, *fmt))

    return _pattern_variants(rng, patterns, make)


def _tpoly_template(rng: random.Random, n: int, pattern_len: int) -> list[list[Op]]:
    patterns = _patterns(rng, 3, 1)

    def make(pats: str, fmt: tuple[str, ...]) -> Op:
        avoid = ("--avoid", pats) if pattern_len else ()
        return Op(("tpoly", "--n", str(n), *avoid, *fmt))

    return _pattern_variants(rng, patterns, make)


def _gtable_template(rng: random.Random, n: int, pattern_len: int) -> list[list[Op]]:
    return [[Op(("gtable", "--n", str(n), *_format(rng)))] for _ in range(VARIANTS)]


_QUERY_TEMPLATES = {
    "gf": _gf_template, "avoid": _avoid_template,
    "tpoly": _tpoly_template, "gtable": _gtable_template,
}


# (subcommand, n, pattern length, templates per pass); n and pattern length
# set the cost, so a seed cannot move them.
_QUERY_SHAPES = (
    ("gf", 5, 0, 10), ("gf", 5, 3, 10), ("gf", 5, 4, 10),
    ("gf", 6, 0, 9), ("gf", 6, 3, 9), ("gf", 6, 4, 8),
    ("gf", 7, 0, 4), ("gf", 7, 3, 4), ("gf", 7, 4, 3),
    ("gf", 8, 0, 2), ("gf", 8, 3, 1),
    ("avoid", 6, 3, 4), ("avoid", 6, 4, 6), ("avoid", 7, 3, 2), ("avoid", 7, 4, 3),
    ("avoid", 8, 3, 1), ("avoid", 8, 4, 1),
    ("tpoly", 4, 0, 2), ("tpoly", 5, 3, 2), ("tpoly", 6, 0, 2), ("tpoly", 6, 3, 2),
    ("tpoly", 7, 0, 2), ("tpoly", 7, 3, 2),
    ("gtable", 5, 0, 5), ("gtable", 6, 0, 5), ("gtable", 7, 0, 4), ("gtable", 8, 0, 1),
)
_QUERY_STATS = 150

_SMALL_QUERY_SHAPES = (
    ("gf", 5, 0, 2), ("gf", 5, 4, 2), ("avoid", 6, 4, 1), ("tpoly", 4, 0, 1),
    ("gtable", 5, 0, 1),
)
_SMALL_QUERY_STATS = 5


def _query_universe(small: bool) -> list[list[list[Op]]]:
    rng = random.Random(f"widthk-bench-queries-{small}")
    templates = []
    for _ in range(_SMALL_QUERY_STATS if small else _QUERY_STATS):
        templates.append([[_stat(rng, small)] for _ in range(VARIANTS)])
    for command, n, pattern_len, count in _SMALL_QUERY_SHAPES if small else _QUERY_SHAPES:
        for _ in range(count):
            templates.append(_QUERY_TEMPLATES[command](rng, n, pattern_len))
    return templates


# ---------------------------------------------------------------------------
# formula-large: gf by the closed and recursion routes at large n

_AVOID = {
    "rec_312": "312", "rec_123_132": "123,132", "rec_123_312": "123,312",
    "rec_132_213": "132,213",
}


def _class_size(route: str, n: int) -> int:
    if route.startswith("closed_") and route != "closed_inv_132_312":
        return math.factorial(n)
    if route == "rec_312":
        return math.comb(2 * n, n) // (n + 1)
    if route == "rec_123_312":
        return math.comb(n, 2) + 1
    return 2 ** (n - 1)


def _formula_ops(route: str, n: int, k: int, variant: int) -> list[Op]:
    gf = ("gf", "--n", str(n))
    fmt = ("--format", FORMATS[variant % len(FORMATS)])
    if route in ("closed_des_k", "closed_inv_k"):
        stat = route.split("_")[1]
        return [Op((*gf, "--stat", stat, "--width", str(k), "--method", "closed", *fmt),
                   count=_class_size(route, n))]
    if route == "closed_inv_132_312":
        # des over the width set {k, 2k, ...} is inv_k word by word, so the
        # product formula must reproduce the closed inversion form.  Both
        # classes below share both formulas.
        size = _class_size(route, n)
        avoid = ("--avoid", ("132,312", "132,231")[variant % 2])
        multiples = ",".join(str(w) for w in range(k, n, k))
        return [
            Op((*gf, "--stat", "inv", "--width", str(k), *avoid, "--method", "closed", *fmt),
               count=size),
            Op((*gf, "--stat", "des", "--widths", multiples, *avoid, "--method", "closed",
                *fmt), count=size, same_as_previous=True),
        ]
    return [Op((*gf, "--stat", "des", "--width", str(k), "--avoid", _AVOID[route],
                "--method", "recursion", *fmt), count=_class_size(route, n))]


# (route, k, n); closed_inv_132_312 also runs the product formula at K = {k, 2k, ...}.
# The 27 ops put three recursion calls of 70-130 ms at the median, so the
# median does not hop between cost clusters as the variants change.
_FORMULA_SHAPES = (
    ("closed_des_k", 1, 80), ("closed_des_k", 2, 110), ("closed_des_k", 3, 120),
    ("closed_des_k", 4, 118), ("closed_des_k", 5, 100),
    ("closed_inv_k", 1, 45), ("closed_inv_k", 2, 70), ("closed_inv_k", 2, 71),
    ("closed_inv_k", 3, 90), ("closed_inv_k", 5, 110),
    ("closed_inv_132_312", 1, 80), ("closed_inv_132_312", 2, 110),
    ("closed_inv_132_312", 3, 120),
    ("rec_312", 1, 50), ("rec_312", 2, 70), ("rec_312", 3, 90),
    ("rec_123_132", 1, 120), ("rec_123_132", 2, 100), ("rec_123_132", 3, 120),
    ("rec_123_312", 2, 120), ("rec_123_312", 5, 120),
    ("rec_132_213", 2, 100), ("rec_132_213", 3, 120), ("rec_132_213", 4, 110),
)


def _formula_universe(small: bool) -> list[list[list[Op]]]:
    return [
        [_formula_ops(route, n // 8 if small else n, k, i) for i in range(VARIANTS)]
        for route, k, n in _FORMULA_SHAPES
    ]


# ---------------------------------------------------------------------------
# verify-all: the full cross-check, one subprocess per operation

def universe(workload: str, small: bool = False) -> list[list[list[Op]]]:
    """Templates -> variants -> the ops one variant runs, in order."""
    if workload == "queries":
        return _query_universe(small)
    if workload == "formula-large":
        return _formula_universe(small)
    if workload == "verify-all":
        return [[[Op(("verify", "--suite", "example" if small else "all"))]]]
    raise ValueError(f"unknown workload {workload!r}")


def build_ops(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The operation list of one pass: a variant per template, in seeded order."""
    rng = random.Random(seed)
    chosen = [variants[rng.randrange(len(variants))] for variants in universe(workload, small)]
    rng.shuffle(chosen)
    return [op for ops in chosen for op in ops]


# ---------------------------------------------------------------------------
# checks

def digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


_REPORT = re.compile(r"^\[([a-z-]+)\] (\S+)  \(", re.M)
_SUMMARY = re.compile(r"^\d+ verified, 0 mismatched, ", re.M)


def verify_pairs(stdout: str) -> list[list[str]]:
    """The (identity, status) pairs of a plain-format verify report."""
    return [[identity, status] for status, identity in _REPORT.findall(stdout)]


def _poly_terms(op: Op, stdout: str) -> list[list[int]]:
    """The (exponent, coefficient) pairs of a single-route gf output."""
    fmt = op.argv[op.argv.index("--format") + 1]
    if fmt == "json":
        return json.loads(stdout)["results"][0]["poly"]["terms"]
    if fmt == "csv":
        rows = stdout.splitlines()[1:]
        return [[int(e), int(c)] for _, e, c in (row.split(",") for row in rows)]
    terms = []
    for term in stdout.split(": ", 1)[1].strip().split(" + "):
        if "q" not in term:
            terms.append([0, int(term)])
            continue
        coeff, _, power = term.partition("q")
        terms.append([int(power.lstrip("^") or 1), int(coeff.rstrip("*") or 1)])
    return terms


def check(op: Op, code: int, stdout: str, expected: dict, previous: str | None) -> str | None:
    """None when the output is right, else a one-line reason."""
    if op.argv[0] == "verify":
        if code != 0:
            return f"exit code {code}"
        if not _SUMMARY.search(stdout):
            return "summary does not read '0 mismatched'"
        if verify_pairs(stdout) != expected["verify"][op.argv[2]]:
            return "identity statuses differ from the frozen list"
        return None
    want = expected["outputs"].get(op.key)
    if want is None:
        return "no frozen output hash"
    if digest(code, stdout) != want:
        return "output hash differs from the frozen one"
    if op.count is not None:
        terms = _poly_terms(op, stdout)
        if sum(c for _, c in terms) != op.count:
            return f"poly(1) is not the class size {op.count}"
        if op.same_as_previous and (
            previous is None or _poly_terms(op, previous) != terms
        ):
            return "des over multiples of k differs from closed inv_k"
    return None
