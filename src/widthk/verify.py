"""
The verification engine: each suite checks identity families over a swept
range, comparing the routes of `genfun` with the distributions that `perm`
enumerates, read once per run through `SweepCaches.dist`.  Only `verify` and
the library's `run_suite` load this module.  Routes are looked up as
attributes of `genfun`, `perm` and `poly`, never copied at import, so a route
replaced there is the route a suite runs.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Callable, Iterable, Iterator, Sequence

from . import genfun, perm, poly, stats
from .errors import EnumerationCapError, InvalidInputError
from .poly import LaurentPoly, MultiPoly


# ---------------------------------------------------------------------------
# verification reports

_STATUSES = ("verified", "mismatch", "not-applicable")


class VerificationReport(
    namedtuple("VerificationReport", "identity range status counterexample notes")
):
    """
    Outcome of checking one identity family over a swept parameter range: an
    immutable 5-tuple, equal to the plain tuple of its fields.  Construction
    checks the status and counterexample; `_make` and `_replace` do not.
    A mismatch report holds its counterexample as a dict, so it is
    unhashable: only reports of the other statuses go into sets or dict keys.
    """

    __slots__ = ()

    def __new__(
        cls,
        identity: str,
        range: str,
        status: str,
        counterexample: dict | None = None,
        notes: tuple[str, ...] = (),
    ) -> VerificationReport:
        if status not in _STATUSES:
            raise InvalidInputError(f"unknown status {status!r}")
        if (status == "mismatch") != (counterexample is not None):
            raise InvalidInputError(
                "mismatch reports carry a counterexample; other statuses do not"
            )
        return super().__new__(cls, identity, range, status, counterexample, notes)

    def to_json(self) -> dict:
        out: dict = {
            "identity": self.identity,
            "range": self.range,
            "status": self.status,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _encode(value):
    if isinstance(value, (LaurentPoly, MultiPoly)):
        return value.to_json()
    if isinstance(value, tuple):
        return list(value)
    return value


def _counterexample(params: dict, lhs, rhs) -> dict:
    return {
        "params": {key: _encode(v) for key, v in params.items()},
        "lhs": _encode(lhs),
        "rhs": _encode(rhs),
    }


#: One instance of an identity: its parameters, and the two sides that must agree.
Case = tuple[dict, object, object]


def _check(
    identity: str, swept: str, cases: Iterable[Case], notes: Sequence[str] = ()
) -> VerificationReport:
    # The one case runner every suite goes through.  Families sweep their
    # parameters in increasing order, so the first disagreeing case is the
    # smallest counterexample; a family that yields no case is never verified.
    checked = 0
    for params, lhs, rhs in cases:
        if lhs != rhs:
            bad = _counterexample(params, lhs, rhs)
            return VerificationReport(identity, swept, "mismatch", bad, tuple(notes))
        checked += 1
    if not checked:
        return VerificationReport(
            identity, swept, "not-applicable", notes=(f"no cases in {swept}", *notes)
        )
    return VerificationReport(identity, swept, "verified", notes=tuple(notes))


def _format_class(patterns: tuple[tuple[int, ...], ...]) -> str:
    if not patterns:
        return "S_n"
    return "Av(" + ",".join(perm.format_perm(p) for p in patterns) + ")"


# ---------------------------------------------------------------------------
# shared enumeration caches for suite runs

class SweepCaches:
    """
    Memo for the distributions that one run's suites compare.  Each is
    graded or counted once per run, on first request: each (n, class) is
    enumerated once, by packed keys, into its joint descent distribution,
    and each des/inv distribution is one grade of it.  Over S_n the DP over
    sets of filled positions counts each exc_k, maj_K and G[n,k] as one
    packed row, with no joint distribution behind it.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple, MultiPoly | LaurentPoly] = {}

    def t_poly(self, n: int, patterns: tuple[tuple[int, ...], ...]) -> MultiPoly:
        """Joint descent distribution over an avoidance class; () gives S_n."""
        key = (n, patterns)
        if key not in self._memo:
            self._memo[key] = genfun.t_polynomial(n, patterns)
        return self._memo[key]

    def dist(
        self,
        n: int,
        statistic: str,
        widths: tuple[int, ...],
        patterns: tuple[tuple[int, ...], ...] = (),
    ) -> LaurentPoly:
        """
        The distribution brute_distribution(n, statistic, widths, patterns)
        enumerates.  des and inv are counted over any class, maj over S_n,
        and exc and G (des_k - des_(n-k)) over S_n at one width; any other
        request raises InvalidInputError.
        """
        key = (n, statistic, widths, patterns)
        if key in self._memo:
            return self._memo[key]
        stats.normalize_widths(widths, n)  # the width checks of brute_distribution
        if statistic in ("des", "inv"):
            # grade by the indicator of the gaps counted: K itself for des_K,
            # and every multiple of a width in K for inv_K
            gaps = {m for k in widths for m in (range(k, n, k) if statistic == "inv" else [k])}
            dist = self.t_poly(n, patterns).grade([int(g in gaps) for g in range(1, n)])
        elif statistic == "maj" and not patterns:
            dist = perm._sn_majors(n, widths)
        elif statistic in ("exc", "G") and not patterns and len(widths) == 1:
            dist = (perm._sn_excedances if statistic == "exc" else perm._sn_g)(n, *widths)
        else:
            raise InvalidInputError(
                f"no {statistic!r} distribution at widths {widths} over "
                f"{_format_class(patterns)}: des and inv count over any class, "
                "maj over S_n, and exc and G over S_n at one width"
            )
        self._memo[key] = dist
        return dist


# ---------------------------------------------------------------------------
# verification suites
#
# Each suite declares its identity families as lazy generators of
# (params, lhs, rhs) cases and hands each one to _check.

_EXAMPLE_WORD = (4, 1, 3, 6, 5, 7, 2)
_EXAMPLE_WIDTHS = (2, 3)


def suite_example(top: int, caches: SweepCaches):
    """The worked statistics of 4136572 at width set {2, 3}."""
    word = _EXAMPLE_WORD
    widths = _EXAMPLE_WIDTHS
    swept = f"sigma={perm.format_perm(word)}, K={{2,3}}"
    params = {"sigma": perm.format_perm(word)}
    descents = stats.des_set(word, widths)
    pairs = stats.inv_set(word, widths)
    checks = (
        (
            "example[des]",
            {"count": len(descents), "multiset": list(descents)},
            {"count": 3, "multiset": [1, 4, 5]},
        ),
        (
            "example[inv]",
            {"count": len(pairs), "pairs": [list(p) for p in pairs]},
            {"count": 5, "pairs": [[1, 3], [1, 7], [3, 7], [4, 7], [5, 7]]},
        ),
        ("example[exc]", stats.exc(word, widths), 4),
        ("example[maj]", stats.maj(word, widths), 6),
    )
    return [_check(identity, swept, [(params, got, want)]) for identity, got, want in checks]


def suite_theorem(top: int, caches: SweepCaches):
    """Brute-force des_k and inv_k over S_n against their closed forms."""
    swept = f"2<=n<={top}, 1<=k<=n-1"

    def cases(statistic: str, closed: Callable[[int, int], LaurentPoly]) -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                yield {"n": n, "k": k}, caches.dist(n, statistic, (k,)), closed(n, k)

    return [
        _check("theorem[des]", swept, cases("des", genfun.closed_des_k)),
        _check("theorem[inv]", swept, cases("inv", genfun.closed_inv_k)),
    ]


def _width_subsets(n: int, max_size: int | None = None) -> Iterator[tuple[int, ...]]:
    # nonempty subsets of [n-1], by size then lexicographic order
    top = n - 1 if max_size is None else min(max_size, n - 1)
    for size in range(1, top + 1):
        yield from itertools.combinations(range(1, n), size)


def suite_equidistribution(top: int, caches: SweepCaches):
    """
    des_k ~ exc_k and inv_k ~ maj_k for every n, k; des_k ~ inv_k once
    k >= n/2.  Also reports, without asserting, how inv and maj compare on
    width sets of size >= 2, where no equidistribution is claimed.
    """
    swept = f"2<=n<={top}, 1<=k<=n-1"

    def cases(left: str, right: str, least_k=lambda n: 1) -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(least_k(n), n):
                yield {"n": n, "k": k}, caches.dist(n, left, (k,)), caches.dist(n, right, (k,))

    reports = [
        _check("equidistribution[des=exc]", swept, cases("des", "exc")),
        _check("equidistribution[inv=maj]", swept, cases("inv", "maj")),
        _check(
            "equidistribution[des=inv|2k>=n]",
            swept,
            cases("des", "inv", least_k=lambda n: (n + 1) // 2),
        ),
    ]

    info_top = min(top, 7)
    width_sets = [(n, K) for n in range(2, info_top + 1) for K in _width_subsets(n) if len(K) >= 2]
    agree = [caches.dist(n, "inv", K) == caches.dist(n, "maj", K) for n, K in width_sets]
    equal, total = sum(agree), len(agree)
    first_diff = next((pair for pair, same in zip(width_sets, agree) if not same), None)
    note = (
        "informational: equality of inv and maj distributions is only claimed "
        f"for single widths; over width sets of size >= 2 with n<={info_top}, "
        f"{equal} of {total} (n, K) cases agree"
    )
    if first_diff is not None:
        n0, k0 = first_diff
        note += f"; first difference at n={n0}, K={{{','.join(map(str, k0))}}}"
    reports.append(
        VerificationReport(
            "equidistribution[inv_K=maj_K|info]",
            f"2<=n<={info_top}, K subsets of [n-1] with |K|>=2",
            "not-applicable",
            notes=(note,),
        )
    )
    return reports


def suite_inclusion_exclusion(top: int, caches: SweepCaches):
    """
    inv over a width set equals the alternating sum of single-width inv
    counts at subset lcms (terms with lcm >= n vanish), for every
    permutation; includes the worked 4 + 2 - 1 = 5 instance.
    """

    word = _EXAMPLE_WORD
    parts = {k: stats.inv(word, k) for k in (2, 3, 6)}
    routes = {
        "direct": stats.inv(word, _EXAMPLE_WIDTHS),
        "alternating": parts[2] + parts[3] - parts[6],
        "by_lcm": stats.inv_by_lcm(word, _EXAMPLE_WIDTHS),
    }
    example = [
        ({"sigma": perm.format_perm(word), "K": [2, 3], "route": route}, value, 5)
        for route, value in routes.items()
    ]

    def sweep() -> Iterator[Case]:
        # Both sides are linear in (des_1, ..., des_(n-1)), so checking each
        # exponent vector of the memoized joint distribution covers every
        # sigma.  All K of a vector are compared at once, as one case; only a
        # vector whose lists differ is split into its (n, K, des_g) cases, in
        # K order, so the runner still reports the first disagreeing one.
        for n in range(2, top + 1):
            subsets = list(_width_subsets(n, max_size=3))
            # per K, the indices g-1 of the gaps g counted by inv_K
            unions = [sorted({m - 1 for k in K for m in range(k, n, k)}) for K in subsets]
            # per K, the lcms < n of its odd- and of its even-sized subsets
            terms = [stats._lcm_terms(K, n) for K in subsets]
            signed = [([l for s, l in t if s > 0], [l for s, l in t if s < 0]) for t in terms]
            every_k = {"n": n}
            for exps, _ in caches.t_poly(n, ()).terms():
                at = [0, *(sum(exps[g - 1 :: g]) for g in range(1, n))].__getitem__
                lhs = [sum(map(exps.__getitem__, u)) for u in unions]
                rhs = [sum(map(at, odd)) - sum(map(at, even)) for odd, even in signed]
                if lhs == rhs:
                    yield every_k, lhs, rhs
                    continue
                for K, a, b in zip(subsets, lhs, rhs):
                    yield {"n": n, "K": K, "des_g": list(exps)}, a, b

    return [
        _check(
            "inclusion-exclusion[example]",
            f"sigma={perm.format_perm(word)}, K={{2,3}}",
            example,
            notes=(f"inv_2={parts[2]}, inv_3={parts[3]}, inv_6={parts[6]}",),
        ),
        _check(
            "inclusion-exclusion[sweep]",
            f"2<=n<={top}, K subsets of [n-1] with |K|<=3, all sigma",
            sweep(),
        ),
    ]


# Factored reference forms (coefficient, shift, Eulerian index, power) for
# the signed descent difference at n = 6, 8, 9.  The n = 9 rows are usually
# labeled with A_9; the entries themselves equal 9*q^(1-k)*A_8(q), which is
# what coefficient totals force (9*A_8(1) = 9!), so A_8 appears here.
GTABLE_REFERENCE: dict[int, dict[int, tuple[int, int, int, int]]] = {
    6: {
        1: (6, 0, 5, 1),
        2: (180, 0, 2, 2),
        3: (720, 0, 1, 0),
        4: (180, -2, 2, 2),
        5: (6, -4, 5, 1),
    },
    8: {
        1: (8, 0, 7, 1),
        2: (1120, 0, 3, 2),
        3: (8, -2, 7, 1),
        4: (40320, 0, 1, 0),
        5: (8, -4, 7, 1),
        6: (1120, -4, 3, 2),
        7: (8, -6, 7, 1),
    },
    9: {
        1: (9, 0, 8, 1),
        2: (9, -1, 8, 1),
        3: (45360, 0, 2, 3),
        4: (9, -3, 8, 1),
        5: (9, -4, 8, 1),
        6: (45360, -3, 2, 3),
        7: (9, -6, 8, 1),
        8: (9, -7, 8, 1),
    },
}

_GTABLE_A9_NOTE = (
    "informational: the n=9 rows are checked against 9*q^(1-k)*A_8(q); "
    "quoted factorizations label them with A_9, but coefficient totals rule "
    "that out (9*A_9(1) != 9!)"
)


def suite_gtable(top: int, caches: SweepCaches):
    """
    Every reference entry for the signed descent difference at n=6,8,9; a
    row above top has no cases and reports not-applicable.
    """

    def cases(n: int) -> Iterator[Case]:
        for k, shape in GTABLE_REFERENCE[n].items():
            params = {"n": n, "k": k, "form": genfun.format_factored(*shape)}
            yield params, caches.dist(n, "G", (k,)), genfun.factored_form(*shape)

    reports = []
    for n in sorted(GTABLE_REFERENCE):
        swept = f"n={n}, 1<=k<=n-1"
        if n > top:
            reports.append(_check(f"gtable[n={n}]", f"{swept}, n<={top}", ()))
        else:
            notes = (_GTABLE_A9_NOTE,) if n == 9 else ()
            reports.append(_check(f"gtable[n={n}]", swept, cases(n), notes))
    return reports


def suite_conjecture(top: int, caches: SweepCaches):
    """closed_g at every coprime (n, k), where it is n*q^(1-k)*A_(n-1)(q)."""

    def cases() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                if math.gcd(n, k) == 1:
                    yield {"n": n, "k": k}, caches.dist(n, "G", (k,)), genfun.closed_g(n, k)

    return [
        _check(
            "conjecture[G=n*q^(1-k)*A_(n-1)]",
            f"2<=n<={top}, 1<=k<=n-1 with gcd(k,n)=1",
            cases(),
        )
    ]


def _small_pattern_classes() -> list[tuple[tuple[int, ...], ...]]:
    singles = [tuple(p) for p in itertools.permutations((1, 2, 3))]
    classes: list[tuple[tuple[int, ...], ...]] = [()]
    classes.extend((p,) for p in singles)
    classes.extend(itertools.combinations(singles, 2))
    return classes


#: The pairs from S_3 whose classes have C(n,2) + 1 members.
_QUADRATIC_PAIRS = {
    ((1, 2, 3), (2, 3, 1)),
    ((1, 2, 3), (3, 1, 2)),
    ((1, 3, 2), (3, 2, 1)),
    ((2, 1, 3), (3, 2, 1)),
}


def _class_size(n: int, patterns: tuple[tuple[int, ...], ...]) -> int:
    # |Av_n(P)| for P a set of at most two patterns from S_3 (Simion and
    # Schmidt, 1985): an independent count for the enumerated classes.
    if len(patterns) < 2:
        return poly.catalan(n) if patterns else math.factorial(n)
    if patterns == ((1, 2, 3), (3, 2, 1)):
        return (1, 1, 2, 4, 4)[n] if n < 5 else 0
    if patterns in _QUADRATIC_PAIRS:
        return math.comb(n, 2) + 1
    return 2 ** max(n - 1, 0)


DUALITY_MODES = ("reverse", "complement", "reverse-complement")


def _duality_sides(
    caches: SweepCaches, n: int, patterns: tuple[tuple[int, ...], ...], mode: str
) -> tuple[MultiPoly, MultiPoly]:
    # Reversing or complementing every pattern reflects each joint exponent
    # e_k to (n-k) - e_k; doing both leaves the joint distribution unchanged.
    # Returns the image class's joint distribution and what it must equal.
    if mode == "reverse":
        image = [perm.reverse(p) for p in patterns]
    elif mode == "complement":
        image = [perm.complement(p) for p in patterns]
    else:
        image = [perm.complement(perm.reverse(p)) for p in patterns]
    expected = caches.t_poly(n, patterns)
    if mode != "reverse-complement":
        expected = expected.reflect(tuple(n - k for k in range(1, n)))
    return caches.t_poly(n, perm.check_patterns(image)), expected


def suite_duality(top: int, caches: SweepCaches):
    """
    The reflect dualities of the joint descent distribution over every
    pattern class from S_3 of size <= 2, plus their single-width corollaries
    relating 123 to 321 and 132, 213, 231, 312 to one another.
    """
    multi_top = min(top, 7)
    classes = _small_pattern_classes()

    def joint(mode: str) -> Iterator[Case]:
        for n in range(1, multi_top + 1):
            for pats in classes:
                actual, expected = _duality_sides(caches, n, pats, mode)
                yield {"n": n, "patterns": [perm.format_perm(p) for p in pats]}, actual, expected

    def twins_123_321() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                f123 = caches.dist(n, "des", (k,), ((1, 2, 3),))
                f321 = caches.dist(n, "des", (k,), ((3, 2, 1),))
                yield {"n": n, "k": k}, f123, f321.inverse_q().shift(n - k)

    def twins_132_213_231_312() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                f132, f213, f231, f312 = (
                    caches.dist(n, "des", (k,), (p,))
                    for p in ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2))
                )
                links = (
                    ("132=213", f132, f213),
                    ("132=q^(n-k)*231(1/q)", f132, f231.inverse_q().shift(n - k)),
                    ("231=312", f231, f312),
                )
                for label, lhs, rhs in links:
                    yield {"n": n, "k": k, "link": label}, lhs, rhs

    joint_range = f"1<=n<={multi_top}, all pattern sets from S_3 of size <= 2"
    swept = f"2<=n<={top}, 1<=k<=n-1"
    return [
        *(_check(f"duality[{mode}]", joint_range, joint(mode)) for mode in DUALITY_MODES),
        _check("duality[univariate:123~321]", swept, twins_123_321()),
        _check("duality[univariate:132~213~231~312]", swept, twins_132_213_231_312()),
    ]


def suite_avoidance(top: int, caches: SweepCaches):
    """
    Every avoidance-class formula against brute force: the four recursions,
    the two width-set products, the closed inversion form, the 312 degree
    formulas, and the q=1 specializations to C_n and 2^(n-1).
    """
    multi_top = min(top, 8)

    def recursion(pats, fn) -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                yield {"n": n, "k": k}, fn(n, k), caches.dist(n, "des", (k,), pats)

    def product(pats, fn) -> Iterator[Case]:
        for n in range(2, multi_top + 1):
            for K in _width_subsets(n):
                yield {"n": n, "K": K}, fn(n, K), caches.dist(n, "des", K, pats)

    def closed_inv() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                want = genfun.closed_inv_132_312(n, k)
                multiples = tuple(range(k, n, k))
                sides = (
                    ("inv over Av(132,312)", caches.dist(n, "inv", (k,), ((1, 3, 2), (3, 1, 2)))),
                    ("inv over Av(132,231)", caches.dist(n, "inv", (k,), ((1, 3, 2), (2, 3, 1)))),
                    ("product at K=multiples of k", genfun.product_132_312(n, multiples)),
                )
                for label, got in sides:
                    yield {"n": n, "k": k, "side": label}, got, want

    def degrees() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                actual = tuple(caches.dist(n, s, (k,), ((3, 1, 2),)).degree for s in ("des", "inv"))
                yield {"n": n, "k": k}, actual, (
                    genfun.des_degree_312(n, k), genfun.inv_degree_312(n, k)
                )

    def catalan_at_one() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                yield {"n": n, "k": k}, genfun.rec_312(n, k)(1), poly.catalan(n)

    def powers_of_two_at_one() -> Iterator[Case]:
        for n in range(2, top + 1):
            want = 2 ** (n - 1)
            for k in range(1, n):
                values = (
                    ("rec:123,132", genfun.rec_123_132(n, k)(1)),
                    ("rec:132,213", genfun.rec_132_213(n, k)(1)),
                    ("closed-inv:132,312", genfun.closed_inv_132_312(n, k)(1)),
                )
                for label, got in values:
                    yield {"n": n, "k": k, "formula": label}, got, want
            if n <= multi_top:
                for K in _width_subsets(n):
                    params = {"n": n, "K": K, "formula": "product:132,312"}
                    yield params, genfun.product_132_312(n, K)(1), want

    return [
        *(
            _check(
                f"avoidance[rec:{','.join(map(perm.format_perm, pats))}]",
                f"2<=n<={top}, 1<=k<=n-1, {_format_class(pats)}",
                recursion(pats, fn),
            )
            for pats, fn in genfun.RECURSIONS.items()
        ),
        *(
            _check(
                f"avoidance[product:{','.join(map(perm.format_perm, pats))}]",
                f"2<=n<={multi_top}, nonempty K subsets of [n-1], {_format_class(pats)}",
                product(pats, fn),
            )
            for pats, fn in genfun.PRODUCTS.items()
        ),
        _check(
            "avoidance[closed-inv:132,312|132,231]", f"2<=n<={top}, 1<=k<=n-1", closed_inv()
        ),
        _check("avoidance[degree:312]", f"2<=n<={top}, 1<=k<=n-1, Av(312)", degrees()),
        _check(
            "avoidance[catalan@1]", f"2<=n<={top}, 1<=k<=n-1, Av(312)", catalan_at_one()
        ),
        _check(
            "avoidance[2^(n-1)@1]",
            f"2<=n<={top}, all k and K (products to n<={multi_top})",
            powers_of_two_at_one(),
        ),
    ]


def suite_counting(top: int, caches: SweepCaches):
    """
    Class-size sanity: Catalan counts for single patterns from S_3, the
    empty class for {123, 321} past n = 4, and distributions evaluating at
    q = 1 to their domain sizes.
    """
    small_top = min(top, 7)

    def size(n: int, patterns) -> int:
        return caches.t_poly(n, patterns).at_ones()

    def catalan_counts() -> Iterator[Case]:
        for pattern in itertools.permutations((1, 2, 3)):
            for n in range(top + 1):
                params = {"n": n, "pattern": perm.format_perm(pattern)}
                yield params, size(n, (pattern,)), poly.catalan(n)

    def vanishing() -> Iterator[Case]:
        for n in range(5, top + 1):
            yield {"n": n}, size(n, ((1, 2, 3), (3, 2, 1))), 0

    def domain_sizes() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                routes = (("closed des", genfun.closed_des_k), ("closed inv", genfun.closed_inv_k))
                for label, closed in routes:
                    params = {"n": n, "k": k, "distribution": label}
                    yield params, closed(n, k)(1), math.factorial(n)
        for n in range(2, small_top + 1):
            for k in range(1, n):
                params = {"n": n, "k": k, "distribution": "signed descent difference"}
                yield params, caches.dist(n, "G", (k,))(1), math.factorial(n)
        for n in range(1, small_top + 1):
            for pats in _small_pattern_classes():
                params = {"n": n, "patterns": [perm.format_perm(p) for p in pats]}
                yield params, size(n, pats), _class_size(n, pats)

    return [
        _check(
            "counting[catalan]", f"0<=n<={top}, single patterns from S_3", catalan_counts()
        ),
        _check("counting[Av(123,321)-vanishes]", f"5<=n<={top}", vanishing()),
        _check(
            "counting[eval@1=domain-size]",
            f"closed forms 2<=n<={top}; signed difference and joint to n<={small_top}",
            domain_sizes(),
        ),
    ]


#: Suite registry in execution order; run_suite("all") walks it top to bottom.
SUITES: dict[str, Callable] = {
    "example": suite_example,
    "theorem": suite_theorem,
    "equidistribution": suite_equidistribution,
    "inclusion-exclusion": suite_inclusion_exclusion,
    "gtable": suite_gtable,
    "conjecture": suite_conjecture,
    "duality": suite_duality,
    "avoidance": suite_avoidance,
    "counting": suite_counting,
}


#: Each suite's default bound, which is also the largest n it enumerates.
#: A run at default bounds checks the largest of its suites' bounds against
#: the cap before any suite runs.
SUITE_NMAX: dict[str, int] = {
    "example": 0,
    "theorem": 8,
    "equidistribution": 8,
    "inclusion-exclusion": 7,
    "gtable": max(GTABLE_REFERENCE),
    "conjecture": 9,
    "duality": 8,
    "avoidance": 9,
    "counting": 8,
}


#: The contiguous tail of SUITES that `verify --suite all` hands to a forked
#: worker when a second CPU is free.  These suites walk avoidance classes and
#: share almost no memo entries with the S_n suites before them.
_WORKER_SUITES = ("duality", "avoidance", "counting")


def _run_suites(names: Sequence[str], n_max: int | None) -> Iterator[list[VerificationReport]]:
    # Check n_max, the names and the cap, in that order, before any suite
    # runs; then a lazy iterator over each suite's reports, sharing one memo.
    if n_max is not None:
        if n_max < 0:
            raise InvalidInputError(f"nmax must be >= 0, got {n_max}")
        if n_max > (cap := perm.enumeration_cap()):
            raise EnumerationCapError(
                f"nmax={n_max} exceeds enumeration cap {cap} (raise WIDTHK_MAX_N to override)"
            )
    for name in names:
        if name not in SUITES:
            choices = ", ".join([*SUITES, "all"])
            raise InvalidInputError(f"unknown suite {name!r}; choose from: {choices}")
    tops = [SUITE_NMAX[each] if n_max is None else n_max for each in names]
    perm.check_cap(max(tops))
    caches = SweepCaches()
    return (SUITES[each](top, caches) for each, top in zip(names, tops))


def suite_reports(name: str, n_max: int | None = None) -> Iterator[list[VerificationReport]]:
    """
    Check a run of one suite (or "all") and return a lazy iterator over each
    suite's report list, in SUITES order.  The name, n_max and the cap are
    all checked before any suite runs; each suite sweeps up to n_max, or by
    default up to its own SUITE_NMAX bound.  A run's suites share its memo.
    """
    return _run_suites(list(SUITES) if name == "all" else [name], n_max)


def run_suite(name: str, n_max: int | None = None) -> list[VerificationReport]:
    """Every report of suite_reports(name, n_max), in one list."""
    return [report for reports in suite_reports(name, n_max) for report in reports]
