"""
Generating functions of width-k statistics, and the verification engine.

Distributions arrive by three independent routes: enumeration, closed
product formulas, and recursions for particular avoidance classes.  The
verification suites sweep finite parameter ranges, compare each formula with
the distribution that `perm`'s S_n programs and class key walks enumerate
(`SweepCaches.dist`), and report the smallest offending parameters on any
mismatch.  `brute_distribution` scans every word instead: it is the route of
`gf --method brute`, and the tests' oracle for those kernels.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from typing import Callable, Iterable, Iterator, Sequence

from . import stats
from .errors import EnumerationCapError, InvalidInputError
from .perm import (
    _batches,
    _joint_descents,
    _sn_excedances,
    _sn_g,
    _sn_majors,
    check_cap,
    check_patterns,
    complement,
    enumeration_cap,
    format_perm,
    reverse,
)
from .poly import (
    LaurentPoly,
    MultiPoly,
    _slot_bits,
    _unpack,
    binomial_product,
    block_multinomial,
    catalan,
    compositions,
    eulerian_product,
    q_factorial_product,
)

Patterns = Iterable[Sequence[int]]


# ---------------------------------------------------------------------------
# enumeration scans

def brute_distribution(
    n: int,
    statistic: str,
    widths: stats.Widths = 1,
    patterns: Patterns = (),
) -> LaurentPoly:
    """
    The exact distribution polynomial of a width statistic over S_n, or over
    the class avoiding the given patterns.  This enumerates the whole domain
    in lists of about a thousand words (islice chunks of S_n, or the class
    walk's lists), and one `stats.scanner` counts each list, every word from
    its own letters.  It is the per-word route of `gf --method brute`, and
    the tests' oracle for the S_n programs and the class key walk that
    `verify` reads through `SweepCaches.dist`.

    >>> print(brute_distribution(3, "des"))
    1 + 4*q + q^2
    >>> print(brute_distribution(3, "des", 1, [(3, 1, 2)]))
    1 + 3*q + q^2
    """
    check_cap(n)  # the scanner's pair lists grow with n
    count = stats.scanner(statistic, n, widths)
    dist: Counter = Counter()
    for batch in _batches(n, patterns):
        dist.update(count(batch))
    return LaurentPoly(dist)


# ---------------------------------------------------------------------------
# closed forms over the full symmetric group

def _check_width(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"width must satisfy 1 <= k <= n-1, got k={k}, n={n}")


def closed_des_k(n: int, k: int) -> LaurentPoly:
    """
    Closed form of the width-k descent distribution over S_n: with n = dk+r,
    the multinomial weight times A_{d+1}(q)^r A_d(q)^{k-r}.

    Proof: sending sigma to the value sets of its residue blocks sigma[r::k]
    and to the standardized blocks is a bijection from S_n onto (ordered set
    partitions with the block sizes) x prod S_(m_r), and des_k (like inv_k,
    exc_k and maj_k) is the sum over blocks of the classical statistic.  With
    n = dk+r, r blocks have d+1 letters and k-r have d.  It is one packed
    integer (`eulerian_product`), with no polynomial product.

    >>> print(closed_des_k(6, 3))
    90 + 270*q + 270*q^2 + 90*q^3
    """
    _check_width(n, k)
    d, r = divmod(n, k)
    return eulerian_product([d + 1] * r + [d] * (k - r), block_multinomial(n, k))


def closed_inv_k(n: int, k: int) -> LaurentPoly:
    """
    Closed form of the width-k inversion distribution over S_n: with
    n = dk+r, the multinomial weight times [d+1]_q!^r [d]_q!^{k-r}, by the
    block bijection of `closed_des_k`.  It is one row of q-integer windows
    (`q_factorial_product`), with no polynomial product.

    >>> print(closed_inv_k(4, 2))  # 6 [2]_q!^2
    6 + 12*q + 6*q^2
    """
    _check_width(n, k)
    d, r = divmod(n, k)
    return q_factorial_product([d + 1] * r + [d] * (k - r), block_multinomial(n, k))


# ---------------------------------------------------------------------------
# joint distributions and the signed descent difference

def t_polynomial(n: int, patterns: Patterns = ()) -> MultiPoly:
    """
    Joint distribution of all width descents at once: each permutation in
    the class contributes the monomial t_1^(des_1) ... t_(n-1)^(des_(n-1)).
    Counted by packed keys without building a word: S_n by the DP over the
    sets of filled positions, an avoidance class by the pruned walk that
    lists it.  Subject to the enumeration cap.
    """
    check_cap(n)
    pats = check_patterns(patterns)
    return MultiPoly(tuple(f"t{g}" for g in range(1, n)), _joint_descents(n, pats))


def g_table(n: int) -> dict[int, LaurentPoly]:
    """
    G[n,k], the sum of q^(des_k - des_(n-k)) over S_n, for k = 1..n-1, each
    by a DP over the sets of filled positions (closed_g is the closed form).
    Subject to the enumeration cap.

    >>> print(g_table(4)[3])
    4*q^-2 + 16*q^-1 + 4
    """
    check_cap(n)
    return {k: _sn_g(n, k) for k in range(1, n)}


# ---------------------------------------------------------------------------
# avoidance-class formulas

def _check_recursion_args(n: int, k: int) -> None:
    if n < 0:
        raise InvalidInputError(f"n must be >= 0, got {n}")
    if k < 1:
        raise InvalidInputError(f"width must be >= 1, got {k}")


def rec_312(n: int, k: int) -> LaurentPoly:
    """
    Width-k descent distribution over the 312-avoiders.

    The paper's recursion on the position i of the letter 1 (Catalan-many
    prefixes contribute nothing for i <= k, while i > k splits the word and
    forces one extra descent) says that F = sum_m rec_312(m, k) x^m solves

        F = 1 + x (1 - q) P F + x q F^2,  P = C_0 + C_1 x + ... + C_(k-1) x^(k-1).

    So 2xqF = A - S, where A = 1 - x (1 - q) P and S = sqrt(D) with
    D = A^2 - 4xq, a polynomial of x-degree 2k whose coefficients d_j have
    q-degree at most 2.  Differentiating S^2 = D gives 2 D S' = D' S, that
    is, with s_0 = 1,

        2m s_m = sum_(j=1..2k) (3j - 2m) d_j s_(m-j),
        f_m = (a_(m+1) - s_(m+1)) / (2q).

    Both divisions are exact over the integers: S = A - 2xqF has integer
    coefficients because F counts words, so the sum is 2m times the integer
    polynomial s_m, and a_(m+1) - s_(m+1) is 2q f_m.  Words of length n <= k
    have no width-k descents, so k >= n gives the constant C_n at once, and
    the recurrence only runs with 2k < 2n terms.

    Every level is kept as one integer, s_m evaluated at q = 2^B, where a
    slot of B bits holds C_n.  Evaluation is a ring homomorphism, and both
    divisions are exact, so the recurrence holds for the values as it does
    for the polynomials, and each of a level's 2k terms costs a few products
    of a small integer by a big one.  The signed coefficients of s_m are
    never decoded: only F's coefficients, which lie in 0..C_n, must fit a
    slot of B bits to be read off at the end.

    >>> print(rec_312(3, 1))
    1 + 3*q + q^2
    >>> rec_312(4, 5)(1) == catalan(4)
    True
    """
    _check_recursion_args(n, k)
    if n <= k:
        return LaurentPoly({0: catalan(n)})
    # A = 1 + sum_(j=1..k) C_(j-1) (q - 1) x^j, so d_j, as its coefficients
    # of q^0, q^1, q^2, is u_j (q - 1)^2 + 2 c_j (q - 1) - 4q [j = 1], where
    # c_j = C_(j-1) for j <= k (else 0) and u_j is the sum of C_(i-1) C_(j-i-1)
    # over 1 <= i <= k with 1 <= j - i <= k
    cat = [catalan(i) for i in range(k)]
    d = []
    for j in range(1, 2 * k + 1):
        pairs = range(max(1, j - k), min(k, j - 1) + 1)
        u = sum(cat[i - 1] * cat[j - i - 1] for i in pairs)
        c = cat[j - 1] if j <= k else 0
        d.append((u - 2 * c, 2 * c - 2 * u - 4 * (j == 1), u))
    slot = _slot_bits(catalan(n).bit_length())
    s = [1]
    for m in range(1, n + 2):
        # one sum per power of q in d_j, shifted into place once
        x0 = x1 = x2 = 0
        for j, (d0, d1, d2) in enumerate(d[:m], 1):
            t = (3 * j - 2 * m) * s[m - j]
            x0 += d0 * t
            x1 += d1 * t
            x2 += d2 * t
        s.append((x0 + (x1 << slot) + (x2 << 2 * slot)) // (2 * m))
    # a_(n+1) = 0 because n > k, so F = -s_(n+1) / (2q)
    f = (-s[n + 1]) >> (slot + 1)
    return LaurentPoly._row(_unpack(f, slot))


def rec_123_132(n: int, k: int) -> LaurentPoly:
    """
    Width-k descent distribution over the {123, 132}-avoiders.  A member is
    a skew sum of blocks (v-1)(v-2)...(v-c+1)v, one per part c of a
    composition of n (Simion and Schmidt 1985).  Letters k apart in
    different blocks form a descent, and a block of c > k letters holds
    c - k such pairs, all descents but the one ending at v.  So for n > k,
    des_k = n - k - (the number of parts > k).

    >>> print(rec_123_132(5, 2))
    8*q^2 + 8*q^3
    """
    _check_recursion_args(n, k)
    if n <= k:
        return LaurentPoly({0: 2 ** max(n - 1, 0)})
    return compositions(n, [0] * k, 1).inverse_q().shift(n - k)


def rec_123_312(n: int, k: int) -> LaurentPoly:
    """
    Width-k descent distribution over the {123, 312}-avoiders.  The letter 1
    at i < m freezes a word of length m with des_k = max(0, m-k-i) for i <= k
    and max(m-2k, i-k) for k < i < m; only i = m recurses, adding a descent.
    So level n is q^(n-k) times level k, the class size C(k,2) + 1, plus the
    bare powers of each level m > k times q^(n-m), in one row from q^0.  Each
    range of i puts one power on every q^e with max(1, m-2k) <= e < m-k.
    """
    _check_recursion_args(n, k)
    if n <= k:  # the class size |Av_n(123,312)|
        return LaurentPoly({0: math.comb(n, 2) + 1})
    row = [0] * (n - k + 1)
    row[n - k] = math.comb(k, 2) + 1
    for m in range(k + 1, n + 1):
        s = n - m  # level m reaches level n times q^(n-m)
        if m <= 2 * k:  # the letter 1 at m-k <= i <= k, on q^0
            row[s] += 2 * k + 1 - m
        else:  # the letter 1 at k < i < m-k, on q^(m-2k)
            row[s + m - 2 * k] += m - 2 * k - 1
        low = s + max(1, m - 2 * k)
        row[low : n - k] = [c + 2 for c in row[low : n - k]]  # both ranges
    return LaurentPoly._row(row)


def rec_132_213(n: int, k: int) -> LaurentPoly:
    """
    Width-k descent distribution over the {132, 213}-avoiders.  A member is
    a skew sum of increasing blocks, one per part c of a composition of n
    (Simion and Schmidt 1985), so for n > k, des_k is the sum of min(c, k)
    over the parts, less k.

    >>> print(rec_132_213(5, 2))
    1 + 2*q + 5*q^2 + 8*q^3
    """
    _check_recursion_args(n, k)
    if n <= k:
        return LaurentPoly({0: 2 ** max(n - 1, 0)})
    return compositions(n, range(1, k), k).shift(-k)


def product_132_231(n: int, widths: stats.Widths) -> LaurentPoly:
    """
    Width-set descent distribution over the {132, 231}-avoiders, and equally
    over the {132, 312}-avoiders (`product_132_312` is this function): a
    product of binomials (1 + q^(i-1)) spanned by the gaps of the width set,
    built in one packed integer by `binomial_product`.

    >>> print(product_132_231(3, (1,)))
    1 + 2*q + q^2
    >>> print(product_132_231(5, (2, 4)))  # 2 (1+q)^2 (1+q^2)
    2 + 4*q + 4*q^2 + 4*q^3 + 2*q^4
    """
    if isinstance(widths, int):
        widths = (widths,)
    # the empty word, like a word of length 1, has no descents
    anchors = (1, *stats.normalize_widths(widths, n), max(n, 1))
    return binomial_product((i - 1, anchors[i] - anchors[i - 1]) for i in range(1, len(anchors)))


product_132_312 = product_132_231


def closed_inv_132_312(n: int, k: int) -> LaurentPoly:
    """
    Width-k inversion distribution over the {132, 312}-avoiders (equal to
    the {132, 231} one): with n = dk+r, the binomial product
    2^(k-1) (1+q^d)^r prod_(i<d) (1+q^i)^k, built in one packed integer by
    `binomial_product`.  It is des over the multiples of k, word by word.

    >>> print(closed_inv_132_312(3, 1))
    1 + q + q^2 + q^3
    >>> closed_inv_132_312(7, 2) == product_132_312(7, (2, 4, 6))
    True
    """
    _check_width(n, k)
    d, r = divmod(n, k)
    return binomial_product([(d, r), *((i, k) for i in range(1, d))], 2 ** (k - 1))


def des_degree_312(n: int, k: int) -> int:
    """Degree of the width-k descent distribution over the 312-avoiders."""
    _check_width(n, k)
    return n - k


def inv_degree_312(n: int, k: int) -> int:
    """Degree of the width-k inversion distribution over the 312-avoiders."""
    _check_width(n, k)
    return sum((n - i) // k for i in range(1, n - k + 1))


#: Recursion per avoidance class, keyed by the sorted pattern tuple.
RECURSIONS: dict[tuple[tuple[int, ...], ...], Callable] = {
    ((3, 1, 2),): rec_312,
    ((1, 2, 3), (1, 3, 2)): rec_123_132,
    ((1, 2, 3), (3, 1, 2)): rec_123_312,
    ((1, 3, 2), (2, 1, 3)): rec_132_213,
}

#: Closed width-set descent products, keyed by the sorted pattern tuple.
PRODUCTS: dict[tuple[tuple[int, ...], ...], Callable] = {
    ((1, 3, 2), (2, 3, 1)): product_132_231,
    ((1, 3, 2), (3, 1, 2)): product_132_312,
}

#: Closed width-k inversion forms over avoidance classes.
CLOSED_INV: dict[tuple[tuple[int, ...], ...], Callable] = {
    ((1, 3, 2), (2, 3, 1)): closed_inv_132_312,
    ((1, 3, 2), (3, 1, 2)): closed_inv_132_312,
}


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
    return "Av(" + ",".join(format_perm(p) for p in patterns) + ")"


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
            self._memo[key] = t_polynomial(n, patterns)
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
            dist = _sn_majors(n, widths)
        elif statistic in ("exc", "G") and not patterns and len(widths) == 1:
            dist = (_sn_excedances if statistic == "exc" else _sn_g)(n, *widths)
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
    swept = f"sigma={format_perm(word)}, K={{2,3}}"
    params = {"sigma": format_perm(word)}
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
        _check("theorem[des]", swept, cases("des", closed_des_k)),
        _check("theorem[inv]", swept, cases("inv", closed_inv_k)),
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
        ({"sigma": format_perm(word), "K": [2, 3], "route": route}, value, 5)
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
            f"sigma={format_perm(word)}, K={{2,3}}",
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


def g_shape(n: int, k: int) -> tuple[int, int, int, int]:
    """
    The shape (c, s, m, e) with G[n,k] = c * q^s * A_m(q)^e, for every
    1 <= k <= n-1.  With d = gcd(n, k) and l = n/d,

        G[n,k] = n!/((l-1)!)^d * q^(d-k) * A_(l-1)(q)^d.

    Proof.  Join positions p -> p+k (mod n).  An edge that does not wrap is
    a width-k descent when a_p > a_(p+k).  The k wrap edges run j+n-k -> j
    for j < k, and one is a descent exactly when (j, j+n-k) is not a
    width-(n-k) descent.  So des_k - des_(n-k) = cdes - k, where cdes counts
    the descents along the edges, which form d cycles of l positions each.
    The values split over the cycles in n!/(l!)^d ways.  On one cycle, the
    l rotations of its values share cdes, and the rotation that puts the
    largest value last has cdes one more than the des of the other l-1
    values in cycle order, so the cycle contributes l * q * A_(l-1)(q).
    At d = 1 this is the paper's conjectured n * q^(1-k) * A_(n-1)(q).

    >>> g_shape(6, 2), g_shape(7, 3)
    ((180, 0, 2, 2), (7, -2, 6, 1))
    """
    _check_width(n, k)
    d = math.gcd(n, k)
    m = n // d - 1
    return math.factorial(n) // math.factorial(m) ** d, d - k, m, d


def closed_g(n: int, k: int) -> LaurentPoly:
    """
    G[n,k] from its closed form (see g_shape).

    >>> print(closed_g(4, 3))
    4*q^-2 + 16*q^-1 + 4
    """
    return factored_form(*g_shape(n, k))


def factored_form(c: int, s: int, m: int, e: int) -> LaurentPoly:
    """Expand the reference shape c * q^s * A_m(q)^e."""
    return eulerian_product([m] * e, c).shift(s)


def format_factored(c: int, s: int, m: int, e: int) -> str:
    """Human form of the reference shape, e.g. '1120*q^-4*A_3(q)^2'."""
    parts = [str(c)]
    if s != 0:
        parts.append(f"q^{s}")
    if e > 0 and m > 1:
        parts.append(f"A_{m}(q)" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


def suite_gtable(top: int, caches: SweepCaches):
    """
    Every reference entry for the signed descent difference at n=6,8,9; a
    row above top has no cases and reports not-applicable.
    """

    def cases(n: int) -> Iterator[Case]:
        for k, shape in GTABLE_REFERENCE[n].items():
            params = {"n": n, "k": k, "form": format_factored(*shape)}
            yield params, caches.dist(n, "G", (k,)), factored_form(*shape)

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
                    yield {"n": n, "k": k}, caches.dist(n, "G", (k,)), closed_g(n, k)

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
        return catalan(n) if patterns else math.factorial(n)
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
        image = [reverse(p) for p in patterns]
    elif mode == "complement":
        image = [complement(p) for p in patterns]
    else:
        image = [complement(reverse(p)) for p in patterns]
    expected = caches.t_poly(n, patterns)
    if mode != "reverse-complement":
        expected = expected.reflect(tuple(n - k for k in range(1, n)))
    return caches.t_poly(n, check_patterns(image)), expected


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
                yield {"n": n, "patterns": [format_perm(p) for p in pats]}, actual, expected

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
                want = closed_inv_132_312(n, k)
                multiples = tuple(range(k, n, k))
                sides = (
                    ("inv over Av(132,312)", caches.dist(n, "inv", (k,), ((1, 3, 2), (3, 1, 2)))),
                    ("inv over Av(132,231)", caches.dist(n, "inv", (k,), ((1, 3, 2), (2, 3, 1)))),
                    ("product at K=multiples of k", product_132_312(n, multiples)),
                )
                for label, got in sides:
                    yield {"n": n, "k": k, "side": label}, got, want

    def degrees() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                actual = tuple(caches.dist(n, s, (k,), ((3, 1, 2),)).degree for s in ("des", "inv"))
                yield {"n": n, "k": k}, actual, (des_degree_312(n, k), inv_degree_312(n, k))

    def catalan_at_one() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                yield {"n": n, "k": k}, rec_312(n, k)(1), catalan(n)

    def powers_of_two_at_one() -> Iterator[Case]:
        for n in range(2, top + 1):
            want = 2 ** (n - 1)
            for k in range(1, n):
                values = (
                    ("rec:123,132", rec_123_132(n, k)(1)),
                    ("rec:132,213", rec_132_213(n, k)(1)),
                    ("closed-inv:132,312", closed_inv_132_312(n, k)(1)),
                )
                for label, got in values:
                    yield {"n": n, "k": k, "formula": label}, got, want
            if n <= multi_top:
                for K in _width_subsets(n):
                    params = {"n": n, "K": K, "formula": "product:132,312"}
                    yield params, product_132_312(n, K)(1), want

    return [
        *(
            _check(
                f"avoidance[rec:{','.join(map(format_perm, pats))}]",
                f"2<=n<={top}, 1<=k<=n-1, {_format_class(pats)}",
                recursion(pats, fn),
            )
            for pats, fn in RECURSIONS.items()
        ),
        *(
            _check(
                f"avoidance[product:{','.join(map(format_perm, pats))}]",
                f"2<=n<={multi_top}, nonempty K subsets of [n-1], {_format_class(pats)}",
                product(pats, fn),
            )
            for pats, fn in PRODUCTS.items()
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
                params = {"n": n, "pattern": format_perm(pattern)}
                yield params, size(n, (pattern,)), catalan(n)

    def vanishing() -> Iterator[Case]:
        for n in range(5, top + 1):
            yield {"n": n}, size(n, ((1, 2, 3), (3, 2, 1))), 0

    def domain_sizes() -> Iterator[Case]:
        for n in range(2, top + 1):
            for k in range(1, n):
                routes = (("closed des", closed_des_k), ("closed inv", closed_inv_k))
                for label, closed in routes:
                    params = {"n": n, "k": k, "distribution": label}
                    yield params, closed(n, k)(1), math.factorial(n)
        for n in range(2, small_top + 1):
            for k in range(1, n):
                params = {"n": n, "k": k, "distribution": "signed descent difference"}
                yield params, caches.dist(n, "G", (k,))(1), math.factorial(n)
        for n in range(1, small_top + 1):
            for pats in _small_pattern_classes():
                params = {"n": n, "patterns": [format_perm(p) for p in pats]}
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


def suite_reports(name: str, n_max: int | None = None) -> Iterator[list[VerificationReport]]:
    """
    Check a run of one suite (or "all") and return a lazy iterator over each
    suite's report list, in SUITES order.  The name, n_max and the cap are
    all checked before any suite runs; each suite sweeps up to n_max, or by
    default up to its own SUITE_NMAX bound.  A run's suites share its memo.
    """
    if n_max is not None:
        if n_max < 0:
            raise InvalidInputError(f"nmax must be >= 0, got {n_max}")
        if n_max > (cap := enumeration_cap()):
            raise EnumerationCapError(
                f"nmax={n_max} exceeds enumeration cap {cap} (raise WIDTHK_MAX_N to override)"
            )
    if name not in SUITES and name != "all":
        choices = ", ".join([*SUITES, "all"])
        raise InvalidInputError(f"unknown suite {name!r}; choose from: {choices}")
    names = list(SUITES) if name == "all" else [name]
    tops = [SUITE_NMAX[each] if n_max is None else n_max for each in names]
    check_cap(max(tops))
    caches = SweepCaches()
    return (SUITES[each](top, caches) for each, top in zip(names, tops))


def run_suite(name: str, n_max: int | None = None) -> list[VerificationReport]:
    """Every report of suite_reports(name, n_max), in one list."""
    return [report for reports in suite_reports(name, n_max) for report in reports]
