"""
Generating functions of width-k statistics, and the verification engine.

Distributions arrive by three independent routes: exhaustive enumeration
(the universal oracle), closed product formulas, and recursions
for particular avoidance classes.  The verification suites sweep finite
parameter ranges, compare the routes pairwise, and report the smallest
offending parameters on any mismatch; a formula is never trusted without
its oracle check passing somewhere in the suite.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import stats
from .errors import EnumerationCapError, InvalidInputError
from .perm import (
    avoidance_class,
    check_patterns,
    complement,
    enumerate_sn,
    enumeration_cap,
    format_perm,
    reverse,
)
from .poly import (
    ONE,
    LaurentPoly,
    MultiPoly,
    block_multinomial,
    catalan,
    eulerian_poly,
    q_factorial,
)

DEFAULT_MULTI_MAX_N = 8

Patterns = Iterable[Sequence[int]]


def multivariate_cap() -> int:
    """Size cap for joint-distribution enumeration (env WIDTHK_MAX_N overrides)."""
    return enumeration_cap(DEFAULT_MULTI_MAX_N)


# ---------------------------------------------------------------------------
# enumeration scans

def _gap_counts(word: Sequence[int]) -> list[int]:
    # counts[g] = number of pairs (i, i+g) with word[i] > word[i+g]; this is
    # the width-g descent count, and summing over multiples of k gives inv_k.
    n = len(word)
    return [0] + [sum(map(operator.gt, word, word[g:])) for g in range(1, n)]


def _maj_profile(word: Sequence[int]) -> tuple[int, ...]:
    # entry g-1 is maj_g, the sum of ceil(i/g) over the width-g descents i;
    # it depends on positions, so no grade of the joint descent distribution
    # yields it.
    n = len(word)
    maj = [0] * n
    for i in range(n - 1):
        a = word[i]
        for j in range(i + 1, n):
            if a > word[j]:
                g = j - i
                maj[g] += (i + g) // g
    return tuple(maj[1:])


_STAT_FUNCS: dict[str, Callable] = {
    "des": stats.des,
    "inv": stats.inv,
    "exc": stats.exc,
    "maj": stats.maj,
}

STATISTICS = tuple(sorted(_STAT_FUNCS))


def brute_distribution(
    n: int,
    statistic: str,
    widths: stats.Widths = 1,
    patterns: Patterns = (),
    max_n: int | None = None,
) -> LaurentPoly:
    """
    The exact distribution polynomial of a width statistic over S_n, or over
    the class avoiding the given patterns.  This enumerates the whole domain
    and is the oracle every closed form and recursion is checked against.

    >>> print(brute_distribution(3, "des"))
    1 + 4*q + q^2
    >>> print(brute_distribution(3, "des", 1, [(3, 1, 2)]))
    1 + 3*q + q^2
    """
    fn = _STAT_FUNCS.get(statistic)
    if fn is None:
        raise InvalidInputError(
            f"unknown statistic {statistic!r}; choose from {STATISTICS}"
        )
    acc: dict[int, int] = {}
    for word in avoidance_class(n, patterns, max_n=max_n):
        e = fn(word, widths)
        acc[e] = acc.get(e, 0) + 1
    return LaurentPoly(acc)


# ---------------------------------------------------------------------------
# closed forms over the full symmetric group

def _check_width(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"width must satisfy 1 <= k <= n-1, got k={k}, n={n}")


def _block_shape(n: int, k: int) -> tuple[int, int]:
    _check_width(n, k)
    return divmod(n, k)


def closed_des_k(n: int, k: int) -> LaurentPoly:
    """
    Closed form of the width-k descent distribution over S_n: with n = dk+r,
    the multinomial weight times A_{d+1}(q)^r A_d(q)^{k-r}.

    >>> print(closed_des_k(6, 3))
    90 + 270*q + 270*q^2 + 90*q^3
    """
    d, r = _block_shape(n, k)
    weight = block_multinomial(n, k)
    return weight * eulerian_poly(d + 1) ** r * eulerian_poly(d) ** (k - r)


def closed_inv_k(n: int, k: int) -> LaurentPoly:
    """
    Closed form of the width-k inversion distribution over S_n: with
    n = dk+r, the multinomial weight times [d+1]_q!^r [d]_q!^{k-r}.

    >>> closed_inv_k(5, 1) == q_factorial(5)
    True
    """
    d, r = _block_shape(n, k)
    weight = block_multinomial(n, k)
    return weight * q_factorial(d + 1) ** r * q_factorial(d) ** (k - r)


# ---------------------------------------------------------------------------
# joint distributions and the signed descent difference

def t_polynomial(
    n: int, patterns: Patterns = (), max_n: int | None = None
) -> MultiPoly:
    """
    Joint distribution of all width descents at once: each permutation in
    the class contributes the monomial t_1^(des_1) ... t_(n-1)^(des_(n-1)).
    Over S_n the walk builds no words; avoidance classes are scanned word by
    word.  Subject to the multivariate enumeration cap (default 8).
    """
    cap = multivariate_cap() if max_n is None else max_n
    if n > cap:
        raise EnumerationCapError(f"n={n} exceeds multivariate cap {cap}")
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    pats = check_patterns(patterns)
    gaps = range(1, n)
    if not pats and n >= 3:
        acc = _sn_joint_descents(n)
    else:
        acc = {}  # one scan per word: avoidance classes, and S_0..S_2
        for word in avoidance_class(n, pats, max_n=n):
            exps = tuple(_gap_counts(word)[1:])
            acc[exps] = acc.get(exps, 0) + 1
    return MultiPoly(tuple(f"t{g}" for g in gaps), acc)


def _sn_joint_descents(n: int) -> dict[tuple[int, ...], int]:
    # Joint descent counts over S_n (n >= 3) by a depth-first walk that
    # carries one packed int per word instead of the word.  Base-2^s digit g
    # of a key holds des_g; des_g <= n - 1 < 2^s, so no digit overflows.
    # hs lists, in increasing order of the values still to place, what
    # placing that value next adds to the key: one unit in digit g for each
    # larger value g positions back.  Placing hs[j] moves every other entry
    # one digit up and adds one unit to the entries below it.  The last three
    # placements are written out: with 0 < 1 < 2 the remaining values, a
    # leaf is h_x + (h_y + [y < x]) << s + (h_z + [z < x]) << 2s + [z < y] << s
    # for the placing order x, y, z.
    s = (n - 1).bit_length()
    s1 = 1 << s
    s2 = s1 << s
    keys: dict[int, int] = {}
    get = keys.get

    def walk(key: int, hs: list[int]) -> None:
        if len(hs) == 3:
            h0, h1, h2 = hs
            a0, a1, a2 = h0 << s, h1 << s, h2 << s
            b0, b1, b2 = a0 << s, a1 << s, a2 << s
            for leaf in (
                key + h0 + a1 + b2,
                key + h0 + a2 + b1 + s1,
                key + h1 + a0 + b2 + s1,
                key + h1 + a2 + b0 + s1 + s2,
                key + h2 + a0 + b1 + s1 + s2,
                key + h2 + a1 + b0 + 2 * s1 + s2,
            ):
                keys[leaf] = get(leaf, 0) + 1
            return
        below = [(h + 1) << s for h in hs]
        above = [h << s for h in hs]
        for j, h in enumerate(hs):
            walk(key + h, below[:j] + above[j + 1 :])

    walk(0, [0] * n)
    mask = s1 - 1
    shifts = [s * g for g in range(1, n)]
    return {tuple([key >> t & mask for t in shifts]): c for key, c in keys.items()}


def _indicator(n: int, gaps: Iterable[int]) -> list[int]:
    # Weights over t_1..t_(n-1) marking the given gaps.  Grading the joint
    # distribution by the indicator of {k} gives des_k, of the multiples of
    # k gives inv_k, and of a width set K (or its multiples) gives des_K (inv_K).
    marked = set(gaps)
    return [int(g in marked) for g in range(1, n)]


def _g_grades(joint: MultiPoly, n: int) -> dict[int, LaurentPoly]:
    # G[n,k] is the joint distribution over S_n with t_k -> q, t_(n-k) -> 1/q
    gaps = range(1, n)
    return {k: joint.grade([(g == k) - (g == n - k) for g in gaps]) for k in gaps}


def g_table(n: int, max_n: int | None = None) -> dict[int, LaurentPoly]:
    """
    G[n,k], the sum of q^(des_k - des_(n-k)) over S_n, for k = 1..n-1, as
    grades of the joint descent distribution over S_n (closed_g is the
    closed form).  Subject to the enumeration cap (default 10).
    """
    joint = t_polynomial(n, max_n=enumeration_cap() if max_n is None else max_n)
    return _g_grades(joint, n)


# ---------------------------------------------------------------------------
# avoidance-class formulas

def _check_recursion_args(n: int, k: int) -> None:
    if n < 0:
        raise InvalidInputError(f"n must be >= 0, got {n}")
    if k < 1:
        raise InvalidInputError(f"width must be >= 1, got {k}")


def _run_recursion(
    n: int,
    k: int,
    base: Callable[[int], int],
    step: Callable[[int, int, list[list[int]]], list[int]],
) -> LaurentPoly:
    # Bottom-up fill of rows[m], the coefficients of level m from q^0 up.
    # Words of length m <= k have no width-k descents, so those levels are
    # the constant class size; above that des_k <= m - k, so step returns
    # m - k + 1 coefficients.
    _check_recursion_args(n, k)
    rows: list[list[int]] = []
    for m in range(n + 1):
        rows.append([base(m)] if m <= k else step(m, k, rows))
    return LaurentPoly(dict(enumerate(rows[n])))


def _add_shifted(row: list[int], src: Sequence[int], s: int) -> None:
    # row += q^s * src, in place; row must be long enough
    end = s + len(src)
    row[s:end] = map(operator.add, row[s:end], src)


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
    polynomial s_m, and a_(m+1) - s_(m+1) is 2q f_m.  A level costs 2k
    products of a row by a quadratic in q.  Words of length n <= k have no
    width-k descents, so k >= n gives the constant C_n at once, and the
    recurrence only runs with 2k < 2n terms.

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
    s = [[1]]
    for m in range(1, n + 2):
        terms = [(3 * j - 2 * m, s[m - j], dj) for j, dj in enumerate(d[:m], 1)]
        acc = [0] * (max(len(row) for _, row, _ in terms) + 2)
        for coef, row, dj in terms:
            for e, w in enumerate(dj):
                if w:  # acc += coef * w * q^e * row
                    end = e + len(row)
                    scaled = map(operator.mul, row, itertools.repeat(coef * w))
                    acc[e:end] = map(operator.add, acc[e:end], scaled)
        while not acc[-1]:  # s_m is never zero
            acc.pop()
        s.append([x // (2 * m) for x in acc])
    # a_(n+1) = 0 because n > k, so f_n = -s_(n+1) / (2q)
    return LaurentPoly(dict(enumerate(-x // 2 for x in s[n + 1][1:])))


def rec_123_132(n: int, k: int) -> LaurentPoly:
    """
    Width-k descent distribution over the {123, 132}-avoiders, by recursion
    on the position of the letter n; the closing term collects the positions
    past max(k, n-k) in a single power of q.
    """

    def step(m: int, k: int, rows: list[list[int]]) -> list[int]:
        row = [0] * (m - k + 1)
        row[m - k - 1] = 2 ** (m - max(k + 1, m - k + 1))
        for i in range(1, k + 1):
            _add_shifted(row, rows[m - i], min(i, m - k))
        for i in range(k + 1, m - k + 1):
            _add_shifted(row, rows[m - i], min(i - 1, m - k - 1))
        return row

    return _run_recursion(n, k, lambda m: 2 ** max(m - 1, 0), step)


def rec_123_312(n: int, k: int) -> LaurentPoly:
    """
    Width-k descent distribution over the {123, 312}-avoiders.  A letter 1
    placed before the end freezes the whole word, so those cases contribute
    bare powers of q; only the final position recurses.
    """

    def step(m: int, k: int, rows: list[list[int]]) -> list[int]:
        row = [0] * (m - k + 1)
        _add_shifted(row, rows[m - 1], 1)
        for i in range(1, k + 1):
            row[max(0, m - k - i)] += 1
        for i in range(k + 1, m):
            row[max(m - 2 * k, i - k)] += 1
        return row

    # the base is |Av_m(123,312)|
    return _run_recursion(n, k, lambda m: math.comb(m, 2) + 1, step)


def rec_132_213(n: int, k: int) -> LaurentPoly:
    """
    Width-k descent distribution over the {132, 213}-avoiders, by recursion
    on the position of the letter n; three position ranges give three sums.
    The middle range k < i <= m - k adds rows[m - i] for m - i = k..m-k-1,
    each shifted by q^k, so it is one running sum of rows shifted once, and a
    level costs O(k) row additions.
    """
    middle: list[int] = []  # rows[k] + ... + rows[summed - 1]
    summed = k

    def step(m: int, k: int, rows: list[list[int]]) -> list[int]:
        nonlocal summed
        row = [0] * (m - k + 1)
        for i in range(1, k + 1):
            _add_shifted(row, rows[m - i], min(i, m - k))
        while summed < m - k:
            middle.extend([0] * (len(rows[summed]) - len(middle)))
            _add_shifted(middle, rows[summed], 0)
            summed += 1
        _add_shifted(row, middle, k)
        for i in range(max(k + 1, m - k + 1), m + 1):
            _add_shifted(row, rows[m - i], m - i)
        return row

    return _run_recursion(n, k, lambda m: 2 ** max(m - 1, 0), step)


def product_132_231(n: int, widths: stats.Widths) -> LaurentPoly:
    """
    Width-set descent distribution over the {132, 231}-avoiders, and equally
    over the {132, 312}-avoiders (`product_132_312` is this function): a
    product of binomials (1 + q^(i-1)) spanned by the gaps of the width set.

    >>> print(product_132_231(3, (1,)))
    1 + 2*q + q^2
    """
    if isinstance(widths, int):
        widths = (widths,)
    # the empty word, like a word of length 1, has no descents
    anchors = (1, *stats.normalize_widths(widths, n), max(n, 1))
    out = ONE
    for i in range(1, len(anchors)):
        out = out * LaurentPoly([(0, 1), (i - 1, 1)]) ** (anchors[i] - anchors[i - 1])
    return out


product_132_312 = product_132_231


def closed_inv_132_312(n: int, k: int) -> LaurentPoly:
    """
    Width-k inversion distribution over the {132, 312}-avoiders (equal to
    the {132, 231} one): with n = dk+r, the binomial product
    2^(k-1) (1+q^d)^r prod_(i<d) (1+q^i)^k.

    >>> print(closed_inv_132_312(3, 1))
    1 + q + q^2 + q^3
    """
    d, r = _block_shape(n, k)
    out = LaurentPoly({0: 2 ** (k - 1)}) * LaurentPoly([(0, 1), (d, 1)]) ** r
    for i in range(1, d):
        out = out * LaurentPoly([(0, 1), (i, 1)]) ** k
    return out


def des_degree_312(n: int, k: int) -> int:
    """Degree of the width-k descent distribution over the 312-avoiders."""
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"width must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    return n - k


def inv_degree_312(n: int, k: int) -> int:
    """Degree of the width-k inversion distribution over the 312-avoiders."""
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"width must satisfy 1 <= k <= n-1, got k={k}, n={n}")
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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity family over a swept parameter range."""

    identity: str
    range: str
    status: str
    counterexample: dict | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise InvalidInputError(f"unknown status {self.status!r}")
        if (self.status == "mismatch") != (self.counterexample is not None):
            raise InvalidInputError(
                "mismatch reports carry a counterexample; other statuses do not"
            )

    @property
    def ok(self) -> bool:
        return self.status != "mismatch"

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
    Memo for the enumeration passes, shared across suites within one
    verification run.  Each (n, class) is walked once, into its joint
    descent distribution; every swept des/inv/G distribution is a grade of
    it.  S_n is walked once more, for the positional exc and maj.
    """

    def __init__(self) -> None:
        self._t_polys: dict[tuple, MultiPoly] = {}
        self._av_dists: dict[tuple, tuple[dict, dict]] = {}
        self._sn_exc_maj: dict[int, tuple[dict, dict, MultiPoly]] = {}

    def t_poly(self, n: int, patterns: tuple[tuple[int, ...], ...]) -> MultiPoly:
        """Joint descent distribution over an avoidance class; () gives S_n."""
        key = (n, patterns)
        if key not in self._t_polys:
            self._t_polys[key] = t_polynomial(n, patterns, max_n=n)
        return self._t_polys[key]

    def g_table(self, n: int) -> dict[int, LaurentPoly]:
        return _g_grades(self.t_poly(n, ()), n)

    def av_dists(
        self, n: int, patterns: tuple[tuple[int, ...], ...]
    ) -> tuple[dict[int, LaurentPoly], dict[int, LaurentPoly]]:
        """
        Width-k descent and inversion distributions over an avoidance class,
        every k; the empty pattern set gives S_n.
        """
        key = (n, patterns)
        if key not in self._av_dists:
            joint = self.t_poly(n, patterns)
            self._av_dists[key] = (
                {k: joint.grade(_indicator(n, (k,))) for k in range(1, n)},
                {k: joint.grade(_indicator(n, range(k, n, k))) for k in range(1, n)},
            )
        return self._av_dists[key]

    def sn_exc_maj(self, n: int) -> tuple[dict, dict, MultiPoly]:
        """
        Width-k excedance and major-index distributions over S_n, every k,
        and the joint major-index distribution: each word contributes
        t_1^(maj_1) ... t_(n-1)^(maj_(n-1)), so maj_K is its grade by the
        indicator of K.
        """
        if n not in self._sn_exc_maj:
            # exc_1 counts the a_i > i.  For k >= 2, exc_k adds up the
            # excedances of the standardized residue blocks word[s::k]; a
            # block has at most ceil(n/2) letters, so few blocks recur
            # (2,080 at n = 8) and stats.exc counts each once.
            ranks = range(1, n + 1)
            residues = [[slice(s, None, k) for s in range(k)] for k in range(2, n)]
            block_exc: dict[tuple[int, ...], int] = {}
            exc_acc: list[dict[int, int]] = [{} for _ in range(1, n)]
            maj_acc: dict[tuple[int, ...], int] = {}
            for word in enumerate_sn(n, max_n=n):
                excs = [sum(map(operator.gt, word, ranks))]
                for blocks in residues:
                    e = 0
                    for sl in blocks:
                        block = word[sl]
                        c = block_exc.get(block)
                        if c is None:
                            c = block_exc[block] = stats.exc(block)
                        e += c
                    excs.append(e)
                for acc, e in zip(exc_acc, excs):
                    acc[e] = acc.get(e, 0) + 1
                majp = _maj_profile(word)
                maj_acc[majp] = maj_acc.get(majp, 0) + 1
            maj = MultiPoly(tuple(f"t{g}" for g in range(1, n)), maj_acc)
            self._sn_exc_maj[n] = (
                {k: LaurentPoly(acc) for k, acc in enumerate(exc_acc, 1)},
                {k: maj.grade(_indicator(n, (k,))) for k in range(1, n)},
                maj,
            )
        return self._sn_exc_maj[n]


# ---------------------------------------------------------------------------
# verification suites
#
# Each suite declares its identity families as lazy generators of
# (params, lhs, rhs) cases and hands each one to _check.

_EXAMPLE_WORD = (4, 1, 3, 6, 5, 7, 2)
_EXAMPLE_WIDTHS = (2, 3)


def suite_example(n_max: int | None = None, caches: SweepCaches | None = None):
    """The worked statistics of 4136572 at width set {2, 3}."""
    word = _EXAMPLE_WORD
    widths = _EXAMPLE_WIDTHS
    swept = f"sigma={format_perm(word)}, K={{2,3}}"
    params = {"sigma": format_perm(word)}
    drec = stats.descent_record(word, widths)
    irec = stats.inversion_record(word, widths)
    checks = (
        (
            "example[des]",
            {"count": drec.count, "multiset": list(drec.multiset)},
            {"count": 3, "multiset": [1, 4, 5]},
        ),
        (
            "example[inv]",
            {"count": irec.count, "pairs": [list(p) for p in irec.pairs]},
            {"count": 5, "pairs": [[1, 3], [1, 7], [3, 7], [4, 7], [5, 7]]},
        ),
        ("example[exc]", stats.exc(word, widths), 4),
        ("example[maj]", stats.maj(word, widths), 6),
    )
    return [_check(identity, swept, [(params, got, want)]) for identity, got, want in checks]


def suite_theorem(n_max: int | None = None, caches: SweepCaches | None = None):
    """Brute-force des_k and inv_k over S_n against their closed forms."""
    caches = caches or SweepCaches()
    top = 8 if n_max is None else n_max
    swept = f"2<=n<={top}, 1<=k<=n-1"

    def cases(side: int, closed: Callable[[int, int], LaurentPoly]) -> Iterator[Case]:
        for n in range(2, top + 1):
            brute = caches.av_dists(n, ())[side]
            for k in range(1, n):
                yield {"n": n, "k": k}, brute[k], closed(n, k)

    return [
        _check("theorem[des]", swept, cases(0, closed_des_k)),
        _check("theorem[inv]", swept, cases(1, closed_inv_k)),
    ]


def _width_subsets(n: int, max_size: int | None = None) -> Iterator[tuple[int, ...]]:
    # nonempty subsets of [n-1], by size then lexicographic order
    top = n - 1 if max_size is None else min(max_size, n - 1)
    for size in range(1, top + 1):
        yield from itertools.combinations(range(1, n), size)


def suite_equidistribution(n_max: int | None = None, caches: SweepCaches | None = None):
    """
    des_k ~ exc_k and inv_k ~ maj_k for every n, k; des_k ~ inv_k once
    k >= n/2.  Also reports, without asserting, how inv and maj compare on
    width sets of size >= 2, where no equidistribution is claimed.
    """
    caches = caches or SweepCaches()
    top = 8 if n_max is None else n_max
    swept = f"2<=n<={top}, 1<=k<=n-1"

    def cases(left: str, right: str, least_k=lambda n: 1) -> Iterator[Case]:
        for n in range(2, top + 1):
            des, inv = caches.av_dists(n, ())
            exc, maj, _ = caches.sn_exc_maj(n)
            dists = {"des": des, "inv": inv, "exc": exc, "maj": maj}
            for k in range(least_k(n), n):
                yield {"n": n, "k": k}, dists[left][k], dists[right][k]

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
    equal = total = 0
    first_diff: tuple[int, tuple[int, ...]] | None = None
    for n in range(2, info_top + 1):
        subsets = [K for K in _width_subsets(n) if len(K) >= 2]
        if not subsets:
            continue
        joint = caches.t_poly(n, ())
        maj = caches.sn_exc_maj(n)[2]
        for K in subsets:
            total += 1
            multiples = (m for k in K for m in range(k, n, k))
            if joint.grade(_indicator(n, multiples)) == maj.grade(_indicator(n, K)):
                equal += 1
            elif first_diff is None:
                first_diff = (n, K)
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


def suite_inclusion_exclusion(n_max: int | None = None, caches: SweepCaches | None = None):
    """
    inv over a width set equals the alternating sum of single-width inv
    counts at subset lcms (terms with lcm >= n vanish), for every
    permutation; includes the worked 4 + 2 - 1 = 5 instance.
    """
    top = 7 if n_max is None else n_max

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
        # All K of a word are compared at once, as one case; only a word whose
        # lists differ is split into its (n, K, sigma) cases, in K order, so
        # the runner still reports the first disagreeing one.
        for n in range(2, top + 1):
            subsets = list(_width_subsets(n, max_size=3))
            unions = [sorted({m for k in K for m in range(k, n, k)}) for K in subsets]
            # per K, the lcms < n of its odd- and of its even-sized subsets
            signed: list[tuple[list[int], list[int]]] = []
            for K in subsets:
                odd: list[int] = []
                even: list[int] = []
                for size in range(1, len(K) + 1):
                    for sub in itertools.combinations(K, size):
                        l = math.lcm(*sub)
                        if l < n:
                            (even if size % 2 == 0 else odd).append(l)
                signed.append((odd, even))
            every_k = {"n": n}
            for word in enumerate_sn(n, max_n=n):
                counts = _gap_counts(word)
                invals = [0] * n
                for g in range(1, n):
                    invals[g] = sum(counts[g::g])
                at = invals.__getitem__
                lhs = [sum(map(counts.__getitem__, u)) for u in unions]
                rhs = [sum(map(at, odd)) - sum(map(at, even)) for odd, even in signed]
                if lhs == rhs:
                    yield every_k, lhs, rhs
                    continue
                sigma = format_perm(word)
                for K, a, b in zip(subsets, lhs, rhs):
                    yield {"n": n, "K": K, "sigma": sigma}, a, b

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
    return (c * eulerian_poly(m) ** e).shift(s)


def format_factored(c: int, s: int, m: int, e: int) -> str:
    """Human form of the reference shape, e.g. '1120*q^-4*A_3(q)^2'."""
    parts = [str(c)]
    if s != 0:
        parts.append(f"q^{s}")
    if e > 0 and m > 1:
        parts.append(f"A_{m}(q)" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


def suite_gtable(n_max: int | None = None, caches: SweepCaches | None = None):
    """
    Every reference entry for the signed descent difference at n=6,8,9; a
    row above n_max has no cases and reports not-applicable.
    """
    caches = caches or SweepCaches()

    def cases(n: int) -> Iterator[Case]:
        table = caches.g_table(n)
        for k, shape in GTABLE_REFERENCE[n].items():
            params = {"n": n, "k": k, "form": format_factored(*shape)}
            yield params, table[k], factored_form(*shape)

    reports = []
    for n in sorted(GTABLE_REFERENCE):
        swept = f"n={n}, 1<=k<=n-1"
        if n_max is not None and n > n_max:
            reports.append(_check(f"gtable[n={n}]", f"{swept}, n<={n_max}", ()))
        else:
            notes = (_GTABLE_A9_NOTE,) if n == 9 else ()
            reports.append(_check(f"gtable[n={n}]", swept, cases(n), notes))
    return reports


def suite_conjecture(n_max: int | None = None, caches: SweepCaches | None = None):
    """closed_g at every coprime (n, k), where it is n*q^(1-k)*A_(n-1)(q)."""
    caches = caches or SweepCaches()
    top = 9 if n_max is None else n_max

    def cases() -> Iterator[Case]:
        for n in range(2, top + 1):
            table = caches.g_table(n)
            for k in range(1, n):
                if math.gcd(n, k) == 1:
                    yield {"n": n, "k": k}, table[k], closed_g(n, k)

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


def suite_duality(n_max: int | None = None, caches: SweepCaches | None = None):
    """
    The reflect dualities of the joint descent distribution over every
    pattern class from S_3 of size <= 2, plus their single-width corollaries
    relating 123 to 321 and 132, 213, 231, 312 to one another.
    """
    caches = caches or SweepCaches()
    multi_top = 7 if n_max is None else min(n_max, 7)
    uni_top = 8 if n_max is None else n_max
    classes = _small_pattern_classes()

    def joint(mode: str) -> Iterator[Case]:
        for n in range(1, multi_top + 1):
            for pats in classes:
                actual, expected = _duality_sides(caches, n, pats, mode)
                yield {"n": n, "patterns": [format_perm(p) for p in pats]}, actual, expected

    def des_dists(n: int, pattern: tuple[int, ...]) -> dict[int, LaurentPoly]:
        return caches.av_dists(n, (pattern,))[0]

    def twins_123_321() -> Iterator[Case]:
        for n in range(2, uni_top + 1):
            f123 = des_dists(n, (1, 2, 3))
            f321 = des_dists(n, (3, 2, 1))
            for k in range(1, n):
                yield {"n": n, "k": k}, f123[k], f321[k].inverse_q().shift(n - k)

    def twins_132_213_231_312() -> Iterator[Case]:
        for n in range(2, uni_top + 1):
            f132 = des_dists(n, (1, 3, 2))
            f213 = des_dists(n, (2, 1, 3))
            f231 = des_dists(n, (2, 3, 1))
            f312 = des_dists(n, (3, 1, 2))
            for k in range(1, n):
                links = (
                    ("132=213", f132[k], f213[k]),
                    ("132=q^(n-k)*231(1/q)", f132[k], f231[k].inverse_q().shift(n - k)),
                    ("231=312", f231[k], f312[k]),
                )
                for label, lhs, rhs in links:
                    yield {"n": n, "k": k, "link": label}, lhs, rhs

    joint_range = f"1<=n<={multi_top}, all pattern sets from S_3 of size <= 2"
    swept = f"2<=n<={uni_top}, 1<=k<=n-1"
    return [
        *(_check(f"duality[{mode}]", joint_range, joint(mode)) for mode in DUALITY_MODES),
        _check("duality[univariate:123~321]", swept, twins_123_321()),
        _check("duality[univariate:132~213~231~312]", swept, twins_132_213_231_312()),
    ]


def suite_avoidance(n_max: int | None = None, caches: SweepCaches | None = None):
    """
    Every avoidance-class formula against brute force: the four recursions,
    the two width-set products, the closed inversion form, the 312 degree
    formulas, and the q=1 specializations to C_n and 2^(n-1).
    """
    caches = caches or SweepCaches()
    top = 9 if n_max is None else n_max
    multi_top = min(top, 8)

    def recursion(pats, fn) -> Iterator[Case]:
        for n in range(2, top + 1):
            des = caches.av_dists(n, pats)[0]
            for k in range(1, n):
                yield {"n": n, "k": k}, fn(n, k), des[k]

    def product(pats, fn) -> Iterator[Case]:
        for n in range(2, multi_top + 1):
            joint = caches.t_poly(n, pats)
            for K in _width_subsets(n):
                yield {"n": n, "K": K}, fn(n, K), joint.grade(_indicator(n, K))

    def closed_inv() -> Iterator[Case]:
        for n in range(2, top + 1):
            inv312 = caches.av_dists(n, ((1, 3, 2), (3, 1, 2)))[1]
            inv231 = caches.av_dists(n, ((1, 3, 2), (2, 3, 1)))[1]
            for k in range(1, n):
                want = closed_inv_132_312(n, k)
                multiples = tuple(range(k, n, k))
                sides = (
                    ("inv over Av(132,312)", inv312[k]),
                    ("inv over Av(132,231)", inv231[k]),
                    ("product at K=multiples of k", product_132_312(n, multiples)),
                )
                for label, got in sides:
                    yield {"n": n, "k": k, "side": label}, got, want

    def degrees() -> Iterator[Case]:
        for n in range(2, top + 1):
            des, inv = caches.av_dists(n, ((3, 1, 2),))
            for k in range(1, n):
                actual = (des[k].degree, inv[k].degree)
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

    recursions = (
        ("rec:312", ((3, 1, 2),), rec_312),
        ("rec:123,132", ((1, 2, 3), (1, 3, 2)), rec_123_132),
        ("rec:123,312", ((1, 2, 3), (3, 1, 2)), rec_123_312),
        ("rec:132,213", ((1, 3, 2), (2, 1, 3)), rec_132_213),
    )
    products = (
        ("product:132,231", ((1, 3, 2), (2, 3, 1)), product_132_231),
        ("product:132,312", ((1, 3, 2), (3, 1, 2)), product_132_312),
    )
    return [
        *(
            _check(
                f"avoidance[{label}]",
                f"2<=n<={top}, 1<=k<=n-1, {_format_class(pats)}",
                recursion(pats, fn),
            )
            for label, pats, fn in recursions
        ),
        *(
            _check(
                f"avoidance[{label}]",
                f"2<=n<={multi_top}, nonempty K subsets of [n-1], {_format_class(pats)}",
                product(pats, fn),
            )
            for label, pats, fn in products
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


def suite_counting(n_max: int | None = None, caches: SweepCaches | None = None):
    """
    Class-size sanity: Catalan counts for single patterns from S_3, the
    empty class for {123, 321} past n = 4, and distributions evaluating at
    q = 1 to their domain sizes.
    """
    caches = caches or SweepCaches()
    top = 8 if n_max is None else n_max
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
            table = caches.g_table(n)
            for k in range(1, n):
                params = {"n": n, "k": k, "distribution": "signed descent difference"}
                yield params, table[k](1), math.factorial(n)
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


def run_suite(
    name: str, n_max: int | None = None, caches: SweepCaches | None = None
) -> list[VerificationReport]:
    """
    Run one verification suite (or "all"), returning its reports in a fixed
    deterministic order.
    """
    if caches is None:
        caches = SweepCaches()
    if name == "all":
        reports: list[VerificationReport] = []
        for fn in SUITES.values():
            reports.extend(fn(n_max, caches))
        return reports
    fn = SUITES.get(name)
    if fn is None:
        choices = ", ".join(list(SUITES) + ["all"])
        raise InvalidInputError(f"unknown suite {name!r}; choose from: {choices}")
    return fn(n_max, caches)
