"""
Generating functions of width-k statistics.

Distributions arrive by three independent routes: enumeration, closed
product formulas, and recursions for particular avoidance classes.  The
suites of `widthk.verify` compare each formula with the distribution that
`perm`'s DPs over sets of filled positions count.  `brute_distribution`
scans every word instead: it is the route of `gf --method brute`, and the
tests' oracle for those DPs.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import chain, starmap
from typing import Callable, Iterable, Sequence

from . import stats
from .errors import InvalidInputError
from .perm import _column_batches, _joint_descents, _sn_g, check_cap, check_patterns
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
    in batches, and a batch is its columns: S_n's are S_7's byte columns
    relabelled, at most 7! words and no tuple per word, and a class's are
    the walk's lists of about a thousand words transposed.  One
    `stats.scanner` counts each batch, every word from its own letters.  It
    is the per-word route of `gf --method brute`, and the tests' oracle for
    the DPs that `verify` reads through `SweepCaches.dist`.

    >>> print(brute_distribution(3, "des"))
    1 + 4*q + q^2
    >>> print(brute_distribution(3, "des", 1, [(3, 1, 2)]))
    1 + 3*q + q^2
    """
    check_cap(n)  # the scanner's pair lists grow with n
    count = stats.scanner(statistic, n, widths)
    return LaurentPoly(Counter(chain.from_iterable(starmap(count, _column_batches(n, patterns)))))


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
    S_n, and a class of length-3 patterns, by the DP over the sets of
    filled positions, building no word; any other avoidance class by brute
    force over the members that the pruned walk lists.  Subject to the
    enumeration cap.
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
# the signed descent difference in closed form

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


def __getattr__(name: str):
    # `Tracer.install` in bench/layers.py reads genfun.SUITES, the suite
    # registry's old home.  This forwards that one name to `verify` on
    # request, so importing genfun still compiles no suite.  It goes once
    # the benchmark reads verify.SUITES.
    if name == "SUITES":
        from .verify import SUITES

        return SUITES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
