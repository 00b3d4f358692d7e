"""
Exact polynomials over the integers.

LaurentPoly is univariate in q and allows negative exponents, which the
signed descent-difference generating functions need.  It is stored densely,
as a valuation and the tuple of coefficients from there up to the degree,
and every coefficient row computed inside the package becomes a polynomial
through one constructor, `LaurentPoly._row`, which drops the row's zero
ends.  A product of two polynomials is one schoolbook loop; no route in the
package runs one, since each formula has a packed or row kernel here.  A
product of q-factorials, scale * prod [m]_q!, is one coefficient row of
sliding-window sums (`q_factorial_product`).  A product of Eulerian
polynomials, scale * prod A_m(q), is one big-integer power per distinct
A_m on one packed integer (`eulerian_product`).  A product of binomials,
scale * prod (1 + q^a)^e, stays inside one packed integer from first factor
to last (`binomial_product`), and so does each level of a sum over
compositions of n (`compositions`).  A packed integer holds coefficient i in
bits [i*slot, (i+1)*slot), where `_slot_bits` picks a slot of 8, 16, 32 or
64 bits, or whole bytes above that, for the largest coefficient; `_unpack`
reads every slot up to the top nonzero one.  The same slots hold the lanes
of `stats.scanner`, one word of a batch per slot: a batch is its columns,
and `_columns` packs each, whether it arrives as bytes or as ints; `_lanes`
reads the counts back.  Only this module turns packed integers into bytes
and back.  MultiPoly tracks one exponent per named variable, is stored
sparsely, and is used for joint descent distributions.  Coefficients are
plain Python ints, so nothing here ever rounds.

>>> print(binomial_product([(1, 3)]))
1 + 3*q + 3*q^2 + q^3
>>> one_plus_q = LaurentPoly({0: 1, 1: 1})
>>> binomial_product([(1, 3)]) == one_plus_q**3 == one_plus_q * one_plus_q * one_plus_q
True
"""
from __future__ import annotations

import math
import operator
import sys
from array import array
from collections import Counter
from itertools import accumulate, chain, compress, repeat
from typing import Iterable, Mapping, Sequence

from .errors import InvalidInputError


def _schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """
    Coefficients of the product of two coefficient rows: one pass over b
    for each nonzero coefficient of a.
    """
    out = [0] * (len(a) + len(b) - 1)
    width = len(b)
    add, mul = operator.add, operator.mul
    for i, c in enumerate(a):
        if c:
            out[i : i + width] = map(add, out[i : i + width], map(mul, b, repeat(c)))
    return out


# Array typecodes by slot size, for slots of 8, 16, 32 or 64 bits; array
# items are native-endian, so this path is only taken on little-endian hosts.
_SLOT_CODES = (
    {8 * array(code).itemsize: code for code in "BHIQ"} if sys.byteorder == "little" else {}
)


def _slot_bits(bits: int) -> int:
    # Bits per slot for coefficients of up to `bits` bits: 8, 16, 32 or 64,
    # so that the array typecodes apply, and whole bytes above that.
    width = (bits + 7) // 8
    return 8 << (width - 1).bit_length() if width <= 8 else 8 * width


def _pack(row: Sequence[int], slot: int) -> int:
    # Coefficient i occupies bits [i*slot, (i+1)*slot) of one integer.
    code = _SLOT_CODES.get(slot)
    if code:
        raw = array(code, row).tobytes()
    else:
        raw = b"".join(map(int.to_bytes, row, repeat(slot // 8), repeat("little")))
    return int.from_bytes(raw, "little")


def _unpack(packed: int, slot: int) -> list[int]:
    # The slots of `slot` bits of a packed integer, lowest first, up to the
    # top nonzero one (none for 0).
    width = slot // 8
    raw = packed.to_bytes(-(-packed.bit_length() // slot) * width, "little")
    code = _SLOT_CODES.get(slot)
    if code:
        return array(code, raw).tolist()
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _columns(columns: Sequence[Sequence[int]], m: int, bits: int) -> tuple[int, list[int]]:
    # The columns of a batch of m words of nonnegative integers, one per
    # position (item i: word i's letter), each packed with word i's letter
    # in slot i, in the narrowest slot that holds values of `bits` bits and
    # leaves the top bit of every letter clear; returns the slot and the
    # packed columns.  A bytes column spreads into the lanes with no pass in
    # Python, and in 8-bit slots it is its packed column as it stands: a
    # letter has 7 bits when every column is ASCII, else 8.  Any other
    # column goes through _pack, and a single word's columns are its letters.
    if isinstance(columns[0], bytes):
        slot = _slot_bits(max(bits, 7 if all(map(bytes.isascii, columns)) else 8) + 1)
        if slot == 8:
            return slot, list(map(int.from_bytes, columns, repeat("little")))
        width = slot // 8
        lanes = bytearray(width * m)  # each column's bytes go to the low byte of every lane
        packed = []
        for column in columns:
            lanes[::width] = column
            packed.append(int.from_bytes(lanes, "little"))
        return slot, packed
    letters = list(chain.from_iterable(columns))
    if min(letters) < 0:
        raise InvalidInputError("letters must be nonnegative")
    slot = _slot_bits(max(bits, max(letters).bit_length()) + 1)
    if m == 1:
        return slot, letters
    return slot, [_pack(column, slot) for column in columns]


def _lanes(packed: int, slot: int, m: int) -> list[int]:
    # The m slots of a packed integer, lowest first, zero slots included; a
    # single slot is the integer itself.
    if m == 1:
        return [packed]
    out = _unpack(packed, slot)
    return out + [0] * (m - len(out))


def _signed_sum(bodies: Iterable[str]) -> str:
    # "b0 + b1 - b2" from the terms' bodies, each led by its coefficient's
    # sign, "0" from none: a "-" is spaced off its body but on the first
    # term.  It assumes that no variable name holds " + -".
    return " + ".join(bodies).replace(" + -", " - ") or "0"


class LaurentPoly:
    """
    A Laurent polynomial in q with integer coefficients, stored densely as
    a valuation and the tuple of coefficients from the valuation up to the
    degree, with nonzero ends (the zero polynomial is the empty tuple).
    A product runs the schoolbook loop over the nonzero coefficients of the
    sparser operand.

    >>> p = LaurentPoly({0: 1, 1: 1})
    >>> p * p
    LaurentPoly({0: 1, 1: 2, 2: 1})
    >>> print(p.shift(-1))
    q^-1 + 1
    """

    __slots__ = ("_val", "_coeffs")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if not isinstance(terms, (dict, Mapping)):  # dict first: the ABC check is slow
            acc: dict[int, int] = {}
            for e, c in terms:
                acc[e] = acc.get(e, 0) + c
            terms = acc
        lo = min(terms, default=0)
        row = tuple(map(terms.get, range(lo, max(terms, default=-1) + 1), repeat(0)))
        p = LaurentPoly._row(row, lo)
        self._val, self._coeffs = p._val, p._coeffs

    @classmethod
    def _row(cls, row: Sequence[int], val: int = 0) -> "LaurentPoly":
        # The polynomial sum row[i] q^(val + i), with the zero ends of the
        # row dropped: every internal polynomial is made here.
        hi = len(row)
        while hi and not row[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not row[lo]:
            lo += 1
        if lo or hi < len(row):
            row = row[lo:hi]
        out = object.__new__(cls)
        out._val, out._coeffs = (val + lo, tuple(row)) if row else (0, ())
        return out

    @staticmethod
    def _coerce(other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly._row((other,))
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    def terms(self) -> list[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        row = self._coeffs
        return list(compress(zip(range(self._val, self._val + len(row)), row), row))

    @property
    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        if not self._coeffs:
            raise InvalidInputError("zero polynomial has no degree")
        return self._val + len(self._coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._val == other._val and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        if self._val == 0 and len(self._coeffs) <= 1:
            return hash(sum(self._coeffs))
        return hash((self._val, self._coeffs))

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        a, b = (self, other) if self._val <= other._val else (other, self)
        # lay b's coefficients onto a copy of a's, padded far enough to hold them
        row = list(a._coeffs)
        start = b._val - a._val
        stop = start + len(b._coeffs)
        if stop > len(row):
            row.extend(repeat(0, stop - len(row)))
        row[start:stop] = map(operator.add, row[start:stop], b._coeffs)
        return LaurentPoly._row(row, a._val)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._row(tuple(map(operator.neg, self._coeffs)), self._val)

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly._row([c * other for c in self._coeffs], self._val)
        other = self._coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a
        return LaurentPoly._row(_schoolbook(a, b), self._val + other._val)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        # Left to right over the bits of the exponent: one squaring per bit
        # after the leading one and one product with self per set bit.
        if exponent < 0:
            raise InvalidInputError("negative powers of a polynomial are not defined")
        out = ONE
        for i, bit in enumerate(bin(exponent)[2:]):
            if i:
                out = out * out
            if bit == "1":
                out = out * self
        return out

    def shift(self, s: int) -> "LaurentPoly":
        """Multiply by q^s."""
        return LaurentPoly._row(self._coeffs, self._val + s)

    def inverse_q(self) -> "LaurentPoly":
        """Substitute q -> 1/q, i.e. negate every exponent."""
        return LaurentPoly._row(self._coeffs[::-1], 1 - self._val - len(self._coeffs))

    def __call__(self, x: int | Fraction) -> int | Fraction:
        """Evaluate exactly; negative exponents go through Fraction."""
        from fractions import Fraction  # here, not at the top: only evaluation needs it

        if x == 0 and self._coeffs and self._val < 0:
            raise InvalidInputError(f"cannot evaluate at 0: q^{self._val} has a pole there")
        total: int | Fraction = 0
        for c in reversed(self._coeffs):
            total = total * x + c
        if self._coeffs and self._val:
            total *= Fraction(x) ** self._val if self._val < 0 else x**self._val
        if isinstance(total, Fraction) and total.denominator == 1:
            return int(total)
        return total

    def to_json(self) -> dict:
        return {"terms": list(map(list, self.terms()))}

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())})"

    def __str__(self) -> str:
        # Every body is "c*q^e" but at c = +-1, e = 0 and e = 1, which are
        # few and rewritten in place; zero coefficients drop out at the join.
        val, row = self._val, self._coeffs
        bodies = list(map("%d*q^%d".__mod__, zip(row, range(val, val + len(row)))))
        for unit, sign in ((1, ""), (-1, "-")):
            i = -1
            for _ in range(row.count(unit)):
                i = row.index(unit, i + 1)
                bodies[i] = f"{sign}q^{val + i}"
        if 0 <= -val < len(row):
            bodies[-val] = str(row[-val])
        if 0 <= 1 - val < len(row):
            c = row[1 - val]
            bodies[1 - val] = "q" if c == 1 else "-q" if c == -1 else f"{c}*q"
        return _signed_sum(compress(bodies, row))


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def q_factorial(m: int) -> LaurentPoly:
    """[m]_q! = [1]_q [2]_q ... [m]_q.

    >>> print(q_factorial(3))
    1 + 2*q + 2*q^2 + q^3
    """
    if m < 0:
        raise InvalidInputError(f"q-factorial needs m >= 0, got {m}")
    return q_factorial_product([m])


def q_factorial_product(sizes: Iterable[int], scale: int = 1) -> LaurentPoly:
    """scale * prod [m]_q! over the sizes m, in one coefficient row.

    Since [m]_q! = [1]_q [2]_q ... [m]_q, the product takes [i]_q once for
    each size m >= i.  Multiplying by [i]_q is a sliding-window sum of width
    i, taken as a difference of prefix sums, so no polynomial product runs.
    Coefficient t of a window sum reads only coefficients up to t, and the
    product is palindromic, as every [i]_q is; so the row is kept only up to
    half its final degree and mirrored at the end.

    >>> print(q_factorial_product([2, 2], 3))
    3 + 6*q + 3*q^2
    """
    sizes = list(sizes)
    if scale < 1 or min(sizes, default=0) < 0:
        raise InvalidInputError(f"need scale >= 1 and sizes >= 0, got {scale}, {sizes}")
    degree = sum(m * (m - 1) // 2 for m in sizes)
    row = [scale]
    for i in range(2, max(sizes, default=0) + 1):
        for _ in range(sum(m >= i for m in sizes)):
            # coefficient t of row * [i]_q is prefix[t + 1] - prefix[t + 1 - i],
            # where prefix[j] sums the first j coefficients (all of them for
            # j past the row) and is 0 for j <= 0
            prefix = list(accumulate(row, initial=0))
            prefix.extend(repeat(prefix[-1], i - 1))
            row = prefix[1:i]
            row += map(operator.sub, prefix[i:], prefix)
            del row[degree // 2 + 1 :]
    row += reversed(row[: degree + 1 - len(row)])
    return LaurentPoly._row(row)


def binomial_product(factors: Iterable[tuple[int, int]], scale: int = 1) -> LaurentPoly:
    """scale * prod (1 + q^a)^e over the pairs (a, e), as one packed integer.

    With a, e >= 0 and scale >= 1 every coefficient is nonnegative, so none
    exceeds the value at q = 1, scale * 2^(sum of e), which fixes the slot
    width once.  Each of the e steps of a factor is then one shift-add
    x += x << (a slots) on the whole packed row, and the row is unpacked
    once at the end.

    >>> print(binomial_product([(1, 2)], 3))
    3 + 6*q + 3*q^2
    >>> print(binomial_product([(2, 1), (0, 1)]))
    2 + 2*q^2
    """
    factors = sorted(factors)  # the row grows slowest with the small shifts first
    if scale < 1 or factors and min(map(min, factors)) < 0:
        raise InvalidInputError(f"need scale >= 1 and a, e >= 0, got {scale}, {factors}")
    slot = _slot_bits((scale << sum(e for _, e in factors)).bit_length())
    x = scale
    for a, e in factors:
        for _ in range(e):
            x += x << slot * a
    return LaurentPoly._row(_unpack(x, slot))


def compositions(n: int, small: Sequence[int], big: int) -> LaurentPoly:
    """The sum over the compositions of n of q^(the total weight of the parts).

    A part c <= len(small) weighs small[c-1], and every larger part weighs
    big.  No coefficient exceeds the 2^(n-1) compositions, so n-bit slots
    cannot carry, and each level m is one packed integer: the sum of level
    m - c shifted by the weight of c.  The levels below a large last part
    share the shift big, so they enter as one running sum.

    >>> print(compositions(3, [0], 1))  # q^(the number of parts > 1)
    1 + 3*q
    >>> print(compositions(4, [], 1))  # q^(the number of parts)
    q + 3*q^2 + 3*q^3 + q^4
    """
    if n < 0 or big < 0 or small and min(small) < 0:
        raise InvalidInputError(f"need n >= 0 and weights >= 0, got {n}, {small}, {big}")
    slot = _slot_bits(n)
    shifts = [slot * w for w in small]
    levels = [1]
    running = 0  # levels 0 .. m - len(small) - 1, each below a large last part
    for m in range(1, n + 1):
        if m > len(small):
            running += levels[m - len(small) - 1]
        x = running << slot * big
        for c, shift in enumerate(shifts[:m], 1):
            x += levels[m - c] << shift
        levels.append(x)
    return LaurentPoly._row(_unpack(levels[n], slot))


# Row n counts permutations of n letters by descents; grown on demand.
_EULERIAN_ROWS: list[tuple[int, ...]] = [(1,)]


def eulerian_poly(n: int) -> LaurentPoly:
    """The Eulerian polynomial A_n(q), the descent distribution on n letters.

    >>> print(eulerian_poly(3))
    1 + 4*q + q^2
    >>> print(eulerian_poly(5))
    1 + 26*q + 66*q^2 + 26*q^3 + q^4
    """
    if n < 0:
        raise InvalidInputError(f"Eulerian polynomial needs n >= 0, got {n}")
    rows = _EULERIAN_ROWS
    while len(rows) <= n:
        m, prev = len(rows), rows[-1]
        # A(m, j) = (j + 1) A(m-1, j) + (m - j) A(m-1, j-1)
        row = [(j + 1) * c for j, c in enumerate(prev)] + [0]
        for j in range(1, len(row)):
            row[j] += (m - j) * prev[j - 1]
        if not row[-1]:
            row.pop()
        rows.append(tuple(row))
    return LaurentPoly._row(rows[n])


def eulerian_product(sizes: Iterable[int], scale: int = 1) -> LaurentPoly:
    """scale * prod A_m(q) over the sizes m, as one packed integer.

    Every coefficient of the product is nonnegative, so none exceeds its
    value at q = 1, prod m!, which fixes the slot width once; the scale
    multiplies the row after it is unpacked, so it does not widen the
    slots.  Each distinct A_m is packed once and raised to its multiplicity
    by one big-integer power.

    >>> print(eulerian_product([3, 3], 2))
    2 + 16*q + 36*q^2 + 16*q^3 + 2*q^4
    """
    sizes = list(sizes)
    if scale < 1 or min(sizes, default=0) < 0:
        raise InvalidInputError(f"need scale >= 1 and sizes >= 0, got {scale}, {sizes}")
    slot = _slot_bits(math.prod(map(math.factorial, sizes)).bit_length())
    x = 1
    for m, e in Counter(sizes).items():
        x *= _pack(eulerian_poly(m)._coeffs, slot) ** e
    return LaurentPoly._row([c * scale for c in _unpack(x, slot)])


def catalan(n: int) -> int:
    """The n-th Catalan number.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise InvalidInputError(f"Catalan number needs n >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def block_multinomial(n: int, k: int) -> int:
    """
    Ways to distribute n letters into the width-k block shape: with
    n = dk + r this is n! / ((d+1)!^r * d!^(k-r)).
    """
    if k < 1 or n < 0:
        raise InvalidInputError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    d, r = divmod(n, k)
    denom = math.factorial(d + 1) ** r * math.factorial(d) ** (k - r)
    quotient, leftover = divmod(math.factorial(n), denom)
    assert not leftover
    return quotient


class MultiPoly:
    """
    A polynomial in a fixed tuple of named variables, stored sparsely as
    exponent-vector -> coefficient.  Exponents are nonnegative.

    >>> p = MultiPoly(("t1", "t2"), {(1, 1): 1, (1, 0): 2})
    >>> print(p)
    2*t1 + t1*t2
    """

    __slots__ = ("vars", "_terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]] = (),
    ):
        self.vars = tuple(variables)
        if isinstance(terms, Mapping):
            keys, coeffs = list(map(tuple, terms)), list(terms.values())
        else:
            pairs = list(terms)
            keys = list(map(tuple, map(operator.itemgetter(0), pairs)))
            coeffs = list(map(operator.itemgetter(1), pairs))
        # Check every vector in C-level passes; only a failure looks for the
        # first bad vector, to name it.
        size = len(self.vars)
        if keys and (set(map(len, keys)) != {size} or size and min(map(min, keys)) < 0):
            for exps in keys:
                if len(exps) != size:
                    raise InvalidInputError(
                        f"exponent vector {exps!r} does not match variables {self.vars!r}"
                    )
                if any(e < 0 for e in exps):
                    raise InvalidInputError(f"negative exponent in {exps!r}")
        acc = dict(zip(keys, coeffs))
        if len(acc) < len(keys) or not all(coeffs):
            # repeated vectors add up and zero coefficients drop out
            acc = {}
            for exps, c in zip(keys, coeffs):
                if c:
                    acc[exps] = acc.get(exps, 0) + c
                    if not acc[exps]:
                        del acc[exps]
        self._terms = acc

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self._terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self._terms.items())))

    def reflect(self, caps: Sequence[int]) -> "MultiPoly":
        """
        Send each exponent vector e to caps - e componentwise.  This is the
        substitution t_i -> 1/t_i followed by multiplying through by the
        monomial with exponents caps, and it needs every cap to dominate.
        """
        caps = tuple(caps)
        if len(caps) != len(self.vars):
            raise InvalidInputError(
                f"caps {caps!r} do not match variables {self.vars!r}"
            )
        acc = {}
        sub = operator.sub
        for exps, c in self._terms.items():
            flipped = tuple(map(sub, caps, exps))
            if min(flipped, default=0) < 0:
                raise InvalidInputError(
                    f"exponent vector {exps!r} exceeds caps {caps!r}"
                )
            acc[flipped] = c
        return MultiPoly(self.vars, acc)

    def grade(self, weights: Sequence[int]) -> LaurentPoly:
        """
        The grade by a weight vector: substitute q^(w_i) for the i-th
        variable, so each term lands on the exponent dot(weights, exps).
        Weight vectors of 0/1 entries realize the usual set-all-others-to-one
        specializations.  The vector is read through its nonzero entries
        only: its exponents stream from the columns of the term table that it
        weights, with no per-term loop over the variables.
        """
        if len(weights) != len(self.vars):
            raise InvalidInputError(
                f"weights {weights!r} do not match variables {self.vars!r}"
            )
        terms = self._terms
        exps: Iterable[int] = repeat(0)
        for i, x in enumerate(weights):
            if x:
                col = map(operator.itemgetter(i), terms)
                if x != 1:
                    col = map(operator.mul, col, repeat(x))
                exps = map(operator.add, exps, col)
        acc: dict[int, int] = {}
        get = acc.get
        for e, c in zip(exps, terms.values()):
            acc[e] = get(e, 0) + c
        return LaurentPoly(acc)

    def at_ones(self) -> int:
        return sum(self._terms.values())

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [[list(exps), c] for exps, c in self.terms()],
        }

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {dict(self.terms())})"

    def __str__(self) -> str:
        bodies = []
        for exps, c in self.terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if factors and abs(c) == 1:
                bodies.append("*".join(factors) if c > 0 else "-" + "*".join(factors))
            else:
                bodies.append("*".join([str(c), *factors]))
        return _signed_sum(bodies)
