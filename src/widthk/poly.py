"""
Exact polynomials over the integers.

LaurentPoly is univariate in q and allows negative exponents, which the
signed descent-difference generating functions need.  It is stored densely,
as a valuation and the tuple of coefficients from there up to the degree;
large products of nonnegative polynomials take one big-integer product
(Kronecker substitution).  MultiPoly tracks one exponent per named variable,
is stored sparsely, and is used for joint descent distributions.
Coefficients are plain Python ints, so nothing here ever rounds.
"""
from __future__ import annotations

import math
import operator
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from typing import Iterable, Mapping, Sequence

from .errors import InvalidInputError

# Both operands of a product must have at least this many nonzero
# coefficients, and no negative one, for the product to go through Kronecker
# substitution; sparser or signed operands take the schoolbook loop.
KRONECKER_MIN_TERMS = 8


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


# Array typecodes by item size, for slots of 1, 2, 4 or 8 bytes; array items
# are native-endian, so this path is only taken on little-endian hosts.
_SLOT_CODES = (
    {array(code).itemsize: code for code in "BHIQ"} if sys.byteorder == "little" else {}
)


def _pack(row: Sequence[int], width: int, code: str | None) -> int:
    # Coefficient i occupies bytes [i*width, (i+1)*width) of one integer.
    if code:
        raw = array(code, row).tobytes()
    else:
        raw = b"".join(map(int.to_bytes, row, repeat(width), repeat("little")))
    return int.from_bytes(raw, "little")


def _kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """
    Coefficients of the product of two nonnegative coefficient rows by one
    big-integer product: each row is read as the digits of an integer in
    base 2^(8*width), with width large enough that no product coefficient
    carries into the next slot.
    """
    bits = max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()
    width = (bits + 7) // 8
    if width <= 8:
        width = 1 << (width - 1).bit_length()  # 1, 2, 4 or 8 bytes
    code = _SLOT_CODES.get(width)
    x = _pack(a, width, code)
    product = x * x if a is b else x * _pack(b, width, code)
    size = len(a) + len(b) - 1
    raw = product.to_bytes(size * width, "little")
    if code:
        return array(code, raw).tolist()
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, size * width, width)]


class LaurentPoly:
    """
    A Laurent polynomial in q with integer coefficients, stored densely as
    a valuation and the tuple of coefficients from the valuation up to the
    degree, with nonzero ends (the zero polynomial is the empty tuple).
    A product whose operands both have at least KRONECKER_MIN_TERMS nonzero
    coefficients, none negative, is one big-integer product (Kronecker
    substitution); any other product runs the schoolbook loop over the
    nonzero coefficients of the sparser operand.

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
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c}
        if not terms:
            self._val, self._coeffs = 0, ()
            return
        lo = min(terms)
        row = tuple(map(terms.get, range(lo, max(terms) + 1), repeat(0)))
        self._val, self._coeffs = lo, row

    @classmethod
    def _dense(cls, val: int, coeffs: tuple[int, ...]) -> "LaurentPoly":
        # coeffs must already have nonzero ends, or be empty with val 0.
        out = object.__new__(cls)
        out._val, out._coeffs = val, coeffs
        return out

    @staticmethod
    def _coerce(other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly._dense(0, (other,) if other else ())
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    def terms(self) -> list[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        return [(e, c) for e, c in enumerate(self._coeffs, self._val) if c]

    def coeff(self, e: int) -> int:
        i = e - self._val
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        if not self._coeffs:
            raise InvalidInputError("zero polynomial has no degree")
        return self._val + len(self._coeffs) - 1

    @property
    def valuation(self) -> int:
        """Smallest exponent; raises on the zero polynomial."""
        if not self._coeffs:
            raise InvalidInputError("zero polynomial has no valuation")
        return self._val

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._val == other._val and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.terms()))

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
        return LaurentPoly._dense(*_trim(a._val, row))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._dense(self._val, tuple(map(operator.neg, self._coeffs)))

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPoly._dense(
                self._val, tuple(map(operator.mul, self._coeffs, repeat(other)))
            )
        other = self._coerce(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        nonzero_a, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
        if min(nonzero_a, nonzero_b) >= KRONECKER_MIN_TERMS and min(a) >= 0 and min(b) >= 0:
            row = _kronecker(a, b)
        elif nonzero_a <= nonzero_b:
            row = _schoolbook(a, b)
        else:
            row = _schoolbook(b, a)
        # The ends multiply to nonzero ends, so the row needs no trimming.
        return LaurentPoly._dense(self._val + other._val, tuple(row))

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
        if not self._coeffs:
            return self
        return LaurentPoly._dense(self._val + s, self._coeffs)

    def inverse_q(self) -> "LaurentPoly":
        """Substitute q -> 1/q, i.e. negate every exponent."""
        if not self._coeffs:
            return self
        return LaurentPoly._dense(-self.degree, self._coeffs[::-1])

    def __call__(self, x: int | Fraction) -> int | Fraction:
        """Evaluate exactly; negative exponents go through Fraction."""
        total: int | Fraction = 0
        for c in reversed(self._coeffs):
            total = total * x + c
        if self._coeffs and self._val:
            total *= Fraction(x) ** self._val if self._val < 0 else x**self._val
        if isinstance(total, Fraction) and total.denominator == 1:
            return int(total)
        return total

    def to_json(self) -> dict:
        return {"terms": [[e, c] for e, c in self.terms()]}

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPoly":
        return cls((int(e), int(c)) for e, c in data["terms"])

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            if e == 0:
                body = str(abs(c))
            else:
                q = "q" if e == 1 else f"q^{e}"
                body = q if abs(c) == 1 else f"{abs(c)}*{q}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)


def _trim(val: int, row: list[int]) -> tuple[int, tuple[int, ...]]:
    """Drop zero ends: the (valuation, coefficients) of a dense row at val."""
    if row[0] and row[-1]:
        return val, tuple(row)
    hi = len(row)
    while hi and not row[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not row[lo]:
        lo += 1
    if lo == hi:
        return 0, ()
    return val + lo, tuple(row[lo:hi])


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})


def q_power(e: int, c: int = 1) -> LaurentPoly:
    """The monomial c * q^e."""
    return LaurentPoly._dense(e, (c,)) if c else ZERO


def q_integer(m: int) -> LaurentPoly:
    """[m]_q = 1 + q + ... + q^(m-1).

    >>> print(q_integer(3))
    1 + q + q^2
    """
    if m < 0:
        raise InvalidInputError(f"q-integer needs m >= 0, got {m}")
    return LaurentPoly({e: 1 for e in range(m)})


def q_factorial(m: int) -> LaurentPoly:
    """[m]_q! = [1]_q [2]_q ... [m]_q.

    Multiplying by [i]_q is a sliding-window sum of width i, taken as a
    difference of prefix sums.

    >>> print(q_factorial(3))
    1 + 2*q + 2*q^2 + q^3
    """
    if m < 0:
        raise InvalidInputError(f"q-factorial needs m >= 0, got {m}")
    row = [1]
    for i in range(2, m + 1):
        # coefficient t of row * [i]_q is prefix[t + 1] - prefix[t + 1 - i],
        # where prefix[j] sums the first j coefficients and is 0 for j <= 0
        row.extend(repeat(0, i - 1))
        prefix = list(accumulate(row, initial=0))
        row = list(map(operator.sub, prefix[1:], chain(repeat(0, i - 1), prefix)))
    return LaurentPoly._dense(0, tuple(row))


@lru_cache(maxsize=None)
def _eulerian_row(n: int) -> tuple[int, ...]:
    # row[j] counts permutations of n letters with j descents
    if n == 0:
        return (1,)
    prev = _eulerian_row(n - 1)
    row = [0] * max(n, 1)
    for j in range(len(row)):
        row[j] = (j + 1) * (prev[j] if j < len(prev) else 0)
        if j >= 1:
            row[j] += (n - j) * prev[j - 1]
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return tuple(row)


def eulerian_poly(n: int) -> LaurentPoly:
    """The Eulerian polynomial A_n(q), the descent distribution on n letters.

    >>> print(eulerian_poly(3))
    1 + 4*q + q^2
    >>> print(eulerian_poly(5))
    1 + 26*q + 66*q^2 + 26*q^3 + q^4
    """
    if n < 0:
        raise InvalidInputError(f"Eulerian polynomial needs n >= 0, got {n}")
    return LaurentPoly(dict(enumerate(_eulerian_row(n))))


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

    >>> t = MultiPoly.gens(("t1", "t2"))
    >>> print(t["t1"] * t["t2"] + 2 * t["t1"])
    2*t1 + t1*t2
    """

    __slots__ = ("vars", "_terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]] = (),
    ):
        self.vars = tuple(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], int] = {}
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise InvalidInputError(
                    f"exponent vector {exps!r} does not match variables {self.vars!r}"
                )
            if any(e < 0 for e in exps):
                raise InvalidInputError(f"negative exponent in {exps!r}")
            if c:
                acc[exps] = acc.get(exps, 0) + c
                if not acc[exps]:
                    del acc[exps]
        self._terms = acc

    @classmethod
    def one(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {(0,) * len(tuple(variables)): 1})

    @classmethod
    def monomial(
        cls, variables: Sequence[str], exps: Sequence[int], coeff: int = 1
    ) -> "MultiPoly":
        return cls(variables, {tuple(exps): coeff})

    @classmethod
    def gens(cls, variables: Sequence[str]) -> dict[str, "MultiPoly"]:
        """One degree-one monomial per variable, keyed by name."""
        variables = tuple(variables)
        out = {}
        for i, v in enumerate(variables):
            exps = tuple(1 if j == i else 0 for j in range(len(variables)))
            out[v] = cls(variables, {exps: 1})
        return out

    def _check_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise InvalidInputError(
                f"variable mismatch: {self.vars!r} vs {other.vars!r}"
            )

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self._terms.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly(self.vars, {(0,) * len(self.vars): other})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self._terms.items())))

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly(self.vars, {(0,) * len(self.vars): other})
        self._check_vars(other)
        acc = dict(self._terms)
        for exps, c in other._terms.items():
            acc[exps] = acc.get(exps, 0) + c
        return MultiPoly(self.vars, acc)

    __radd__ = __add__

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(
                self.vars, {exps: c * other for exps, c in self._terms.items()}
            )
        self._check_vars(other)
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return MultiPoly(self.vars, acc)

    __rmul__ = __mul__

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
        for exps, c in self._terms.items():
            flipped = tuple(m - e for m, e in zip(caps, exps))
            if any(e < 0 for e in flipped):
                raise InvalidInputError(
                    f"exponent vector {exps!r} exceeds caps {caps!r}"
                )
            acc[flipped] = c
        return MultiPoly(self.vars, acc)

    def grade(self, weights: Sequence[int]) -> LaurentPoly:
        """
        Substitute q^(w_i) for the i-th variable: each term lands on the
        exponent dot(weights, exps).  Weight vectors of 0/1 entries realize
        the usual set-all-others-to-one specializations.
        """
        weights = tuple(weights)
        if len(weights) != len(self.vars):
            raise InvalidInputError(
                f"weights {weights!r} do not match variables {self.vars!r}"
            )
        acc: dict[int, int] = {}
        for exps, c in self._terms.items():
            e = sum(map(operator.mul, weights, exps))
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(acc)

    def at_ones(self) -> int:
        return sum(self._terms.values())

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [[list(exps), c] for exps, c in self.terms()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MultiPoly":
        return cls(
            tuple(data["vars"]),
            ((tuple(int(e) for e in exps), int(c)) for exps, c in data["terms"]),
        )

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {dict(self.terms())})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, c in self.terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)
