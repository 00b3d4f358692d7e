"""Exact polynomial arithmetic: ring laws, known rows, serialization."""

import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthk import poly
from widthk.errors import InvalidInputError
from widthk.poly import (
    KRONECKER_MIN_TERMS,
    ONE,
    Q,
    ZERO,
    LaurentPoly,
    MultiPoly,
    block_multinomial,
    catalan,
    eulerian_poly,
    q_factorial,
    q_integer,
    q_power,
)

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)


def test_constructor_accumulates_and_drops_zeros():
    assert LaurentPoly({2: 0, 1: 3}).terms() == [(1, 3)]
    assert LaurentPoly([(0, 1), (0, 1)]).terms() == [(0, 2)]
    assert LaurentPoly([(1, 2), (1, -2)]).is_zero()
    assert LaurentPoly().is_zero()


def test_basic_arithmetic():
    p = ONE + Q
    assert (p * p).terms() == [(0, 1), (1, 2), (2, 1)]
    assert (p - p).is_zero()
    assert (p * 0).is_zero()
    assert 2 * p == p + p
    assert (3 - p).terms() == [(0, 2), (1, -1)]
    assert (-p).coeff(1) == -1
    assert p**0 == ONE
    assert p**3 == p * p * p
    with pytest.raises(InvalidInputError):
        p ** (-1)
    with pytest.raises(TypeError):
        p * 1.5


def test_shift_and_inverse_q():
    p = LaurentPoly({0: 4, 1: 16, 2: 4})
    assert p.shift(-2).terms() == [(-2, 4), (-1, 16), (0, 4)]
    assert p.shift(-2).shift(2) == p
    assert p.inverse_q().terms() == [(-2, 4), (-1, 16), (0, 4)]
    assert p.inverse_q().inverse_q() == p


def test_degree_valuation_and_zero():
    p = LaurentPoly({-2: 1, 3: 5})
    assert p.degree == 3
    assert p.valuation == -2
    with pytest.raises(InvalidInputError):
        _ = ZERO.degree
    with pytest.raises(InvalidInputError):
        _ = ZERO.valuation


def test_evaluation_is_exact():
    p = LaurentPoly({-1: 1, 0: 1})
    assert p(2) == Fraction(3, 2)
    assert p(1) == 2
    assert isinstance(p(1), int)
    assert q_factorial(4)(1) == 24
    assert eulerian_poly(5)(1) == 120


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE + Q) == "1 + q"
    assert str(LaurentPoly({-1: 1, 0: 1})) == "q^-1 + 1"
    assert str(LaurentPoly({0: 1, 1: 26, 2: 66})) == "1 + 26*q + 66*q^2"
    assert str(LaurentPoly({1: -1, 0: 1})) == "1 - q"
    assert str(q_power(3, -2)) == "-2*q^3"


def test_q_integer_and_factorial_rows():
    assert q_integer(0).is_zero()
    assert q_integer(3).terms() == [(0, 1), (1, 1), (2, 1)]
    assert q_factorial(0) == ONE
    # [4]_q! expanded by hand
    assert q_factorial(4).terms() == [
        (0, 1), (1, 3), (2, 5), (3, 6), (4, 5), (5, 3), (6, 1),
    ]
    with pytest.raises(InvalidInputError):
        q_integer(-1)


def test_eulerian_rows():
    assert eulerian_poly(0) == ONE
    assert eulerian_poly(1) == ONE
    assert eulerian_poly(3).terms() == [(0, 1), (1, 4), (2, 1)]
    assert eulerian_poly(5).terms() == [(0, 1), (1, 26), (2, 66), (3, 26), (4, 1)]
    for n in range(1, 9):
        p = eulerian_poly(n)
        assert p(1) == math.factorial(n)
        assert p == p.inverse_q().shift(n - 1)  # palindromic


def test_catalan_and_block_multinomial():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert block_multinomial(7, 2) == 35  # 7!/(4!*3!)
    assert block_multinomial(6, 3) == 90  # 6!/(2!^3)
    assert block_multinomial(5, 5) == 120
    with pytest.raises(InvalidInputError):
        block_multinomial(3, 0)


def test_laurent_json_roundtrip():
    p = LaurentPoly({-2: 4, -1: 16, 0: 4})
    assert p.to_json() == {"terms": [[-2, 4], [-1, 16], [0, 4]]}
    assert LaurentPoly.from_json(p.to_json()) == p
    assert LaurentPoly.from_json({"terms": []}).is_zero()


@given(laurents, laurents, laurents)
@settings(max_examples=200)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(laurents, laurents, st.integers(-3, 3).filter(lambda x: x != 0))
@settings(max_examples=200)
def test_evaluation_is_a_homomorphism(a, b, x):
    assert (a + b)(x) == a(x) + b(x)
    assert (a * b)(x) == a(x) * b(x)


@given(laurents)
def test_json_and_inverse_roundtrip(p):
    assert LaurentPoly.from_json(p.to_json()) == p
    assert p.inverse_q().inverse_q() == p
    assert p.shift(3).shift(-3) == p


# ---------------------------------------------------------------------------
# MultiPoly


def test_multipoly_basics():
    t = MultiPoly.gens(("t1", "t2"))
    p = t["t1"] * t["t2"] + 2 * t["t1"]
    assert str(p) == "2*t1 + t1*t2"
    assert p.at_ones() == 3
    assert p == MultiPoly(("t1", "t2"), {(1, 1): 1, (1, 0): 2})
    with pytest.raises(InvalidInputError):
        MultiPoly(("t1",), {(1, 2): 1})
    with pytest.raises(InvalidInputError):
        MultiPoly(("t1",), {(-1,): 1})
    with pytest.raises(InvalidInputError):
        p + MultiPoly.one(("t1",))


def test_multipoly_reflect():
    p = MultiPoly(("t1", "t2"), {(0, 0): 1, (2, 1): 3})
    r = p.reflect((2, 1))
    assert r == MultiPoly(("t1", "t2"), {(2, 1): 1, (0, 0): 3})
    assert r.reflect((2, 1)) == p
    with pytest.raises(InvalidInputError):
        p.reflect((1, 1))
    with pytest.raises(InvalidInputError):
        p.reflect((2,))


def test_multipoly_specializations():
    p = MultiPoly(("t1", "t2"), {(0, 0): 1, (1, 0): 2, (1, 1): 2, (2, 1): 1})
    # a 0/1 weight vector sets every unmarked variable to 1
    assert p.grade((1, 0)).terms() == [(0, 1), (1, 4), (2, 1)]
    assert p.grade((0, 1)).terms() == [(0, 3), (1, 3)]
    assert p.grade((0, 0)).terms() == [(0, 6)]
    assert p.grade((1, 1)).terms() == [(0, 1), (1, 2), (2, 2), (3, 1)]
    assert p.grade((1, -1)).terms() == [(0, 3), (1, 3)]
    assert p.at_ones() == 6
    with pytest.raises(InvalidInputError):
        p.grade((1,))
    with pytest.raises(InvalidInputError):
        p.grade((1, 0, 0))


def test_multipoly_json_roundtrip():
    p = MultiPoly(("t1", "t2"), {(1, 1): 1, (1, 0): 2})
    data = p.to_json()
    assert data == {"vars": ["t1", "t2"], "terms": [[[1, 0], 2], [[1, 1], 1]]}
    assert MultiPoly.from_json(data) == p


# ---------------------------------------------------------------------------
# Fast multiply against an independent oracle


def oracle_product(a, b) -> list[tuple[int, int]]:
    """Schoolbook product over exponent -> coefficient dicts; ints are constants."""
    def items(p):
        return p.terms() if isinstance(p, LaurentPoly) else ([(0, p)] if p else [])

    acc: dict[int, int] = {}
    for e1, c1 in items(a):
        for e2, c2 in items(b):
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return [(e, c) for e, c in sorted(acc.items()) if c]


def _dense_poly(draw_coeffs):
    # a valuation and a run of coefficients whose length crosses the
    # Kronecker threshold; drawn zeros leave gaps inside the run
    return st.tuples(st.integers(-8, 8), draw_coeffs).map(
        lambda vc: LaurentPoly({vc[0] + i: c for i, c in enumerate(vc[1])})
    )


_wide_nonnegative = _dense_poly(st.lists(
    st.one_of(st.integers(0, 3), st.integers(0, 2**64), st.integers(2**300, 2**400)),
    max_size=40,
))
_wide_signed = _dense_poly(st.lists(st.integers(-(2**200), 2**200), max_size=30))
polys = st.one_of(laurents, _wide_nonnegative, _wide_signed)


@given(polys, st.one_of(polys, st.integers(-(2**70), 2**70)))
@settings(max_examples=300, deadline=None)
def test_product_matches_dict_oracle(a, b):
    want = oracle_product(a, b)
    assert (a * b).terms() == want
    assert (b * a).terms() == want
    assert (a * a).terms() == oracle_product(a, a)


@given(st.one_of(laurents, _dense_poly(st.lists(st.integers(0, 2**80), max_size=12))),
       st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_power_matches_repeated_product(p, e):
    assert p**e == reduce(lambda acc, _: acc * p, range(e), ONE)


def test_both_multiply_paths_are_taken(monkeypatch):
    calls = []
    kronecker = poly._kronecker
    monkeypatch.setattr(poly, "_kronecker", lambda a, b: calls.append(1) or kronecker(a, b))
    long = LaurentPoly({e: e + 1 for e in range(KRONECKER_MIN_TERMS)})
    short = LaurentPoly({e: e + 1 for e in range(KRONECKER_MIN_TERMS - 1)})
    sparse = LaurentPoly({0: 1, 100: 1})
    signed = long - q_power(3, 100)
    assert (long * long).terms() == oracle_product(long, long) and len(calls) == 1
    for a in (short, sparse, signed):
        assert (a * long).terms() == oracle_product(a, long)
    assert len(calls) == 1


def test_kronecker_slots_hold_the_largest_coefficients():
    # all-ones rows give the largest possible middle coefficient, min(len)
    for length in (8, 255, 256, 257):
        for c in (1, 255, 256, 2**64 - 1, 2**64, 2**333):
            row = (c,) * length
            assert poly._kronecker(row, row) == poly._schoolbook(row, row)


def test_power_makes_one_squaring_per_bit_and_one_product_per_set_bit(monkeypatch):
    calls = []
    mul = LaurentPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    p = ONE + Q
    for e in range(0, 70):
        calls.clear()
        assert p**e == LaurentPoly({i: math.comb(e, i) for i in range(e + 1)})
        assert len(calls) == max(e.bit_length() - 1, 0) + bin(e).count("1")


def test_q_factorial_matches_product_of_q_integers():
    for m in range(0, 25):
        want = [(0, 1)]
        for i in range(1, m + 1):
            want = oracle_product(LaurentPoly(want), q_integer(i))
        assert q_factorial(m).terms() == want


@given(laurents, st.one_of(st.integers(-4, 4).filter(bool),
                           st.fractions(-3, 3).filter(bool)))
def test_evaluation_matches_termwise_sum(p, x):
    want = sum(Fraction(c) * Fraction(x) ** e for e, c in p.terms())
    assert p(x) == want
    if want.denominator == 1:
        assert type(p(x)) is int


def test_dense_storage_keeps_equality_and_hash_canonical():
    a = LaurentPoly({5: 0, 1: 2, 3: 0, -1: 0})
    b = LaurentPoly([(1, 1), (2, 7), (1, 1), (2, -7)])
    assert a == b and hash(a) == hash(b) and a.terms() == [(1, 2)]
    assert a.valuation == a.degree == 1
    assert (a - b) == ZERO == 0 and hash(a - b) == hash(ZERO)
    assert q_power(2, 0) == ZERO
    assert repr(LaurentPoly({2: 3, 0: 1})) == "LaurentPoly({0: 1, 2: 3})"
