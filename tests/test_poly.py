"""Exact polynomial arithmetic: ring laws, known rows, serialization."""

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthk import poly
from widthk.errors import InvalidInputError
from widthk.poly import (
    ONE,
    ZERO,
    LaurentPoly,
    MultiPoly,
    binomial_product,
    block_multinomial,
    catalan,
    compositions,
    eulerian_poly,
    eulerian_product,
    q_factorial,
    q_factorial_product,
)

Q = LaurentPoly({1: 1})

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)


def test_constructor_accumulates_and_drops_zeros():
    assert LaurentPoly({2: 0, 1: 3}).terms() == [(1, 3)]
    assert LaurentPoly([(0, 1), (0, 1)]).terms() == [(0, 2)]
    assert LaurentPoly([(1, 2), (1, -2)]) == ZERO
    assert LaurentPoly().terms() == []


def test_basic_arithmetic():
    p = ONE + Q
    assert (p * p).terms() == [(0, 1), (1, 2), (2, 1)]
    assert (p - p) == ZERO
    assert (p * 0).terms() == []
    assert 2 * p == p + p
    assert (3 - p).terms() == [(0, 2), (1, -1)]
    assert (-p).terms() == [(0, -1), (1, -1)]
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
    assert p.terms()[0] == (-2, 1)
    with pytest.raises(InvalidInputError):
        _ = ZERO.degree


def test_evaluation_is_exact():
    p = LaurentPoly({-1: 1, 0: 1})
    assert p(2) == Fraction(3, 2)
    assert p(1) == 2
    assert isinstance(p(1), int)
    assert q_factorial(4)(1) == 24
    assert eulerian_poly(5)(1) == 120


def test_evaluation_at_zero_refuses_a_pole():
    # a negative exponent has no value at 0; no exponent below 0, no pole
    for p in (LaurentPoly({-1: 1}), LaurentPoly({-2: 3, 4: 1})):
        with pytest.raises(InvalidInputError, match="cannot evaluate at 0"):
            p(0)
        with pytest.raises(InvalidInputError):
            p(Fraction(0))
    assert LaurentPoly({0: 2, 1: 1})(0) == 2
    assert LaurentPoly({2: 1})(0) == 0
    assert ZERO(0) == 0


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE + Q) == "1 + q"
    assert str(LaurentPoly({-1: 1, 0: 1})) == "q^-1 + 1"
    assert str(LaurentPoly({0: 1, 1: 26, 2: 66})) == "1 + 26*q + 66*q^2"
    assert str(LaurentPoly({1: -1, 0: 1})) == "1 - q"
    assert str(LaurentPoly({3: -2})) == "-2*q^3"


def test_q_factorial_rows():
    assert q_factorial(0) == ONE
    # [4]_q! expanded by hand
    assert q_factorial(4).terms() == [
        (0, 1), (1, 3), (2, 5), (3, 6), (4, 5), (5, 3), (6, 1),
    ]
    with pytest.raises(InvalidInputError):
        q_factorial(-1)


def test_eulerian_rows():
    assert eulerian_poly(0) == ONE
    assert eulerian_poly(1) == ONE
    assert eulerian_poly(3).terms() == [(0, 1), (1, 4), (2, 1)]
    assert eulerian_poly(5).terms() == [(0, 1), (1, 26), (2, 66), (3, 26), (4, 1)]
    for n in range(1, 9):
        p = eulerian_poly(n)
        assert p(1) == math.factorial(n)
        assert p == p.inverse_q().shift(n - 1)  # palindromic


def test_eulerian_rows_past_the_recursion_limit():
    # the rows are built by a loop, so n far past 1000 frames' worth is fine
    p = eulerian_poly(600)
    assert p(1) == math.factorial(600)
    assert p == p.inverse_q().shift(599)


def test_catalan_and_block_multinomial():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert block_multinomial(7, 2) == 35  # 7!/(4!*3!)
    assert block_multinomial(6, 3) == 90  # 6!/(2!^3)
    assert block_multinomial(5, 5) == 120
    with pytest.raises(InvalidInputError):
        block_multinomial(3, 0)


def from_json(data) -> LaurentPoly:
    return LaurentPoly(map(tuple, data["terms"]))


def test_laurent_json_roundtrip():
    p = LaurentPoly({-2: 4, -1: 16, 0: 4})
    assert p.to_json() == {"terms": [[-2, 4], [-1, 16], [0, 4]]}
    assert from_json(p.to_json()) == p
    assert ZERO.to_json() == {"terms": []}
    assert from_json({"terms": []}) == ZERO


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
    assert from_json(p.to_json()) == p
    assert p.inverse_q().inverse_q() == p
    assert p.shift(3).shift(-3) == p


# ---------------------------------------------------------------------------
# MultiPoly


def test_multipoly_basics():
    # the constructor adds up repeated exponent vectors and drops zeros
    p = MultiPoly(("t1", "t2"), [((1, 1), 1), ((1, 0), 1), ((0, 0), 0), ((1, 0), 1)])
    assert str(p) == "2*t1 + t1*t2"
    assert p.at_ones() == 3
    assert p == MultiPoly(("t1", "t2"), {(1, 1): 1, (1, 0): 2})
    assert hash(p) == hash(MultiPoly(["t1", "t2"], {(1, 0): 2, (1, 1): 1}))
    assert p != MultiPoly(("t2", "t1"), {(1, 1): 1, (1, 0): 2})
    cancelled = MultiPoly(("t1",), [((1,), 2), ((1,), -2)])
    assert cancelled == MultiPoly(("t1",)) and cancelled.terms() == []
    assert str(cancelled) == "0" and cancelled.at_ones() == 0
    with pytest.raises(InvalidInputError):
        MultiPoly(("t1",), {(1, 2): 1})
    with pytest.raises(InvalidInputError):
        MultiPoly(("t1",), {(-1,): 1})


@pytest.mark.parametrize(
    "variables, terms, message",
    [
        (("t1", "t2"), {(0, 0): 1, (1,): 2, (2, 1): 1},
         "exponent vector (1,) does not match variables ('t1', 't2')"),
        (("t1", "t2"), [((1, 0), 1), ((0, 1, 0), 0)],
         "exponent vector (0, 1, 0) does not match variables ('t1', 't2')"),
        ((), {(): 1, (0,): 1}, "exponent vector (0,) does not match variables ()"),
        (("t1", "t2"), {(0, 0): 1, (3, -1): 2, (-2, 0): 1}, "negative exponent in (3, -1)"),
        (("t1",), [([0], 1), ([-1], 0)], "negative exponent in (-1,)"),
        # the first bad vector is named, whichever check it fails
        (("t1", "t2"), {(0, -1): 1, (1,): 1}, "negative exponent in (0, -1)"),
        (("t1", "t2"), {(1,): 1, (0, -1): 1}, "exponent vector (1,) does not match"),
    ],
)
def test_multipoly_names_the_bad_vector(variables, terms, message):
    with pytest.raises(InvalidInputError) as info:
        MultiPoly(variables, terms)
    assert str(info.value).startswith(message)


def test_multipoly_reflect():
    p = MultiPoly(("t1", "t2"), {(0, 0): 1, (2, 1): 3})
    r = p.reflect((2, 1))
    assert r == MultiPoly(("t1", "t2"), {(2, 1): 1, (0, 0): 3})
    assert r.reflect((2, 1)) == p
    with pytest.raises(InvalidInputError, match=r"exponent vector \(2, 1\) exceeds caps \(1, 1\)"):
        p.reflect((1, 1))
    with pytest.raises(InvalidInputError):
        p.reflect((2,))
    one = MultiPoly((), {(): 1})  # t_polynomial at n = 1 has no variable
    assert one.reflect(()) == one


def test_multipoly_specializations():
    p = MultiPoly(("t1", "t2"), {(0, 0): 1, (1, 0): 2, (1, 1): 2, (2, 1): 1})
    # a 0/1 weight vector sets every unmarked variable to 1
    rows = [(1, 0), (0, 1), (0, 0), (1, 1), (1, -1)]
    assert [p.grade(w).terms() for w in rows] == [
        [(0, 1), (1, 4), (2, 1)],
        [(0, 3), (1, 3)],
        [(0, 6)],
        [(0, 1), (1, 2), (2, 2), (3, 1)],
        [(0, 3), (1, 3)],
    ]
    assert p.at_ones() == 6
    with pytest.raises(InvalidInputError):
        p.grade((1,))
    with pytest.raises(InvalidInputError):
        p.grade((1, 0, 0))


multipolys = st.integers(0, 4).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.dictionaries(
            st.tuples(*[st.integers(0, 5)] * size), st.integers(-9, 9), max_size=12
        ),
        st.lists(st.tuples(*[st.integers(-3, 3)] * size), max_size=5),
    )
)


@given(multipolys)
@settings(max_examples=150)
def test_grades_match_per_row_dot_products(case):
    # each row's grade against a per-term dot product
    size, terms, rows = case
    p = MultiPoly([f"t{g}" for g in range(1, size + 1)], terms)
    expected = []
    for weights in rows:
        acc = {}
        for exps, c in terms.items():
            e = sum(w * x for w, x in zip(weights, exps))
            acc[e] = acc.get(e, 0) + c
        expected.append(LaurentPoly(acc))
    assert [p.grade(w) for w in rows] == expected
    with pytest.raises(InvalidInputError):
        p.grade((0,) * (size + 1))


def test_multipoly_json_roundtrip():
    p = MultiPoly(("t1", "t2"), {(1, 1): 1, (1, 0): 2})
    data = p.to_json()
    assert data == {"vars": ["t1", "t2"], "terms": [[[1, 0], 2], [[1, 1], 1]]}
    assert MultiPoly(data["vars"], data["terms"]) == p


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
    # a valuation and a dense run of drawn coefficients; drawn zeros leave
    # gaps inside the run
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


# the four array slots, and one slot past them that goes through to_bytes
_SLOTS = (8, 16, 32, 64, 72)


@given(st.sampled_from(_SLOTS), st.integers(-5, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_packed_rows_round_trip(slot, val, data):
    # rows with zero ends and interior zeros: unpacking reads up to the top
    # nonzero slot, and the row constructor drops the zero ends
    coeff = st.one_of(st.just(0), st.integers(1, 2**slot - 1))
    zeros = st.integers(0, 3).map(lambda m: [0] * m)
    low, body, high = data.draw(zeros), data.draw(st.lists(coeff, max_size=20)), data.draw(zeros)
    row = low + body + high
    nonzero = [i for i, c in enumerate(row) if c]
    unpacked = poly._unpack(poly._pack(row, slot), slot)
    assert poly._slot_bits(slot) == slot
    assert unpacked == row[: nonzero[-1] + 1 if nonzero else 0]
    p = LaurentPoly._row(unpacked, val)
    assert p == LaurentPoly(dict(enumerate(row, val))) == LaurentPoly._row(row, val)
    # stored with nonzero ends from the first nonzero coefficient
    assert (p._val, p._coeffs) == (
        (val + nonzero[0], tuple(row[nonzero[0] : nonzero[-1] + 1])) if nonzero else (0, ())
    )


@pytest.mark.parametrize("slot", _SLOTS)
def test_zero_unpacks_to_no_slots_and_the_zero_polynomial(slot):
    assert poly._unpack(0, slot) == []
    assert poly._unpack(poly._pack([0, 0, 0], slot), slot) == []
    for row in ([], [0], [0] * 5):
        zero = LaurentPoly._row(row, 7)
        assert zero == ZERO and zero.terms() == [] and hash(zero) == hash(0)


def per_factor_product(factors, scale=1) -> LaurentPoly:
    """
    scale * prod (1 + q^a)^e by one LaurentPoly power and product per
    factor: the independent oracle for the packed `binomial_product`.
    """
    out = LaurentPoly({0: scale})
    for a, e in factors:
        out = out * LaurentPoly([(0, 1), (a, 1)]) ** e
    return out


_factor_lists = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(0, 40)), st.integers(0, 12)), max_size=8
)


@given(_factor_lists, st.one_of(st.just(1), st.integers(1, 300), st.integers(1, 2**70)))
@settings(max_examples=300, deadline=None)
def test_binomial_product_matches_per_factor_product(factors, scale):
    got = binomial_product(factors, scale)
    assert got == per_factor_product(factors, scale)
    assert got(1) == scale << sum(e for _, e in factors)


def test_binomial_product_edge_cases():
    assert binomial_product([]) == ONE
    assert binomial_product([], 5) == 5
    assert binomial_product([(0, 3)], 3) == 24  # (1 + q^0)^3 = 8
    assert binomial_product([(4, 0), (1, 1)]) == ONE + Q
    for scale, factors in ((0, []), (-1, [(1, 1)]), (1, [(-1, 1)]), (1, [(1, -1)])):
        with pytest.raises(InvalidInputError):
            binomial_product(factors, scale)


def enumerated_compositions(n, small, big) -> LaurentPoly:
    """
    The weight polynomial of the compositions of n, listed one by one: each
    set of cuts among the n - 1 gaps gives one composition.  The independent
    oracle for the packed `compositions`.
    """
    acc = {}
    for r in range(n):
        for cuts in combinations(range(1, n), r):
            bounds = (0, *cuts, n)
            parts = [b - a for a, b in zip(bounds, bounds[1:])]
            e = sum(small[c - 1] if c <= len(small) else big for c in parts)
            acc[e] = acc.get(e, 0) + 1
    return LaurentPoly(acc) if n else ONE


@pytest.mark.parametrize(
    "small, big",
    [([], 0), ([], 1), ([0], 1), ([0, 0, 0], 1), ([1], 2), ([1, 2], 3),
     ([3, 0, 2, 1], 2), ([2, 2], 0), ([0, 1, 0, 1, 0], 3)],
)
def test_compositions_match_enumeration(small, big):
    for n in range(13):
        got = compositions(n, small, big)
        assert got == enumerated_compositions(n, small, big), n
        assert got(1) == 2 ** max(n - 1, 0)


def test_compositions_reject_negative_arguments():
    assert compositions(0, [5], 7) == ONE
    for n, small, big in ((-1, [], 1), (3, [0, -1], 1), (3, [1], -1)):
        with pytest.raises(InvalidInputError):
            compositions(n, small, big)


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
            q_int = LaurentPoly({e: 1 for e in range(i)})  # [i]_q
            want = oracle_product(LaurentPoly(want), q_int)
        assert q_factorial(m).terms() == want


@given(st.lists(st.integers(0, 12), max_size=5), st.integers(1, 2**70))
@settings(max_examples=100, deadline=None)
def test_q_factorial_product_matches_product_of_q_integers(sizes, scale):
    want = [(0, scale)]
    for m in sizes:
        for i in range(1, m + 1):
            want = oracle_product(LaurentPoly(want), LaurentPoly({e: 1 for e in range(i)}))
    assert q_factorial_product(sizes, scale).terms() == want
    assert q_factorial_product(iter(sizes), scale).terms() == want


def test_q_factorial_product_edge_cases():
    assert q_factorial_product([]) == ONE
    assert q_factorial_product([], 7) == q_factorial_product([0, 1], 7) == 7
    for sizes, scale in (([], 0), ([3], -2), ([2, -1], 1)):
        with pytest.raises(InvalidInputError):
            q_factorial_product(sizes, scale)


def per_factor_eulerian(sizes, scale=1) -> LaurentPoly:
    """
    scale * prod A_m(q) by one LaurentPoly product per factor: the
    independent oracle for the packed `eulerian_product`.
    """
    return reduce(lambda acc, m: acc * eulerian_poly(m), sizes, LaurentPoly({0: scale}))


def test_eulerian_product_slots_hold_the_value_at_one(monkeypatch):
    # each pair of size lists straddles a step of the slot that holds
    # prod m!: 8 to 16, 16 to 32, 32 to 64, 64 to 72 bits, and one step
    # between two byte widths above 64; the scale leaves the slot as it is
    steps = {
        ((3, 3, 3), (2, 3, 3, 3)): [8, 16],
        ((4, 4, 4, 2), (4, 4, 4, 3)): [16, 32],
        ((6, 6, 6, 3), (6, 6, 6, 4)): [32, 64],
        ((12, 12, 4), (12, 12, 5)): [64, 72],
        ((30, 30, 1), (30, 30, 4)): [216, 224],
    }
    slots = []
    slot_bits = poly._slot_bits
    monkeypatch.setattr(
        poly, "_slot_bits", lambda bits: slots.append(slot_bits(bits)) or slot_bits(bits)
    )
    for (below, above), want in steps.items():
        for scale in (1, 3, 2**70):
            slots.clear()
            assert eulerian_product(below, scale) == per_factor_eulerian(below, scale)
            assert eulerian_product(above, scale) == per_factor_eulerian(above, scale)
            assert slots == want, (below, above, scale)


@given(st.lists(st.integers(0, 16), max_size=6), st.integers(1, 2**70))
@settings(max_examples=100, deadline=None)
def test_eulerian_product_matches_per_factor_product(sizes, scale):
    got = eulerian_product(sizes, scale)
    assert got == per_factor_eulerian(sizes, scale)
    assert got(1) == scale * math.prod(map(math.factorial, sizes))


def test_eulerian_product_edge_cases():
    assert eulerian_product([]) == ONE
    assert eulerian_product([], 5) == eulerian_product([0, 1, 1, 0], 5) == 5
    assert eulerian_product(iter([3, 2]), 2) == 2 * eulerian_poly(3) * eulerian_poly(2)
    for sizes, scale in (([], 0), ([3], -2), ([2, -1], 1)):
        with pytest.raises(InvalidInputError):
            eulerian_product(sizes, scale)


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
    assert a.degree == 1
    assert (a - b) == ZERO == 0 and hash(a - b) == hash(ZERO) == hash(0)
    # a constant equals its int, so it is the same dict key
    assert LaurentPoly({0: 3}) == 3 and hash(LaurentPoly({0: 3})) == hash(3)
    assert {3: "x"}[LaurentPoly({0: 3})] == "x" and {0: "z"}[ZERO] == "z"
    assert repr(LaurentPoly({2: 3, 0: 1})) == "LaurentPoly({0: 1, 2: 3})"
