"""Polynomial output against the per-term loops it replaced.

LaurentPoly and MultiPoly build their text and json in C-level passes over
their terms, and the CLI writes each csv table in one piece.  The loops
below are the per-term versions they replaced, kept verbatim as oracles;
the output must match them byte for byte."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthk import genfun
from widthk.cli import _emit_poly_csv, main
from widthk.perm import format_perm, parse_patterns
from widthk.poly import LaurentPoly, MultiPoly

# ---------------------------------------------------------------------------
# the per-term oracles


def _signed_sum(terms):
    # "b0 + b1 - b2" from the terms (c, body of |c|), "0" from none: each
    # sign but the first is spaced off its body, and a first "+" is dropped
    text = " ".join(f"{'+' if c > 0 else '-'} {body}" for c, body in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def laurent_str(self):
    terms = []
    for e, c in self.terms():
        if e == 0:
            body = str(abs(c))
        else:
            q = "q" if e == 1 else f"q^{e}"
            body = q if abs(c) == 1 else f"{abs(c)}*{q}"
        terms.append((c, body))
    return _signed_sum(terms)


def laurent_json(self):
    return {"terms": [[e, c] for e, c in self.terms()]}


def multi_str(self):
    terms = []
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
        terms.append((c, body))
    return _signed_sum(terms)


def multi_json(self):
    return {
        "vars": list(self.vars),
        "terms": [[list(exps), c] for exps, c in self.terms()],
    }


def poly_csv(poly, prefix=""):
    for e, c in poly.terms():
        print(f"{prefix}{e},{c}")


def tpoly_csv(poly):
    print(",".join(poly.vars + ("coefficient",)))
    for exps, c in poly.terms():
        print(",".join(map(str, (*exps, c))))


def perm_text(word):
    if len(word) == 0:
        return ""
    if len(word) <= 9:
        return "".join(str(a) for a in word)
    return ",".join(str(a) for a in word)


# ---------------------------------------------------------------------------
# the comparisons

# small values, the units that print bare, and values far past 2^64
COEFFS = st.one_of(
    st.integers(-3, 3), st.sampled_from([1, -1]), st.integers(-(2**80), 2**80)
)
LAURENT = st.dictionaries(st.integers(-6, 8), COEFFS, max_size=10)

CASES = {
    "zero": {},
    "negative-valuation": {-3: 2, -1: 1, 2: 4},
    "e0-e1": {0: 5, 1: 7, 2: 3},
    "units": {0: 1, 1: 1, 2: -1, 3: -1, -1: 1},
    "bare-units": {0: -1, 1: -1},
    "interior-zeros": {0: 1, 5: 2, 9: 0, 2: 0},
    "past-2^64": {0: 2**64 + 1, 1: -(2**70), 3: 2**200},
    "negative-first": {-2: -1, 0: 3, 1: 2},
    "negative-first-big": {4: -(2**65), 6: 1},
}


def _check_laurent(terms):
    p = LaurentPoly(terms)
    assert p.terms() == sorted((e, c) for e, c in terms.items() if c)
    assert str(p) == laurent_str(p)
    assert p.to_json() == laurent_json(p)


@pytest.mark.parametrize("terms", CASES.values(), ids=CASES)
def test_laurent_cases_match_the_per_term_loops(terms):
    _check_laurent(terms)


@settings(max_examples=300, deadline=None)
@given(LAURENT)
def test_laurent_output_matches_the_per_term_loops(terms):
    _check_laurent(terms)


def test_a_large_closed_form_matches_the_per_term_loops():
    # about 3,000 terms with coefficients up to 80!, and a signed G row
    for p in (genfun.closed_inv_132_312(80, 1), genfun.closed_g(9, 3) - 1):
        assert str(p) == laurent_str(p)
        assert p.to_json() == laurent_json(p)


MULTI = st.integers(0, 3).flatmap(
    lambda size: st.tuples(
        st.just(tuple(f"t{i}" for i in range(1, size + 1))),
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * size), COEFFS, max_size=8),
    )
)


@settings(max_examples=300, deadline=None)
@given(MULTI)
def test_multi_output_matches_the_per_term_loops(case):
    variables, terms = case
    p = MultiPoly(variables, terms)
    assert str(p) == multi_str(p)
    assert p.to_json() == multi_json(p)


@pytest.mark.parametrize("terms", CASES.values(), ids=CASES)
def test_multi_cases_match_the_per_term_loops(terms):
    # the same rows as polynomials in one variable, shifted to exponents >= 0
    low = min(terms, default=0)
    p = MultiPoly(("t1",), {(e - low,): c for e, c in terms.items()})
    assert str(p) == multi_str(p)
    assert p.to_json() == multi_json(p)


def _printed(fn, *args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fn(*args)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["brute", "closed", "6,2"]), LAURENT), max_size=3))
def test_csv_table_matches_the_per_term_loop(rows):
    rows = [(prefix, LaurentPoly(terms)) for prefix, terms in rows]

    def oracle():
        print("method,exponent,coefficient")
        for prefix, poly in rows:
            poly_csv(poly, prefix=f"{prefix},")

    assert _printed(_emit_poly_csv, "method,exponent,coefficient", rows) == _printed(oracle)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("patterns", ["", "132", "123,4321"])
def test_tpoly_csv_matches_the_per_term_loop(n, patterns):
    poly = genfun.t_polynomial(n, parse_patterns(patterns))
    out = _printed(main, ["tpoly", "--n", str(n), "--avoid", patterns, "--format", "csv"])
    assert out == _printed(tpoly_csv, poly)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_format_perm_matches_the_generator(word):
    assert format_perm(word) == perm_text(word)
