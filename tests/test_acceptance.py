"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under -v) each.  Every comparison is exact; the stated time budgets
are asserted with generous margins over the observed runtimes.

Run just this file with `pytest tests/test_acceptance.py -v`.
"""

import math
import subprocess
import sys
import time

from widthk.genfun import (
    GTABLE_REFERENCE,
    closed_g,
    factored_form,
    g_table,
    rec_312,
    run_suite,
)
from widthk.perm import avoidance_class
from widthk.poly import catalan
from widthk.stats import des, des_set, exc, inv, inv_set, maj

W = (4, 1, 3, 6, 5, 7, 2)
K = (2, 3)


def _all_verified(reports):
    failed = [r for r in reports if r.status == "mismatch"]
    assert not failed, [r.to_json() for r in failed]
    assert any(r.status == "verified" for r in reports)
    return reports


def _timed(budget_s, suite, **kwargs):
    start = time.perf_counter()
    reports = run_suite(suite, **kwargs)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{suite} took {elapsed:.1f}s, budget {budget_s}s"
    return _all_verified(reports)


def test_c01_worked_example_statistics():
    assert des_set(W, K) == (1, 4, 5)
    assert des(W, K) == 3
    assert inv_set(W, K) == ((1, 3), (1, 7), (3, 7), (4, 7), (5, 7))
    assert inv(W, K) == 5
    assert exc(W, K) == 4
    assert maj(W, K) == 6
    _all_verified(run_suite("example"))
    print("PASS 1: worked-example statistics reproduce the hand computation")


def test_c02_closed_forms_match_enumeration():
    _timed(60, "theorem")
    print("PASS 2: des_k and inv_k closed forms match enumeration for n <= 8")


def test_c03_equidistribution():
    _timed(120, "equidistribution")
    print("PASS 3: des_k ~ exc_k and inv_k ~ maj_k over S_n for n <= 8")


def test_c04_inclusion_exclusion():
    assert inv(W, 2) == 4 and inv(W, 3) == 2 and inv(W, 6) == 1
    assert inv(W, K) == 4 + 2 - 1
    _timed(60, "inclusion-exclusion")
    print("PASS 4: width-set inversion counts satisfy subset-lcm inclusion-exclusion")


def test_c05_signed_difference_table():
    assert sum(len(row) for row in GTABLE_REFERENCE.values()) == 20
    for n, row in GTABLE_REFERENCE.items():
        table = g_table(n)
        for k, shape in row.items():
            assert table[k] == factored_form(*shape), (n, k)
    _all_verified(run_suite("gtable"))
    print("PASS 5: all 20 quoted difference-table factorizations verified")


def test_c06_coprime_closed_form():
    for n in range(2, 10):
        table = g_table(n)
        for k in range(1, n):
            if math.gcd(n, k) == 1:
                assert table[k] == closed_g(n, k), (n, k)
    _all_verified(run_suite("conjecture"))
    print("PASS 6: G_(n,k) = n*q^(1-k)*A_(n-1)(q) whenever gcd(k,n)=1, n <= 9")


def test_c07_duality():
    _timed(180, "duality")
    print("PASS 7: reverse/complement duality and univariate specializations hold")


def test_c08_avoidance_formulas():
    _timed(300, "avoidance")
    for k in range(1, 10):
        assert rec_312(9, k)(1) == catalan(9)
    print("PASS 8: avoidance recursions, products, and degree formulas verified")


def test_c09_counting_specializations():
    for n in range(5, 9):
        assert sum(1 for _ in avoidance_class(n, [(1, 2, 3), (3, 2, 1)])) == 0
    _timed(60, "counting")
    print("PASS 9: class sizes and q=1 specializations all check out")


def test_c10_deterministic_verification():
    cmd = [sys.executable, "-m", "widthk", "verify", "--suite", "all"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty report stream
    print("PASS 10: full verification run is byte-identical across invocations")
