"""Distributions and identity checks against independently computed values.

Expected polynomials below were frozen from a standalone brute-force script
(direct definition scans over itertools.permutations), not from this package.
"""

import collections
import itertools
import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widthk
from widthk import cli, genfun, perm, poly, stats, verify
from widthk.errors import EnumerationCapError, InvalidInputError
from widthk.genfun import (
    CLOSED_INV,
    PRODUCTS,
    RECURSIONS,
    brute_distribution,
    closed_des_k,
    closed_g,
    closed_inv_132_312,
    closed_inv_k,
    des_degree_312,
    factored_form,
    format_factored,
    g_shape,
    g_table,
    inv_degree_312,
    product_132_231,
    product_132_312,
    rec_123_132,
    rec_123_312,
    rec_132_213,
    rec_312,
    t_polynomial,
)
from widthk.perm import _joint_descents, avoidance_class, enumerate_sn, format_perm
from widthk.poly import (
    ONE,
    LaurentPoly,
    MultiPoly,
    block_multinomial,
    catalan,
    eulerian_poly,
    q_factorial,
)
from widthk.verify import (
    GTABLE_REFERENCE,
    SUITE_NMAX,
    SUITES,
    SweepCaches,
    VerificationReport,
    run_suite,
    suite_reports,
)


def P(*coeffs_from_zero):
    return LaurentPoly(dict(enumerate(coeffs_from_zero)))


class TestBruteDistribution:
    def test_classical_descents(self):
        assert brute_distribution(3, "des") == P(1, 4, 1)
        assert brute_distribution(4, "des") == eulerian_poly(4)

    def test_width_two_on_s4(self):
        expected = P(6, 12, 6)
        for name in ("des", "inv", "exc", "maj"):
            assert brute_distribution(4, name, 2) == expected

    def test_width_sets(self):
        assert brute_distribution(4, "des", (1, 3)) == P(1, 8, 6, 8, 1)
        assert brute_distribution(5, "inv", (2, 3)) == P(8, 17, 20, 30, 20, 17, 8)
        assert brute_distribution(5, "exc", (1, 2)) == P(1, 4, 24, 25, 46, 11, 9)
        assert brute_distribution(5, "maj", 3) == P(30, 60, 30)

    def test_avoidance_classes(self):
        assert brute_distribution(5, "des", 2, [(3, 1, 2)]) == P(8, 21, 11, 2)
        assert brute_distribution(
            5, "inv", 2, [(1, 3, 2), (3, 1, 2)]
        ) == P(2, 4, 4, 4, 2)
        assert brute_distribution(
            4, "des", (1, 2), [(1, 3, 2), (2, 3, 1)]
        ) == P(1, 1, 2, 2, 1, 1)
        assert brute_distribution(
            5, "des", 2, [(1, 2, 3), (1, 3, 2)]
        ) == LaurentPoly({2: 8, 3: 8})
        assert brute_distribution(
            5, "des", 2, [(1, 3, 2), (2, 1, 3)]
        ) == P(1, 2, 5, 8)
        assert brute_distribution(3, "des", 1, [(1, 2, 3), (3, 1, 2)]) == LaurentPoly(
            {1: 3, 2: 1}
        )
        assert brute_distribution(4, "des", 3, [(1, 2, 3), (3, 1, 2)]) == P(3, 4)

    def test_rejects_unknown_statistic(self):
        message = "unknown statistic 'foo'; choose from ('des', 'exc', 'inv', 'maj')"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            brute_distribution(4, "foo")

    def test_widths_are_normalized_once(self):
        # an iterator of widths serves every word, not just the first
        assert brute_distribution(4, "des", iter((1, 2))) == brute_distribution(4, "des", (1, 2))
        # an empty class still rejects its widths
        with pytest.raises(InvalidInputError, match="not contained"):
            brute_distribution(3, "des", (0, 2), [(1,)])

    def test_brute_over_sn_lists_no_word(self, monkeypatch, capsys):
        # S_n reaches the scanner as byte columns: with enumerate_sn and the
        # class walk refused, brute_distribution and gf --method brute still
        # give the polynomials they gave before
        cases = [(name, k) for name in stats.STATISTICS for k in (1, 3, (2, 5))]
        want = {case: brute_distribution(8, *case) for case in cases}
        argv = ["gf", "--n", "8", "--stat", "maj", "--widths", "2,5", "--method", "brute"]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out

        def refuse(*args):
            raise AssertionError("S_n was listed word by word")

        monkeypatch.setattr(perm, "enumerate_sn", refuse)
        monkeypatch.setattr(perm, "_class_walk", refuse)
        for case, dist in want.items():
            assert brute_distribution(8, *case) == dist, case
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == printed


class TestClosedForms:
    def test_known_rows(self):
        assert closed_des_k(4, 2) == P(6, 12, 6)
        assert closed_inv_k(4, 2) == P(6, 12, 6)
        # n = 7, k = 2: multinomial 35 times A_4 * A_3
        assert closed_des_k(7, 2) == 35 * eulerian_poly(4) * eulerian_poly(3)
        assert closed_inv_k(7, 2) == 35 * q_factorial(4) * q_factorial(3)
        assert closed_des_k(6, 3) == 90 * eulerian_poly(2) ** 3
        assert closed_des_k(5, 1) == eulerian_poly(5)
        assert closed_inv_k(5, 1) == q_factorial(5)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_match_enumeration(self, n):
        for k in range(1, n):
            assert closed_des_k(n, k) == brute_distribution(n, "des", k)
            assert closed_inv_k(n, k) == brute_distribution(n, "inv", k)

    def test_evaluate_to_group_order(self):
        for n in range(2, 9):
            for k in range(1, n):
                assert closed_des_k(n, k)(1) == math.factorial(n)
                assert closed_inv_k(n, k)(1) == math.factorial(n)

    def test_width_range_enforced(self):
        for bad in (0, 4, 9):
            with pytest.raises(InvalidInputError):
                closed_des_k(4, bad)
            with pytest.raises(InvalidInputError):
                closed_inv_k(4, bad)


class TestJointAndSigned:
    def test_t_polynomial_s3(self):
        expected = MultiPoly(
            ("t1", "t2"), {(0, 0): 1, (1, 0): 2, (1, 1): 2, (2, 1): 1}
        )
        assert t_polynomial(3) == expected

    def test_t_polynomial_av312(self):
        expected = MultiPoly(
            ("t1", "t2", "t3"),
            {
                (0, 0, 0): 1, (1, 0, 0): 3, (1, 1, 0): 2, (1, 1, 1): 1,
                (2, 0, 0): 1, (2, 1, 0): 2, (2, 1, 1): 2, (2, 2, 1): 1,
                (3, 2, 1): 1,
            },
        )
        assert t_polynomial(4, [(3, 1, 2)]) == expected

    @pytest.mark.parametrize("n", range(9))
    def test_t_polynomial_matches_per_word_count(self, n):
        # the DP over S_n against one scan per word
        expected = joint_descent_counts(n)
        assert t_polynomial(n) == expected
        assert t_polynomial(n, ()) == expected
        assert t_polynomial(n, iter(())) == expected

    def test_t_polynomial_above_the_per_word_oracle(self):
        # n = 9 is beyond the per-word oracle above; check it against the
        # group order and the closed form of every single-width grade
        tp = t_polynomial(9)
        assert tp.at_ones() == math.factorial(9)
        for k in range(1, 9):
            weights = [int(g == k) for g in range(1, 9)]
            assert tp.grade(weights) == closed_des_k(9, k), k

    def test_t_polynomial_rejects_negative_n(self):
        with pytest.raises(InvalidInputError):
            t_polynomial(-1)

    def test_t_polynomial_specializes_to_univariate(self):
        for n in (3, 4, 5, 6):
            tp = t_polynomial(n)
            for k in range(1, n):
                weights = [int(g == k) for g in range(1, n)]
                assert tp.grade(weights) == brute_distribution(n, "des", k)
            assert tp.at_ones() == math.factorial(n)

    def test_g_table_rows(self):
        table = g_table(4)
        assert set(table) == {1, 2, 3}
        assert table[1] == closed_g(4, 1) == P(4, 16, 4)
        assert table[2] == closed_g(4, 2) == P(24)
        assert table[3] == closed_g(4, 3) == LaurentPoly({-2: 4, -1: 16, 0: 4})

    def test_g_is_graded_difference_of_t(self):
        # G_{n,k} is T_n with t_k -> q, t_{n-k} -> 1/q, the rest -> 1; the
        # per-word scan is the oracle for the closed form and the G DP
        for n in range(2, 8):
            joint = joint_descent_counts(n)
            table = g_table(n)
            for k in range(1, n):
                weights = [0] * (n - 1)
                weights[k - 1] += 1
                weights[n - k - 1] -= 1
                assert joint.grade(weights) == closed_g(n, k) == table[k], (n, k)

    def test_g_at_one_is_group_order(self):
        for n in range(2, 8):
            for k, poly in g_table(n).items():
                assert poly(1) == math.factorial(n), (n, k)

    def test_closed_g_is_conjectured_form_when_coprime(self):
        assert closed_g(4, 1) == 4 * eulerian_poly(3)
        for n in range(2, 16):
            for k in range(1, n):
                if math.gcd(n, k) == 1:
                    expected = (n * eulerian_poly(n - 1)).shift(1 - k)
                    assert closed_g(n, k) == expected, (n, k)

    def test_g_shape_at_shared_factors(self):
        # d = gcd(n, k) cycles of l = n/d positions each
        assert g_shape(10, 2) == (6300, 0, 4, 2)
        assert g_shape(10, 4) == (6300, -2, 4, 2)
        assert g_shape(12, 8) == (math.factorial(12) // 2**4, -4, 2, 4)
        # k = n/2: every cycle has two positions and G is the constant n!
        assert g_shape(10, 5) == (math.factorial(10), 0, 1, 5)
        assert closed_g(10, 5) == P(math.factorial(10))

    @pytest.mark.parametrize("n, k", [(4, 0), (4, 4), (4, -1), (2, 2), (1, 1), (0, 0)])
    def test_closed_g_rejects_widths_outside_range(self, n, k):
        with pytest.raises(InvalidInputError):
            closed_g(n, k)
        with pytest.raises(InvalidInputError):
            g_shape(n, k)


def joint_descent_counts(n, words=None):
    """
    The joint descent polynomial of the given words of length n (S_n by
    default), scanning each word for every des_g: the oracle of the DP and
    of the brute-force count of a class whose patterns are not all of
    length 3.
    """
    if words is None:
        words = itertools.permutations(range(1, n + 1))
    gaps = range(1, n)
    acc = collections.Counter()
    for word in words:
        # entry g-1 counts the pairs (i, i+g) with word[i] > word[i+g]
        acc[tuple([sum(map(operator.gt, word, word[g:])) for g in gaps])] += 1
    return MultiPoly(tuple(f"t{g}" for g in range(1, n)), dict(acc))


ORACLE_CLASSES = [
    pats
    for size in range(3)
    for pats in itertools.combinations(itertools.permutations((1, 2, 3)), size)
] + [
    ((1, 2),), ((2, 1),), ((4, 3, 2, 1),), ((1, 3, 4, 2), (2, 1, 4, 3)),
    ((1, 2, 3), (2, 1, 4, 3)), ((1, 2, 3, 4, 5),), ((1, 2, 3, 4), (4, 3, 2, 1)),
    ((1, 3, 2, 4), (2, 1, 4, 3), (3, 4, 1, 2)), ((1, 3, 2), (1, 2, 3, 4), (1, 2, 3, 4, 5)),
    ((1,),), ((1,), (2, 4, 1, 3)),
]


@pytest.mark.parametrize(
    "pats", ORACLE_CLASSES, ids=lambda pats: ",".join(map(format_perm, pats)) or "S_n"
)
def test_class_key_walk_matches_per_word_scan(pats):
    for n in range(9):
        members = list(avoidance_class(n, pats))
        assert sum(_joint_descents(n, pats).values()) == len(members), n
        assert t_polynomial(n, pats) == joint_descent_counts(n, members), n


@pytest.mark.parametrize(
    "enumerate_n",
    [
        lambda n: list(enumerate_sn(n)),
        lambda n: list(avoidance_class(n)),
        lambda n: list(avoidance_class(n, [(3, 1, 2)])),
        lambda n: list(avoidance_class(n, [(4, 3, 2, 1)])),
        lambda n: brute_distribution(n, "des"),
        t_polynomial,
        lambda n: t_polynomial(n, [(1, 3, 2)]),
        g_table,
        lambda n: [SweepCaches().dist(n, statistic, (2,)) for statistic in ("exc", "maj")],
    ],
    ids=[
        "S_n", "class-none", "class-312", "class-4321", "brute", "tpoly", "tpoly-class",
        "gtable", "exc-maj",
    ],
)
def test_every_enumeration_obeys_one_cap(monkeypatch, enumerate_n):
    monkeypatch.setenv("WIDTHK_MAX_N", "5")
    assert enumerate_n(5)
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_n(6)
    assert str(exc.value) == "n=6 exceeds enumeration cap 5"


class TestRecursions:
    def test_312_known_values(self):
        assert rec_312(3, 1) == P(1, 3, 1)
        assert rec_312(5, 2) == P(8, 21, 11, 2)
        assert rec_312(7, 2) == brute_distribution(7, "des", 2, [(3, 1, 2)])

    def test_123_132_known_values(self):
        assert rec_123_132(5, 2) == LaurentPoly({2: 8, 3: 8})
        assert rec_123_132(6, 3) == brute_distribution(
            6, "des", 3, [(1, 2, 3), (1, 3, 2)]
        )

    def test_123_312_known_values(self):
        assert rec_123_312(4, 3) == P(3, 4)
        assert rec_123_312(3, 1) == LaurentPoly({1: 3, 2: 1})
        assert rec_123_312(6, 2) == brute_distribution(
            6, "des", 2, [(1, 2, 3), (3, 1, 2)]
        )

    def test_132_213_known_values(self):
        assert rec_132_213(5, 2) == P(1, 2, 5, 8)
        assert rec_132_213(6, 4) == brute_distribution(
            6, "des", 4, [(1, 3, 2), (2, 1, 3)]
        )

    def test_base_cases_for_large_width(self):
        # k >= n: no width-k comparisons remain, so the class collapses to q^0
        assert rec_312(3, 5) == catalan(3)
        assert rec_123_132(4, 7) == 2**3
        assert rec_132_213(4, 9) == 2**3
        assert rec_123_312(4, 9) == 7  # |Av_4(123,312)| = C(4,2) + 1 (Simion-Schmidt)
        assert all(rec_312(m, m) == catalan(m) for m in range(1, 6))
        assert rec_312(3, 10**6) == 5  # at once: nothing is sized by k when k >= n

    def test_class_sizes_at_one(self):
        for n in range(1, 9):
            for k in range(1, n + 2):
                assert rec_312(n, k)(1) == catalan(n)
                assert rec_123_132(n, k)(1) == 2 ** (n - 1)
                assert rec_132_213(n, k)(1) == 2 ** (n - 1)
                assert rec_123_312(n, k)(1) == 1 + n * (n - 1) // 2

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_312_matches_convolution_oracle(self, k):
        oracle = convolution_312_table(60, k)
        for m in range(61):
            assert rec_312(m, k) == oracle[m], (m, k)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize(
        "pats", list(RECURSIONS), ids=lambda pats: "-".join("".join(map(str, p)) for p in pats)
    )
    def test_recursion_matches_enumeration_at_every_width(self, pats, n):
        # every level of every recursion, k = n and k = n + 1 included
        fn = RECURSIONS[pats]
        for k in range(1, n + 2):
            assert fn(n, k) == brute_distribution(n, "des", k, pats), (n, k)

    def test_123_132_matches_rows_from_q0_oracle(self):
        # every n <= 40 and every k <= n + 1
        for k in range(1, 42):
            table = from_q0_123_132_table(40, k)
            for n in range(41):
                assert rec_123_132(n, k) == table[n], (n, k)
        # n = 62..66 crosses from 8-byte to 9-byte slots in the packed
        # levels, and each top is a shape that the benchmark runs
        for k, top in ((1, 120), (2, 100), (3, 120)):
            table = from_q0_123_132_table(top, k)
            for n in (*range(62, 67), top):
                assert rec_123_132(n, k) == table[n], (n, k)

    def test_132_213_matches_per_row_oracle(self):
        # every n <= 40 and every k <= n + 1
        for k in range(1, 42):
            table = per_row_132_213_table(40, k)
            for n in range(max(k - 1, 0), 41):
                assert rec_132_213(n, k) == table[n], (n, k)
        # n = 62..66 crosses from 8-byte to 9-byte slots in the packed
        # levels, and each top past 66 is a shape that the benchmark runs
        for k, top in ((1, 66), (2, 100), (3, 120), (4, 110)):
            table = per_row_132_213_table(top, k)
            for n in (*range(62, 67), top):
                assert rec_132_213(n, k) == table[n], (n, k)

    def test_123_312_matches_per_level_oracle(self):
        # every n <= 40 and every k <= n + 1
        for k in range(1, 42):
            table = per_level_123_312_table(40, k)
            for n in range(max(k - 1, 0), 41):
                assert rec_123_312(n, k) == table[n], (n, k)

    def test_recursions_reject_bad_arguments(self):
        for fn in RECURSIONS.values():
            with pytest.raises(InvalidInputError):
                fn(-1, 1)
            with pytest.raises(InvalidInputError):
                fn(3, 0)


def convolution_312_table(n, k):
    """
    rec_312(m, k) for m = 0..n by the paper's recursion on the position i of
    the letter 1: Catalan-many prefixes contribute nothing for i <= k, while
    i > k splits the word and forces one extra descent.  This is the
    independent oracle for the square-root recurrence in genfun.
    """
    f = []
    for m in range(n + 1):
        if m <= k:
            f.append(LaurentPoly({0: catalan(m)}))
            continue
        total = LaurentPoly()
        for i in range(1, k + 1):
            total = total + catalan(i - 1) * f[m - i]
        for i in range(k + 1, m + 1):
            total = total + (f[i - 1] * f[m - i]).shift(1)
        f.append(total)
    return f


def per_row_132_213_table(n, k):
    """
    rec_132_213(m, k) for m = 0..n by the paper's recursion on the position
    i of the letter m, adding each row of its three position ranges on its
    own: a derivation independent of the composition sum in genfun.
    """
    rows = []
    for m in range(n + 1):
        if m <= k:
            rows.append([2 ** max(m - 1, 0)])
            continue
        row = [0] * (m - k + 1)
        shifts = [(i, min(i, m - k)) for i in range(1, k + 1)]
        shifts += [(i, min(k, m - i)) for i in range(k + 1, m - k + 1)]
        shifts += [(i, m - i) for i in range(max(k + 1, m - k + 1), m + 1)]
        for i, s in shifts:
            for e, c in enumerate(rows[m - i]):
                row[s + e] += c
        rows.append(row)
    return [LaurentPoly(dict(enumerate(row))) for row in rows]


def per_level_123_312_table(n, k):
    """
    rec_123_312(m, k) for m = 0..n level by level, each row stored from q^0:
    level m is q times level m - 1 plus one bare power per position i < m of
    the letter 1.  The independent oracle for the single row in genfun.
    """
    rows = []
    for m in range(n + 1):
        if m <= k:
            rows.append([math.comb(m, 2) + 1])
            continue
        row = [0] * (m - k + 1)
        for e, c in enumerate(rows[m - 1]):
            row[e + 1] += c
        for i in range(1, k + 1):
            row[max(0, m - k - i)] += 1
        for i in range(k + 1, m):
            row[max(m - 2 * k, i - k)] += 1
        rows.append(row)
    return [LaurentPoly(dict(enumerate(row))) for row in rows]


def from_q0_123_132_table(n, k):
    """
    rec_123_132(m, k) for m = 0..n by the paper's recursion on the position
    i of the letter m, every row stored from q^0: a derivation independent
    of the composition sum in genfun.
    """
    rows = []
    for m in range(n + 1):
        if m <= k:
            rows.append([2 ** max(m - 1, 0)])
            continue
        row = [0] * (m - k + 1)
        row[m - k - 1] = 2 ** (m - max(k + 1, m - k + 1))
        shifts = [(i, min(i, m - k)) for i in range(1, k + 1)]
        shifts += [(i, min(i - 1, m - k - 1)) for i in range(k + 1, m - k + 1)]
        for i, s in shifts:
            for e, c in enumerate(rows[m - i]):
                row[s + e] += c
        rows.append(row)
    return [LaurentPoly(dict(enumerate(row))) for row in rows]


def per_factor_132_231(n, widths):
    """
    product_132_231 by one LaurentPoly power and product per binomial: the
    independent oracle for the packed product in genfun.
    """
    if isinstance(widths, int):
        widths = (widths,)
    anchors = (1, *sorted(set(widths)), max(n, 1))
    out = ONE
    for i in range(1, len(anchors)):
        out = out * LaurentPoly([(0, 1), (i - 1, 1)]) ** (anchors[i] - anchors[i - 1])
    return out


def per_factor_inv_132_312(n, k):
    """closed_inv_132_312 by one LaurentPoly power and product per binomial."""
    d, r = divmod(n, k)
    out = LaurentPoly({0: 2 ** (k - 1)}) * LaurentPoly([(0, 1), (d, 1)]) ** r
    for i in range(1, d):
        out = out * LaurentPoly([(0, 1), (i, 1)]) ** k
    return out


class TestProductsAndDegrees:
    def test_products_known_values(self):
        assert product_132_231(4, (1, 2)) == P(1, 1, 2, 2, 1, 1)
        assert product_132_312(4, (1, 2)) == P(1, 1, 2, 2, 1, 1)
        # K = {1}: the classical descent polynomial of the class
        assert product_132_231(3, (1,)) == P(1, 2, 1)
        assert product_132_231(2, 1) == P(1, 1)  # bare int width is accepted
        assert product_132_231(0, 1) == product_132_312(1, (1,)) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_products_match_enumeration(self, n):
        import itertools

        for size in (1, 2):
            for ks in itertools.combinations(range(1, n), size):
                assert product_132_231(n, ks) == brute_distribution(
                    n, "des", ks, [(1, 3, 2), (2, 3, 1)]
                ), (n, ks)
                assert product_132_312(n, ks) == brute_distribution(
                    n, "des", ks, [(1, 3, 2), (3, 1, 2)]
                ), (n, ks)

    def test_closed_inv_known_values(self):
        assert closed_inv_132_312(5, 2) == P(2, 4, 4, 4, 2)
        assert closed_inv_132_312(5, 2) == brute_distribution(
            5, "inv", 2, [(1, 3, 2), (3, 1, 2)]
        )
        # the inv distribution at width k equals the des distribution over
        # the width set of all multiples of k
        assert closed_inv_132_312(6, 2) == product_132_312(6, (2, 4))

    def test_degrees(self):
        assert des_degree_312(7, 2) == 5
        assert rec_312(7, 2).degree == 5
        # sum of floor((n-i)/k) for i = 1..n-k at n=6, k=2: 2+2+1+1
        assert inv_degree_312(6, 2) == 6
        assert (
            brute_distribution(6, "inv", 2, [(3, 1, 2)]).degree == 6
        )

    def test_registries(self):
        assert set(RECURSIONS) == {
            ((3, 1, 2),),
            ((1, 2, 3), (1, 3, 2)),
            ((1, 2, 3), (3, 1, 2)),
            ((1, 3, 2), (2, 1, 3)),
        }
        assert set(PRODUCTS) == {
            ((1, 3, 2), (2, 3, 1)),
            ((1, 3, 2), (3, 1, 2)),
        }
        assert set(CLOSED_INV) == {
            ((1, 3, 2), (2, 3, 1)),
            ((1, 3, 2), (3, 1, 2)),
        }


class TestPackedProducts:
    # The packed binomial products against the per-factor LaurentPoly loop.

    def test_closed_inv_matches_per_factor_oracle_at_every_k(self, monkeypatch):
        # at k = 1 the slot holds 2^(n-1), so n <= 70 crosses every slot size
        slots = set()
        slot_bits = poly._slot_bits
        monkeypatch.setattr(
            poly, "_slot_bits", lambda bits: slots.add(slot_bits(bits)) or slot_bits(bits)
        )
        for n in range(2, 71):
            for k in range(1, n):
                assert closed_inv_132_312(n, k) == per_factor_inv_132_312(n, k), (n, k)
        assert {8, 16, 32, 64} <= slots and max(slots) > 64

    @pytest.mark.parametrize("n", range(0, 10))
    def test_products_match_per_factor_oracle_at_every_width_set(self, n):
        top = max(n - 1, 1)
        for size in range(1, top + 1):
            for ks in itertools.combinations(range(1, top + 1), size):
                assert product_132_231(n, ks) == per_factor_132_231(n, ks), (n, ks)

    @pytest.mark.parametrize("k", [1, 2, 7, 149])
    def test_formulas_match_per_factor_oracle_at_150(self, k):
        assert closed_inv_132_312(150, k) == per_factor_inv_132_312(150, k)
        ks = (k, *range(k + 3, 150, 5))
        assert product_132_312(150, ks) == per_factor_132_231(150, ks)


class TestLargeFormulas:
    # Two formula routes cross-checked at n in the hundreds, with no
    # enumeration: each family below runs in well under a second.

    @pytest.mark.parametrize("n, k", [(150, 1), (97, 3), (150, 4), (60, 7)])
    def test_product_at_multiples_of_k_is_closed_inv(self, n, k):
        # des over the width set {k, 2k, ...} is inv_k word by word; both
        # sides run `binomial_product`, so TestPackedProducts holds the oracle
        assert product_132_312(n, tuple(range(k, n, k))) == closed_inv_132_312(n, k)

    @pytest.mark.parametrize("n, k", [(60, 1), (100, 3), (90, 8)])
    def test_rec_312_sums_to_catalan(self, n, k):
        assert rec_312(n, k)(1) == catalan(n)

    @pytest.mark.parametrize("n, k", [(60, 1), (150, 2), (131, 3), (150, 1)])
    def test_closed_forms_sum_to_n_factorial(self, n, k):
        assert closed_inv_k(n, k)(1) == math.factorial(n)
        assert closed_des_k(n, k)(1) == math.factorial(n)

    @pytest.mark.parametrize("n, k", [(150, 1), (120, 3), (150, 11)])
    def test_two_pattern_recursions_sum_to_class_sizes(self, n, k):
        assert rec_123_132(n, k)(1) == 2 ** (n - 1)
        assert rec_132_213(n, k)(1) == 2 ** (n - 1)
        assert rec_123_312(n, k)(1) == math.comb(n, 2) + 1


def moments(dist):
    """Mean and variance of the statistic whose distribution is dist."""
    terms = dist.terms()
    total = sum(c for _, c in terms)
    mean = Fraction(sum(e * c for e, c in terms), total)
    return mean, Fraction(sum(e * e * c for e, c in terms), total) - mean**2


def palindromic(dist):
    return dist.inverse_q().shift(dist.terms()[0][0] + dist.degree) == dist


def widths_up_to(top):
    return st.integers(2, top).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1)))


class TestFormulasAboveTheCap:
    # Oracles from the definitions for formulas at n far above the
    # enumeration cap: moments, Narayana numbers and palindromy.

    @given(widths_up_to(150))
    @settings(max_examples=30, deadline=None)
    def test_des_k_moments(self, nk):
        # n - k indicators [a_i > a_(i+k)] of mean 1/2; the n - 2k pairs of
        # them that share a letter have covariance 1/6 - 1/4
        n, k = nk
        dist = closed_des_k(n, k)
        assert moments(dist) == (
            Fraction(n - k, 2),
            Fraction(n - k, 4) - Fraction(max(n - 2 * k, 0), 6),
        )
        assert palindromic(dist)

    @given(widths_up_to(150))
    @settings(max_examples=10, deadline=None)
    def test_inv_k_moments(self, nk):
        # inv_k is the sum over the residue blocks of their classical inv,
        # and the blocks of a uniform word are independent uniform words
        n, k = nk
        d, r = divmod(n, k)
        sizes = [d + 1] * r + [d] * (k - r)
        dist = closed_inv_k(n, k)
        assert moments(dist) == (
            sum(Fraction(m * (m - 1), 4) for m in sizes),
            sum(Fraction(m * (m - 1) * (2 * m + 5), 72) for m in sizes),
        )
        assert palindromic(dist)

    @given(st.integers(1, 150))
    @settings(max_examples=30, deadline=None)
    def test_rec_312_at_width_1_is_narayana(self, n):
        dist = rec_312(n, 1)
        assert dist == LaurentPoly(
            {j: math.comb(n, j) * math.comb(n, j + 1) // n for j in range(n)}
        )
        assert palindromic(dist)

    @pytest.mark.parametrize("n", [10, 11])
    def test_sn_theorems_by_the_packed_dp(self, monkeypatch, n):
        # The DP over sets of filled positions counts S_n in n * 2^n steps,
        # so it reaches past the cap once the cap is raised.  It places the
        # values in increasing order, so a filled position holds a smaller
        # value: placing at p makes a width-k descent at p when p + k is
        # filled, and a width-k inversion with each filled p + jk.
        monkeypatch.setenv("WIDTHK_MAX_N", str(n))
        caches = SweepCaches()

        for k in range(1, n):
            later = [sum(1 << q - 1 for q in range(p + k, n + 1, k)) for p in range(n + 1)]
            des = perm._sn_row(n, lambda p, s: s >> p + k - 1 & 1)
            inv = perm._sn_row(n, lambda p, s: (s & later[p]).bit_count())
            assert des == caches.dist(n, "exc", (k,)) == closed_des_k(n, k), k
            assert inv == caches.dist(n, "maj", (k,)) == closed_inv_k(n, k), k
            assert caches.dist(n, "G", (k,)) == closed_g(n, k), k

    def test_class_formulas_by_the_filtered_dp(self, monkeypatch):
        # The DP over sets of filled positions counts a class of length-3
        # patterns through its filter in at most n * 2^n steps, so it checks
        # the class formulas past the cap, where no walk lists the class.
        # Each formula is one grade of the class's joint descents.
        n = 12
        monkeypatch.setenv("WIDTHK_MAX_N", str(n))
        joints = {pats: t_polynomial(n, pats) for pats in [*RECURSIONS, *CLOSED_INV]}

        def grade(pats, widths):
            return joints[pats].grade([int(g in widths) for g in range(1, n)])

        assert joints[((3, 1, 2),)].at_ones() == catalan(n)
        for pats, recursion in RECURSIONS.items():
            for k in (2, 3):
                assert grade(pats, {k}) == recursion(n, k), (pats, k)
        for pats in CLOSED_INV:
            for k in range(1, n):
                multiples = tuple(range(k, n, k))
                expected = grade(pats, multiples)
                assert closed_inv_132_312(n, k) == expected, (pats, k)
                assert product_132_312(n, multiples) == expected, (pats, k)


def block_route_inv_k(n, k):
    """
    closed_inv_k by its block form, with each q-factorial raised to its
    power by LaurentPoly products: the independent oracle for the row of
    q-integer windows.
    """
    d, r = divmod(n, k)
    return block_multinomial(n, k) * q_factorial(d + 1) ** r * q_factorial(d) ** (k - r)


def block_route_des_k(n, k):
    """
    closed_des_k by its block form, with each Eulerian polynomial raised to
    its power by LaurentPoly products: the independent oracle for the packed
    Eulerian product.
    """
    d, r = divmod(n, k)
    return block_multinomial(n, k) * eulerian_poly(d + 1) ** r * eulerian_poly(d) ** (k - r)


def series_312(top, k):
    """
    rec_312(m, k) for m = 0..top, read term by term off the functional
    equation F = 1 + x (1 - q) P F + x q F^2 with LaurentPoly arithmetic:
    f_m = (1 - q) sum_(j < min(k, m)) C_j f_(m-1-j) + q sum_i f_i f_(m-1-i).
    The independent oracle for the packed D-finite recurrence.
    """
    one_minus_q, q = LaurentPoly({0: 1, 1: -1}), LaurentPoly({1: 1})
    f = [ONE]
    for m in range(1, top + 1):
        linear = sum((catalan(j) * f[m - 1 - j] for j in range(min(k, m))), LaurentPoly())
        square = sum((f[i] * f[m - 1 - i] for i in range(m)), LaurentPoly())
        f.append(one_minus_q * linear + q * square)
    return f


def seeded_widths(count, seed):
    rng = random.Random(seed)
    return [(n, rng.randint(1, n - 1)) for n in rng.sample(range(10, 151), count)]


# the formula-large shapes of closed_inv_k and of closed_des_k, then ten
# seeded draws with n <= 150 for each
_INV_K_SHAPES = [(45, 1), (70, 2), (71, 2), (90, 3), (110, 5), *seeded_widths(10, 30)]
_DES_K_SHAPES = [(80, 1), (110, 2), (120, 3), (118, 4), (100, 5), *seeded_widths(10, 33)]


class TestFormulasAgainstOracles:
    # The fast routes above the cap against slower independent routes, and a
    # guard that keeps them off polynomial products.

    @pytest.mark.parametrize("nk", _INV_K_SHAPES, ids=str)
    def test_closed_inv_k_matches_block_route(self, nk):
        assert closed_inv_k(*nk) == block_route_inv_k(*nk)

    @pytest.mark.parametrize("nk", _DES_K_SHAPES, ids=str)
    def test_closed_des_k_matches_block_route(self, nk):
        assert closed_des_k(*nk) == block_route_des_k(*nk)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_rec_312_matches_functional_equation(self, k):
        # each pair n, n + 1 straddles a change of the slot size that holds C_n
        tops = [6, 11, 19, 36, 40]
        for n in tops:
            assert poly._slot_bits(catalan(n).bit_length()) < poly._slot_bits(
                catalan(n + 1).bit_length()
            ), n
        want = series_312(41, k)
        for n in [m for top in tops for m in (top, top + 1)]:
            assert rec_312(n, k) == want[n], (n, k)

    def test_fast_routes_take_no_polynomial_product(self, monkeypatch):
        # every route and every suite runs with the LaurentPoly ring
        # operations refused, so each formula stands on its own kernel
        c, s, m, e = g_shape(12, 8)  # gcd 4: c * q^s * A_m(q)^e with e = 4
        want = {
            (closed_des_k, 120, 3): block_route_des_k(120, 3),
            (closed_g, 12, 8): (c * eulerian_poly(m) ** e).shift(s),
            (closed_inv_k, 90, 3): block_route_inv_k(90, 3),
            (rec_312, 90, 3): series_312(90, 3)[90],
        }
        reports = run_suite("all")

        def refuse(*args):
            raise AssertionError("a polynomial ring operation ran")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(LaurentPoly, name, refuse)
        for (route, n, k), dist in want.items():
            assert route(n, k) == dist, (route.__name__, n, k)
        assert run_suite("all") == reports

    def test_planted_eulerian_defect_is_named_by_theorem_and_gtable(self, monkeypatch):
        # one count of the Eulerian product over the sizes {3, 3} moved from
        # q^0 to q^1: closed_des_k(6, 2) and the shape of G[8,2] read it, so
        # exactly theorem[des] and gtable[n=8] must name those cases
        def shifted(sizes, scale=1, product=genfun.eulerian_product):
            sizes = list(sizes)
            counts = product(sizes, scale)
            if sorted(sizes) == [3, 3]:
                counts += LaurentPoly({0: -1, 1: 1})
            return counts

        monkeypatch.setattr(genfun, "eulerian_product", shifted)
        broken = {
            r.identity: r.counterexample["params"]
            for r in run_suite("all")
            if r.status == "mismatch"
        }
        assert broken.keys() == {"theorem[des]", "gtable[n=8]"}
        assert broken["theorem[des]"] == {"n": 6, "k": 2}
        assert (broken["gtable[n=8]"]["n"], broken["gtable[n=8]"]["k"]) == (8, 2)


class TestGradedDistributions:
    # every swept distribution is read through SweepCaches.dist: des and inv
    # as grades of one memoized joint distribution, exc, maj and G as packed
    # rows; enumeration and closed_g are the independent oracles
    CLASSES = [(), *RECURSIONS, *PRODUCTS]

    def test_av_dists_match_enumeration(self):
        caches = SweepCaches()
        for n in range(1, 7):
            for pats in self.CLASSES:
                for k in range(1, n):
                    des = caches.dist(n, "des", (k,), pats)
                    inv = caches.dist(n, "inv", (k,), pats)
                    assert des == brute_distribution(n, "des", k, pats), (n, k, pats)
                    assert inv == brute_distribution(n, "inv", k, pats), (n, k, pats)

    def test_av_dists_are_graded_once(self):
        caches = SweepCaches()
        assert caches.dist(5, "des", (2,)) is caches.dist(5, "des", (2,))
        assert caches.dist(5, "inv", (2,)) is caches.dist(5, "inv", (2,))
        assert caches.t_poly(5, ()) is caches.t_poly(5, ())

    def test_sn_exc_maj_match_enumeration(self):
        # maj_K over a width set is the DP that the inv_K/maj_K info block runs
        caches = SweepCaches()
        for n in range(2, 7):
            for k in range(1, n):
                assert caches.dist(n, "exc", (k,)) == brute_distribution(n, "exc", k), (n, k)
                assert caches.dist(n, "maj", (k,)) == brute_distribution(n, "maj", k), (n, k)
            for size in range(1, n):
                for ks in itertools.combinations(range(1, n), size):
                    assert caches.dist(n, "maj", ks) == brute_distribution(n, "maj", ks), (n, ks)
        # a one-letter word has no excedance and no descent
        assert caches.dist(1, "exc", (1,)) == caches.dist(1, "maj", (1,)) == ONE
        # exc_k and maj_k against stats.exc and stats.maj per word at n = 7
        for k in range(1, 7):
            assert caches.dist(7, "exc", (k,)) == brute_distribution(7, "exc", k), k
            assert caches.dist(7, "maj", (k,)) == brute_distribution(7, "maj", k), k

    def test_inv_and_maj_agree_on_a_width_set_iff_twice_its_least_width_covers_n(self):
        # 219 cases with |K| >= 2 and n <= 8, of which 21 agree.  If
        # 2 min K >= n, both statistics are the sum of des_k over K word by
        # word; every K with 2 min K < n separates them.
        caches = SweepCaches()
        agree = 0
        for n in range(3, 9):
            for ks in verify._width_subsets(n):
                if len(ks) >= 2:
                    same = caches.dist(n, "inv", ks) == caches.dist(n, "maj", ks)
                    assert same == (2 * min(ks) >= n), (n, ks)
                    agree += same
        assert agree == 21

    def test_g_table_is_graded_once(self):
        caches = SweepCaches()
        for k in range(1, 9):
            assert caches.dist(9, "G", (k,)) is caches.dist(9, "G", (k,)), k

    @pytest.mark.parametrize("statistic", ["des", "inv"])
    @pytest.mark.parametrize(
        "pats", CLASSES, ids=lambda pats: ",".join(map(format_perm, pats)) or "S_n"
    )
    def test_dist_matches_enumeration_at_every_width_set(self, statistic, pats):
        caches = SweepCaches()
        for n in range(1, 7):
            for ks in verify._width_subsets(max(n, 2)):
                args = (n, statistic, ks, pats)
                assert caches.dist(*args) == brute_distribution(*args), args

    @pytest.mark.parametrize("statistic", ["exc", "maj"])
    def test_sn_dist_matches_enumeration(self, statistic):
        # exc at every single width, maj at every width set
        caches = SweepCaches()
        for n in range(1, 8):
            for ks in verify._width_subsets(max(n, 2), 1 if statistic == "exc" else None):
                args = (n, statistic, ks)
                assert caches.dist(*args) == brute_distribution(*args), args

    @pytest.mark.parametrize(
        "args",
        [
            (4, "exc", (1,), ((3, 1, 2),)),
            (4, "maj", (1,), ((3, 1, 2),)),
            (4, "G", (1,), ((3, 1, 2),)),
            (4, "exc", (1, 2)),
            (4, "G", (1, 3)),
            (4, "G", (1, 2, 3)),
            (4, "foo", (1,)),
            (4, "des", (4,)),
            (4, "G", (0,)),
        ],
    )
    def test_dist_rejects_what_it_cannot_count(self, args):
        with pytest.raises(InvalidInputError):
            SweepCaches().dist(*args)

    def test_width_set_grades_match_enumeration(self):
        caches = SweepCaches()
        for n in range(2, 7):
            for pats in PRODUCTS:
                joint = caches.t_poly(n, pats)
                for size in range(1, n):
                    for ks in itertools.combinations(range(1, n), size):
                        weights = [1 if g in ks else 0 for g in range(1, n)]
                        assert joint.grade(weights) == brute_distribution(
                            n, "des", ks, pats
                        ), (n, ks, pats)

    def test_closed_g_matches_g_table(self):
        for n in range(2, 11):
            table = g_table(n)
            assert set(table) == set(range(1, n))
            for k in range(1, n):
                assert table[k] == closed_g(n, k), (n, k)

    def test_each_class_is_walked_once(self, monkeypatch):
        # a class is counted by _joint_descents behind t_polynomial, or
        # listed in column batches for brute_distribution; a run does either
        # at most once per (n, class)
        walks = collections.Counter()

        for name in ("_joint_descents", "_column_batches"):

            def counted(n, patterns=(), walk=getattr(genfun, name)):
                walks[(n, tuple(patterns))] += 1
                return walk(n, patterns)

            monkeypatch.setattr(genfun, name, counted)
        run_suite("all", n_max=6)
        assert any(pats for _, pats in walks)
        assert [key for key, count in walks.items() if count > 1] == []

    @pytest.fixture
    def sn_runs(self, monkeypatch):
        # (n, caller) of every S_n DP run.  A DP given a filter counts an
        # avoidance class, and test_each_class_is_walked_once pins those
        runs = collections.Counter()

        for name in ("_sn_dp", "_sn_row"):

            def counted(n, *args, dp=getattr(perm, name), **allowed):
                if not allowed:
                    runs[(n, sys._getframe(1).f_code.co_name)] += 1
                return dp(n, *args, **allowed)

            monkeypatch.setattr(perm, name, counted)
        return runs

    def test_equidistribution_walks_each_sn_once(self, sn_runs):
        # one dict DP per n for the joint descents, which the des and inv
        # grades read, and one packed-row DP per (n, k) for exc_k and per
        # (n, K) for maj_K: maj_k for every k, and the info block's maj_K for
        # |K| >= 2, so the 2^(n-1) - 1 nonempty K run once each
        for suite in ("equidistribution", "all"):
            sn_runs.clear()
            run_suite(suite, n_max=6)
            expected = collections.Counter()
            for n in range(2, 7):
                expected[(n, "_joint_descents")] = 1
                expected[(n, "_sn_majors")] = 2 ** (n - 1) - 1
                expected[(n, "_sn_excedances")] = n - 1
                if suite == "all":  # the G rows of gtable and conjecture
                    expected[(n, "_sn_g")] = n - 1
            if suite == "all":  # duality reads S_1 too
                expected[(1, "_joint_descents")] = 1
            assert sn_runs == expected, suite

    def test_each_run_owns_its_memo(self, sn_runs):
        # a second run shares no memo with the first, so it runs every DP again
        run_suite("equidistribution", n_max=6)
        once = sn_runs.copy()
        run_suite("equidistribution", n_max=6)
        assert once and sn_runs == {key: 2 * count for key, count in once.items()}

    def test_inclusion_exclusion_reads_no_distribution(self, sn_runs):
        # the sweep compares the two sides' coefficients of each des_g, so
        # the suite alone runs no S_n DP
        reports = run_suite("inclusion-exclusion")
        assert [r.status for r in reports] == ["verified", "verified"]
        assert sn_runs == {}

    def test_planted_exc_defect_is_reported_alone(self, monkeypatch):
        # one count of exc_2 over S_5 moved up by one: des=exc must name
        # exactly (5, 2), and the families that read no exc stay verified
        def shifted(n, k, dp=perm._sn_excedances):
            counts = dp(n, k)
            if (n, k) == (5, 2):
                counts += LaurentPoly({0: -1, 1: 1})
            return counts

        monkeypatch.setattr(perm, "_sn_excedances", shifted)
        reports = {r.identity: r for r in run_suite("equidistribution", n_max=6)}
        des_exc = reports["equidistribution[des=exc]"]
        assert des_exc.status == "mismatch"
        assert des_exc.counterexample["params"] == {"n": 5, "k": 2}
        assert reports["equidistribution[inv=maj]"].status == "verified"
        assert reports["equidistribution[des=inv|2k>=n]"].status == "verified"

    def test_planted_maj_defect_is_reported_alone(self, monkeypatch):
        # one count of maj_2 over S_5 moved up by one: inv=maj must name
        # exactly (5, 2), and the families that read no maj stay verified
        def shifted(n, widths, dp=perm._sn_majors):
            counts = dp(n, widths)
            if (n, widths) == (5, (2,)):
                counts += LaurentPoly({0: -1, 1: 1})
            return counts

        monkeypatch.setattr(perm, "_sn_majors", shifted)
        reports = {r.identity: r for r in run_suite("equidistribution", n_max=6)}
        inv_maj = reports["equidistribution[inv=maj]"]
        assert inv_maj.status == "mismatch"
        assert inv_maj.counterexample["params"] == {"n": 5, "k": 2}
        assert reports["equidistribution[des=exc]"].status == "verified"
        assert reports["equidistribution[des=inv|2k>=n]"].status == "verified"

    def test_planted_g_defect_is_named_by_gtable_and_conjecture(self, monkeypatch):
        # one count of G[8,3] moved from q^0 to q^1, which keeps its sum: the
        # reference row and closed_g must both name k = 3, while the other
        # rows and the q = 1 sizes stay verified
        def shifted(n, k, dp=perm._sn_g):
            counts = dp(n, k)
            if (n, k) == (8, 3):
                counts += LaurentPoly({0: -1, 1: 1})
            return counts

        monkeypatch.setattr(perm, "_sn_g", shifted)
        reports = {
            r.identity: r
            for suite in ("gtable", "conjecture", "counting")
            for r in run_suite(suite)
        }
        for identity in ("gtable[n=8]", "conjecture[G=n*q^(1-k)*A_(n-1)]"):
            assert reports[identity].status == "mismatch", identity
            params = reports[identity].counterexample["params"]
            assert (params["n"], params["k"]) == (8, 3), identity
        for identity, report in reports.items():
            if identity.startswith("counting") or identity in ("gtable[n=6]", "gtable[n=9]"):
                assert report.status == "verified", identity

    def test_info_note_at_default_bounds(self):
        reports = {r.identity: r for r in run_suite("equidistribution")}
        assert reports["equidistribution[inv_K=maj_K|info]"].notes == (
            "informational: equality of inv and maj distributions is only claimed "
            "for single widths; over width sets of size >= 2 with n<=7, 10 of 99 "
            "(n, K) cases agree; first difference at n=3, K={1,2}",
        )

    @pytest.mark.parametrize("n", [10, 11])
    def test_packed_rows_do_not_overflow_at_the_cap(self, monkeypatch, n):
        # each packed row's slots are sized from n!, so a slot that carried
        # into the next would break the sum or the closed form
        monkeypatch.setenv("WIDTHK_MAX_N", str(n))
        caches = SweepCaches()
        table = g_table(n)
        for k in range(1, n):
            exc, maj = caches.dist(n, "exc", (k,)), caches.dist(n, "maj", (k,))
            assert exc(1) == maj(1) == table[k](1) == math.factorial(n), k
            assert exc == closed_des_k(n, k), k
            assert maj == closed_inv_k(n, k), k
            if math.gcd(n, k) == 1:
                assert table[k] == closed_g(n, k), k


class TestReports:
    def test_status_and_counterexample_invariants(self):
        ok = VerificationReport("x", "n<=3", "verified")
        assert ok.status == "verified" and ok.to_json() == {
            "identity": "x", "range": "n<=3", "status": "verified",
        }
        bad = VerificationReport("x", "n<=3", "mismatch", {"params": {}})
        assert bad.status == "mismatch"
        assert bad.to_json()["counterexample"] == {"params": {}}
        info = VerificationReport("x", "n<=3", "not-applicable", notes=("why",))
        assert info.status == "not-applicable" and info.to_json()["notes"] == ["why"]
        with pytest.raises(InvalidInputError):
            VerificationReport("x", "r", "unknown-status")
        with pytest.raises(InvalidInputError):
            VerificationReport("x", "r", "mismatch")  # no counterexample
        with pytest.raises(InvalidInputError):
            VerificationReport("x", "r", "verified", {"params": {}})

    def test_reports_are_immutable_values(self):
        ok = VerificationReport(identity="x", range="n<=3", status="verified", notes=("a",))
        assert ok == VerificationReport("x", "n<=3", "verified", None, ("a",))
        assert ok != VerificationReport("x", "n<=3", "verified") and ok != ("x",)
        assert hash(ok) == hash(VerificationReport("x", "n<=3", "verified", notes=("a",)))
        assert repr(ok) == (
            "VerificationReport(identity='x', range='n<=3', status='verified', "
            "counterexample=None, notes=('a',))"
        )
        with pytest.raises(AttributeError):
            ok.status = "mismatch"
        with pytest.raises(AttributeError):
            ok.extra = 1
        with pytest.raises(AttributeError):
            del ok.notes
        assert ok.status == "verified"
        # the counterexample is a dict, so only a mismatch report is unhashable
        hash(VerificationReport("x", "r", "not-applicable", notes=("why",)))
        with pytest.raises(TypeError):
            hash(VerificationReport("x", "r", "mismatch", {"params": {}}))

    def test_runner_stops_at_first_mismatch(self, monkeypatch):
        # a closed form wrong only at (n, k) = (5, 2): the runner must report
        # exactly that case, and leave the other family of the suite alone
        def wrong_at_5_2(n, k):
            good = closed_des_k(n, k)
            return good.shift(1) if (n, k) == (5, 2) else good

        monkeypatch.setattr(genfun, "closed_des_k", wrong_at_5_2)
        des, inv = run_suite("theorem", n_max=6)
        assert des.identity == "theorem[des]" and des.status == "mismatch"
        assert des.counterexample["params"] == {"n": 5, "k": 2}
        lhs = LaurentPoly(map(tuple, des.counterexample["lhs"]["terms"]))
        assert lhs == closed_des_k(5, 2)
        assert inv.identity == "theorem[inv]" and inv.status == "verified"

    def test_inclusion_exclusion_reports_first_broken_case(self, monkeypatch):
        # Reading lcm(2, 3) as 5 adds a spurious -inv_5 to every K holding 2
        # and 3 once n = 6, where the true lcm 6 drops out.  The sweep checks
        # the coefficient of each des_g, cell by cell, and K = {2,3} is the
        # first such K at n = 6: inv_{2,3} counts no gap-5 pair, but the sum
        # takes -1 of des_5.
        lcm = math.lcm
        monkeypatch.setattr(
            stats.math, "lcm", lambda *ks: 5 if sorted(ks) == [2, 3] else lcm(*ks)
        )
        sweep = run_suite("inclusion-exclusion", n_max=7)[1]
        assert sweep.identity == "inclusion-exclusion[sweep]"
        assert sweep.status == "mismatch"
        assert sweep.counterexample == {
            "params": {"n": 6, "K": [2, 3]},
            "lhs": [0, 1, 1, 1, 0],
            "rhs": [0, 1, 1, 1, -1],
        }

    @pytest.mark.parametrize("n", range(2, 8))
    def test_des_vectors_of_sn_span_every_gap(self, n):
        # The sweep compares inclusion-exclusion's coefficients gap by gap.
        # That is the check over every sigma because the vectors
        # (des_1, ..., des_(n-1)) of S_n, counted here word by word, span
        # Q^(n-1): sides that differ at some gap differ on some sigma.
        vectors = {
            tuple(sum(map(operator.gt, w, w[g:])) for g in range(1, n))
            for w in itertools.permutations(range(n))
        }
        assert len(vectors) == (2, 4, 12, 32, 128, 470)[n - 2]
        basis = []  # (pivot, row): each row is 0 at the pivots before its own
        for v in vectors:
            row = list(map(Fraction, v))
            for pivot, b in basis:
                row = [x - row[pivot] / b[pivot] * y for x, y in zip(row, b)]
            pivot = next((i for i, x in enumerate(row) if x), None)
            if pivot is not None:
                basis.append((pivot, row))
        assert len(basis) == n - 1

    # Planted defects in the width-set rules of stats: each must flip exactly
    # the identities whose routes read that rule, and no other.

    @staticmethod
    def _mismatches():
        reports = [*run_suite("example"), *run_suite("inclusion-exclusion", 5)]
        return {r.identity: r.counterexample for r in reports if r.status == "mismatch"}

    def test_lcm_expansion_without_negative_terms(self, monkeypatch):
        # without the even-sized subsets a gap that two widths divide counts
        # twice: the by_lcm route and the sweep both read the expansion, and
        # the sweep's first overcount is at n = 3, K = {1, 2}, whose gap 2
        # both widths divide, so the sum takes des_2 twice
        terms = stats._lcm_terms
        monkeypatch.setattr(
            stats, "_lcm_terms", lambda *args: [t for t in terms(*args) if t[0] > 0]
        )
        bad = self._mismatches()
        assert set(bad) == {"inclusion-exclusion[example]", "inclusion-exclusion[sweep]"}
        assert bad["inclusion-exclusion[example]"]["params"]["route"] == "by_lcm"
        assert bad["inclusion-exclusion[sweep]"] == {
            "params": {"n": 3, "K": [1, 2]},
            "lhs": [1, 1],
            "rhs": [1, 2],
        }

    def test_inv_set_without_gap_6(self, monkeypatch):
        # the pair (1, 7) of 4136572 has gap 6: the worked example loses it,
        # and so does every term of the by_lcm route, which reads inv_2,
        # inv_3 and inv_6 as 3 + 1 - 0 = 4; the direct route and the sweep
        # count without inv_set
        pairs = stats.inv_set
        monkeypatch.setattr(
            stats,
            "inv_set",
            lambda word, widths: tuple(p for p in pairs(word, widths) if p[1] - p[0] != 6),
        )
        bad = self._mismatches()
        assert set(bad) == {"example[inv]", "inclusion-exclusion[example]"}
        assert bad["example[inv]"]["lhs"]["count"] == 4
        assert bad["inclusion-exclusion[example]"]["params"]["route"] == "by_lcm"
        assert bad["inclusion-exclusion[example]"]["lhs"] == 4

    def test_des_set_without_index_1(self, monkeypatch):
        descents = stats.des_set
        monkeypatch.setattr(
            stats,
            "des_set",
            lambda word, widths: tuple(i for i in descents(word, widths) if i != 1),
        )
        bad = self._mismatches()
        assert set(bad) == {"example[des]"}
        assert bad["example[des]"]["lhs"] == {"count": 2, "multiset": [4, 5]}


class TestSuites:
    def test_registry_names(self):
        assert list(SUITES) == [
            "example",
            "theorem",
            "equidistribution",
            "inclusion-exclusion",
            "gtable",
            "conjecture",
            "duality",
            "avoidance",
            "counting",
        ]

    def test_unknown_suite_raises(self):
        with pytest.raises(InvalidInputError):
            run_suite("no-such-suite")

    @pytest.fixture
    def suite_calls(self, monkeypatch):
        # every suite records (name, bound) and reports nothing
        calls = []
        for name in SUITES:
            def record(top, caches, name=name):
                calls.append((name, top))
                return []

            monkeypatch.setitem(SUITES, name, record)
        return calls

    @pytest.mark.parametrize("name", ["all", "theorem", "avoidance"])
    def test_bad_runs_raise_before_any_suite(self, monkeypatch, suite_calls, name):
        bound = max(SUITE_NMAX.values()) if name == "all" else SUITE_NMAX[name]
        with pytest.raises(InvalidInputError, match=r"^nmax must be >= 0, got -1$"):
            run_suite(name, n_max=-1)
        with pytest.raises(InvalidInputError, match="unknown suite"):
            run_suite(name + "-typo", n_max=3)
        monkeypatch.setenv("WIDTHK_MAX_N", str(bound - 1))
        with pytest.raises(
            EnumerationCapError,
            match=rf"^nmax={bound} exceeds enumeration cap {bound - 1} "
            r"\(raise WIDTHK_MAX_N to override\)$",
        ):
            run_suite(name, n_max=bound)
        # the default bound is refused up front too
        with pytest.raises(
            EnumerationCapError, match=rf"^n={bound} exceeds enumeration cap {bound - 1}$"
        ):
            run_suite(name)
        assert suite_calls == []
        assert run_suite(name, n_max=bound - 1) == []
        names = list(SUITES) if name == "all" else [name]
        assert suite_calls == [(each, bound - 1) for each in names]

    def test_suite_reports_runs_one_suite_per_step(self, suite_calls):
        suites = suite_reports("all")
        assert suite_calls == []
        assert next(suites) == [] and suite_calls == [("example", 0)]
        assert list(suites) == [[]] * (len(SUITES) - 1)
        assert suite_calls == list(SUITE_NMAX.items())
        assert "suite_reports" not in widthk.__all__

    @pytest.mark.parametrize("name", list(SUITES))
    def test_default_bound_is_suite_nmax(self, name):
        assert run_suite(name) == run_suite(name, n_max=SUITE_NMAX[name])

    def test_example_suite(self):
        reports = run_suite("example")
        assert [r.identity for r in reports] == [
            "example[des]", "example[inv]", "example[exc]", "example[maj]",
        ]
        assert all(r.status == "verified" for r in reports)

    def test_full_run_report_list_is_frozen(self):
        # (identity, range, status) of every report at default bounds, frozen:
        # a registry edit that drops, reorders or relabels a family fails here
        reports = run_suite("all")
        assert [(r.identity, r.range, r.status) for r in reports] == [
            ("example[des]", "sigma=4136572, K={2,3}", "verified"),
            ("example[inv]", "sigma=4136572, K={2,3}", "verified"),
            ("example[exc]", "sigma=4136572, K={2,3}", "verified"),
            ("example[maj]", "sigma=4136572, K={2,3}", "verified"),
            ("theorem[des]", "2<=n<=8, 1<=k<=n-1", "verified"),
            ("theorem[inv]", "2<=n<=8, 1<=k<=n-1", "verified"),
            ("equidistribution[des=exc]", "2<=n<=8, 1<=k<=n-1", "verified"),
            ("equidistribution[inv=maj]", "2<=n<=8, 1<=k<=n-1", "verified"),
            ("equidistribution[des=inv|2k>=n]", "2<=n<=8, 1<=k<=n-1 with 2k>=n", "verified"),
            (
                "equidistribution[inv_K=maj_K|info]",
                "2<=n<=7, K subsets of [n-1] with |K|>=2",
                "not-applicable",
            ),
            ("inclusion-exclusion[example]", "sigma=4136572, K={2,3}", "verified"),
            (
                "inclusion-exclusion[sweep]",
                "2<=n<=7, K subsets of [n-1] with |K|<=3, all sigma",
                "verified",
            ),
            ("gtable[n=6]", "n=6, 1<=k<=n-1", "verified"),
            ("gtable[n=8]", "n=8, 1<=k<=n-1", "verified"),
            ("gtable[n=9]", "n=9, 1<=k<=n-1", "verified"),
            ("conjecture[G=n*q^(1-k)*A_(n-1)]", "2<=n<=9, 1<=k<=n-1 with gcd(k,n)=1", "verified"),
            ("duality[reverse]", "1<=n<=7, all pattern sets from S_3 of size <= 2", "verified"),
            ("duality[complement]", "1<=n<=7, all pattern sets from S_3 of size <= 2", "verified"),
            (
                "duality[reverse-complement]",
                "1<=n<=7, all pattern sets from S_3 of size <= 2",
                "verified",
            ),
            ("duality[univariate:123~321]", "2<=n<=8, 1<=k<=n-1", "verified"),
            ("duality[univariate:132~213~231~312]", "2<=n<=8, 1<=k<=n-1", "verified"),
            ("avoidance[rec:312]", "2<=n<=9, 1<=k<=n-1, Av(312)", "verified"),
            ("avoidance[rec:123,132]", "2<=n<=9, 1<=k<=n-1, Av(123,132)", "verified"),
            ("avoidance[rec:123,312]", "2<=n<=9, 1<=k<=n-1, Av(123,312)", "verified"),
            ("avoidance[rec:132,213]", "2<=n<=9, 1<=k<=n-1, Av(132,213)", "verified"),
            (
                "avoidance[product:132,231]",
                "2<=n<=8, nonempty K subsets of [n-1], Av(132,231)",
                "verified",
            ),
            (
                "avoidance[product:132,312]",
                "2<=n<=8, nonempty K subsets of [n-1], Av(132,312)",
                "verified",
            ),
            ("avoidance[closed-inv:132,312|132,231]", "2<=n<=9, 1<=k<=n-1", "verified"),
            ("avoidance[degree:312]", "2<=n<=9, 1<=k<=n-1, Av(312)", "verified"),
            ("avoidance[catalan@1]", "2<=n<=9, 1<=k<=n-1, Av(312)", "verified"),
            ("avoidance[2^(n-1)@1]", "2<=n<=9, all k and K (products to n<=8)", "verified"),
            ("counting[catalan]", "0<=n<=8, single patterns from S_3", "verified"),
            ("counting[Av(123,321)-vanishes]", "5<=n<=8", "verified"),
            (
                "counting[eval@1=domain-size]",
                "closed forms 2<=n<=8; signed difference and joint to n<=7",
                "verified",
            ),
        ]

    def test_every_family_checks_its_pinned_number_of_cases(self, monkeypatch):
        # Cases each family hands to _check at default bounds, counted as the
        # runner consumes them: a sweep that loses cases keeps its range
        # string and its status, so only its count shows the loss.
        counts = collections.Counter()
        check = verify._check

        def counted(identity, swept, cases, notes=()):
            def each():
                for case in cases:
                    counts[identity] += 1
                    yield case

            counts[identity] += 0
            return check(identity, swept, each(), notes)

        monkeypatch.setattr(verify, "_check", counted)
        run_suite("all")
        assert list(counts.items()) == [
            ("example[des]", 1),
            ("example[inv]", 1),
            ("example[exc]", 1),
            ("example[maj]", 1),
            ("theorem[des]", 28),
            ("theorem[inv]", 28),
            ("equidistribution[des=exc]", 28),
            ("equidistribution[inv=maj]", 28),
            ("equidistribution[des=inv|2k>=n]", 16),
            ("inclusion-exclusion[example]", 3),
            ("inclusion-exclusion[sweep]", 91),
            ("gtable[n=6]", 5),
            ("gtable[n=8]", 7),
            ("gtable[n=9]", 8),
            ("conjecture[G=n*q^(1-k)*A_(n-1)]", 27),
            ("duality[reverse]", 154),
            ("duality[complement]", 154),
            ("duality[reverse-complement]", 154),
            ("duality[univariate:123~321]", 28),
            ("duality[univariate:132~213~231~312]", 84),
            ("avoidance[rec:312]", 36),
            ("avoidance[rec:123,132]", 36),
            ("avoidance[rec:123,312]", 36),
            ("avoidance[rec:132,213]", 36),
            ("avoidance[product:132,231]", 247),
            ("avoidance[product:132,312]", 247),
            ("avoidance[closed-inv:132,312|132,231]", 108),
            ("avoidance[degree:312]", 36),
            ("avoidance[catalan@1]", 36),
            ("avoidance[2^(n-1)@1]", 355),
            ("counting[catalan]", 54),
            ("counting[Av(123,321)-vanishes]", 4),
            ("counting[eval@1=domain-size]", 231),
        ]

    def test_the_nk_grid_and_its_range_string(self):
        # below n = 2 the grid is empty, so a family on it reports not-applicable
        assert [verify._nk(top) for top in range(4)] == [
            ("2<=n<=0, 1<=k<=n-1", []),
            ("2<=n<=1, 1<=k<=n-1", []),
            ("2<=n<=2, 1<=k<=n-1", [(2, 1)]),
            ("2<=n<=3, 1<=k<=n-1", [(2, 1), (3, 1), (3, 2)]),
        ]
        assert [r.status for r in run_suite("theorem", n_max=1)] == ["not-applicable"] * 2

    def test_the_nK_grid_and_its_range_string(self):
        assert [verify._nK(top) for top in range(4)] == [
            ("2<=n<=0, nonempty K subsets of [n-1]", []),
            ("2<=n<=1, nonempty K subsets of [n-1]", []),
            ("2<=n<=2, nonempty K subsets of [n-1]", [(2, (1,))]),
            ("2<=n<=3, nonempty K subsets of [n-1]", [(2, (1,)), (3, (1,)), (3, (2,)), (3, (1, 2))]),
        ]
        assert [verify._nK(top, least=2) for top in (1, 3)] == [
            ("2<=n<=1, K subsets of [n-1] with |K|>=2", []),
            ("2<=n<=3, K subsets of [n-1] with |K|>=2", [(3, (1, 2))]),
        ]
        assert [verify._nK(top, most=1) for top in (0, 3)] == [
            ("2<=n<=0, K subsets of [n-1] with |K|<=1", []),
            ("2<=n<=3, K subsets of [n-1] with |K|<=1", [(2, (1,)), (3, (1,)), (3, (2,))]),
        ]
        _, cells = verify._nK(7, most=3)
        assert len(cells) == sum(math.comb(n - 1, s) for n in range(2, 8) for s in (1, 2, 3))

    def test_small_full_run_report_shape(self):
        for report in run_suite("all", n_max=5):
            assert report.status in ("verified", "mismatch", "not-applicable")
            assert (report.status == "mismatch") == (
                report.counterexample is not None
            )
            assert report.status != "mismatch"

    def test_gtable_reference_has_twenty_entries(self):
        assert sorted(GTABLE_REFERENCE) == [6, 8, 9]
        assert sum(len(row) for row in GTABLE_REFERENCE.values()) == 20
        for n, row in GTABLE_REFERENCE.items():
            for k, (c, s, m, e) in row.items():
                # every quoted factorization must total n! at q = 1
                claimed = factored_form(c, s, m, e)
                assert claimed(1) == math.factorial(n), (n, k)

    def test_gtable_reference_expands_to_closed_g(self):
        # the quoted shapes differ from g_shape only in the power of A_1 = 1
        for n, row in GTABLE_REFERENCE.items():
            for k, shape in row.items():
                assert factored_form(*shape) == closed_g(n, k), (n, k)
                assert format_factored(*shape) == format_factored(*g_shape(n, k))

    def test_factored_form_and_format(self):
        assert factored_form(6, 0, 5, 1) == 6 * eulerian_poly(5)
        assert factored_form(180, -2, 2, 2) == (
            180 * eulerian_poly(2) ** 2
        ).shift(-2)
        assert format_factored(1120, -4, 3, 2) == "1120*q^-4*A_3(q)^2"
        assert format_factored(720, 0, 1, 1) == "720"
        assert format_factored(6, 0, 5, 1) == "6*A_5(q)"


def test_block_multinomial_matches_closed_form_constant():
    for n in range(2, 9):
        for k in range(1, n):
            d, r = divmod(n, k)
            assert closed_des_k(n, k)(1) == block_multinomial(n, k) * (
                math.factorial(d + 1) ** r * math.factorial(d) ** (k - r)
            )
