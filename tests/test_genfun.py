"""Distributions and identity checks against independently computed values.

Expected polynomials below were frozen from a standalone brute-force script
(direct definition scans over itertools.permutations), not from this package.
"""

import collections
import itertools
import math

import pytest

from widthk import genfun
from widthk.errors import InvalidInputError
from widthk.genfun import (
    CLOSED_INV,
    GTABLE_REFERENCE,
    PRODUCTS,
    RECURSIONS,
    SUITES,
    SweepCaches,
    VerificationReport,
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
    run_suite,
    t_polynomial,
)
from widthk.poly import LaurentPoly, MultiPoly, block_multinomial, catalan, eulerian_poly, q_factorial


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
        with pytest.raises(InvalidInputError):
            brute_distribution(4, "foo")


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
        # the packed-key walk over S_n against one scan per word
        expected = joint_descent_counts(n)
        assert t_polynomial(n) == expected
        assert t_polynomial(n, ()) == expected
        assert t_polynomial(n, iter(())) == expected

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
        # per-word scan is the oracle for the closed form
        for n in range(2, 8):
            joint = joint_descent_counts(n)
            for k in range(1, n):
                weights = [0] * (n - 1)
                weights[k - 1] += 1
                weights[n - k - 1] -= 1
                assert joint.grade(weights) == closed_g(n, k), (n, k)

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


def joint_descent_counts(n):
    """t_polynomial(n) by scanning each word of S_n for every des_g."""
    acc = collections.Counter()
    for word in itertools.permutations(range(1, n + 1)):
        exps = tuple(
            sum(word[i] > word[i + g] for i in range(n - g)) for g in range(1, n)
        )
        acc[exps] += 1
    return MultiPoly(tuple(f"t{g}" for g in range(1, n)), dict(acc))


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

    def test_132_213_matches_per_row_oracle(self):
        # every n <= 40 and every k <= n + 1
        for k in range(1, 42):
            table = per_row_132_213_table(40, k)
            for n in range(max(k - 1, 0), 41):
                assert rec_132_213(n, k) == table[n], (n, k)

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
    rec_132_213(m, k) for m = 0..n by the recursion on the position i of
    the letter m, adding each row of its three position ranges on its own:
    the independent oracle for the running sum in genfun.
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


class TestLargeFormulas:
    # Two formula routes cross-checked at n in the hundreds, with no
    # enumeration: each family below runs in well under a second.

    @pytest.mark.parametrize("n, k", [(150, 1), (97, 3), (150, 4), (60, 7)])
    def test_product_at_multiples_of_k_is_closed_inv(self, n, k):
        # des over the width set {k, 2k, ...} is inv_k word by word
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


class TestGradedDistributions:
    # every swept distribution is a grade of one memoized joint distribution;
    # enumeration and closed_g are the independent oracles
    CLASSES = [(), *RECURSIONS, *PRODUCTS]

    def test_av_dists_match_enumeration(self):
        caches = SweepCaches()
        for n in range(1, 7):
            for pats in self.CLASSES:
                des, inv = caches.av_dists(n, pats)
                assert set(des) == set(inv) == set(range(1, n))
                for k in range(1, n):
                    assert des[k] == brute_distribution(n, "des", k, pats), (n, k, pats)
                    assert inv[k] == brute_distribution(n, "inv", k, pats), (n, k, pats)

    def test_av_dists_are_graded_once(self):
        caches = SweepCaches()
        assert caches.av_dists(5, ()) is caches.av_dists(5, ())

    def test_sn_exc_maj_match_enumeration(self):
        # maj_K over a width set is a grade of the memoized joint maj polynomial
        caches = SweepCaches()
        for n in range(2, 7):
            exc, maj, joint = caches.sn_exc_maj(n)
            for k in range(1, n):
                assert exc[k] == brute_distribution(n, "exc", k), (n, k)
                assert maj[k] == brute_distribution(n, "maj", k), (n, k)
            for size in range(1, n):
                for ks in itertools.combinations(range(1, n), size):
                    weights = [1 if g in ks else 0 for g in range(1, n)]
                    assert joint.grade(weights) == brute_distribution(
                        n, "maj", ks
                    ), (n, ks)
        # n = 7 is the first size whose residue blocks reach 4 letters (k = 2)
        exc = caches.sn_exc_maj(7)[0]
        for k in range(1, 7):
            assert exc[k] == brute_distribution(7, "exc", k), k

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
        # every k at every n <= 9; g_table(10) alone would add about 1.3 s
        for n in range(2, 10):
            table = g_table(n)
            assert set(table) == set(range(1, n))
            for k in range(1, n):
                assert table[k] == closed_g(n, k), (n, k)

    def test_each_class_is_walked_once(self, monkeypatch):
        walks = collections.Counter()
        walk = genfun.avoidance_class

        def counted(n, patterns=(), max_n=None):
            walks[(n, tuple(patterns))] += 1
            return walk(n, patterns, max_n=max_n)

        monkeypatch.setattr(genfun, "avoidance_class", counted)
        run_suite("all", n_max=6, caches=SweepCaches())
        assert walks
        assert [key for key, count in walks.items() if count > 1] == []

    def test_equidistribution_walks_each_sn_once(self, monkeypatch):
        # the inv_K/maj_K info block grades the exc/maj pass instead of walking
        walks = collections.Counter()
        walk = genfun.enumerate_sn

        def counted(n, max_n=None):
            walks[n] += 1
            return walk(n, max_n=max_n)

        monkeypatch.setattr(genfun, "enumerate_sn", counted)
        run_suite("equidistribution", n_max=6, caches=SweepCaches())
        assert walks == collections.Counter(range(2, 7))


class TestReports:
    def test_status_and_counterexample_invariants(self):
        ok = VerificationReport("x", "n<=3", "verified")
        assert ok.ok and ok.to_json() == {
            "identity": "x", "range": "n<=3", "status": "verified",
        }
        bad = VerificationReport("x", "n<=3", "mismatch", {"params": {}})
        assert not bad.ok
        assert bad.to_json()["counterexample"] == {"params": {}}
        info = VerificationReport("x", "n<=3", "not-applicable", notes=("why",))
        assert info.ok and info.to_json()["notes"] == ["why"]
        with pytest.raises(InvalidInputError):
            VerificationReport("x", "r", "unknown-status")
        with pytest.raises(InvalidInputError):
            VerificationReport("x", "r", "mismatch")  # no counterexample
        with pytest.raises(InvalidInputError):
            VerificationReport("x", "r", "verified", {"params": {}})

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
        assert LaurentPoly.from_json(des.counterexample["lhs"]) == closed_des_k(5, 2)
        assert inv.identity == "theorem[inv]" and inv.status == "verified"

    def test_inclusion_exclusion_reports_first_broken_case(self, monkeypatch):
        # Reading lcm(2, 3) as 5 adds a spurious -inv_5 to every K holding 2
        # and 3 once n = 6, where the true lcm 6 drops out.  inv_5 is nonzero
        # first at the earliest sigma with a_1 > a_6, 234561, and K = {2,3}
        # is the first such K; there inv_{2,3} = 3 but the sum reads 2 + 1 - 1.
        lcm = math.lcm
        monkeypatch.setattr(
            genfun.math, "lcm", lambda *ks: 5 if sorted(ks) == [2, 3] else lcm(*ks)
        )
        sweep = run_suite("inclusion-exclusion", n_max=7)[1]
        assert sweep.identity == "inclusion-exclusion[sweep]"
        assert sweep.status == "mismatch"
        assert sweep.counterexample == {
            "params": {"n": 6, "K": [2, 3], "sigma": "234561"},
            "lhs": 3,
            "rhs": 2,
        }


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

    def test_example_suite(self, caches):
        reports = run_suite("example", caches=caches)
        assert [r.identity for r in reports] == [
            "example[des]", "example[inv]", "example[exc]", "example[maj]",
        ]
        assert all(r.status == "verified" for r in reports)

    def test_small_full_run_report_shape(self, caches):
        for report in run_suite("all", n_max=5, caches=caches):
            assert report.status in ("verified", "mismatch", "not-applicable")
            assert (report.status == "mismatch") == (
                report.counterexample is not None
            )
            assert report.ok

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
