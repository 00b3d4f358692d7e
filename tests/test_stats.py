"""Width-k statistics against hand-checked values and classical oracles."""

import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthk.errors import EnumerationCapError, InvalidInputError
from widthk.genfun import brute_distribution
from widthk.perm import (
    _BATCH,
    _batches,
    avoidance_class,
    avoids,
    enumerate_sn,
    parse_patterns,
    standardize,
)
from widthk.poly import LaurentPoly
from widthk.stats import (
    STATISTICS,
    _lcm_terms,
    des,
    des_set,
    exc,
    inv,
    inv_by_lcm,
    inv_set,
    maj,
    normalize_widths,
    scanner,
)

W = (4, 1, 3, 6, 5, 7, 2)


def classical_stats(word):
    """
    The classical quadruple (des, inv, maj, exc), computed directly from the
    textbook definitions: the width-1 oracle.
    """
    n = len(word)
    descents = [i + 1 for i in range(n - 1) if word[i] > word[i + 1]]
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j]
    )
    excedances = sum(1 for i, a in enumerate(word) if a > i + 1)
    return (len(descents), inversions, sum(descents), excedances)


perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_normalize_widths():
    assert normalize_widths(3, 7) == (3,)
    assert normalize_widths(9, 7) == (9,)  # single width may exceed n
    assert normalize_widths([3, 2, 2], 7) == (2, 3)
    with pytest.raises(InvalidInputError):
        normalize_widths(0, 7)
    with pytest.raises(InvalidInputError):
        normalize_widths([], 7)
    with pytest.raises(InvalidInputError):
        normalize_widths([2, 7], 7)  # width set must sit inside [1, n-1]
    with pytest.raises(InvalidInputError):
        normalize_widths([0, 2], 7)
    # a word of length <= 1 keeps the classical width 1, and only it
    assert normalize_widths([1], 0) == (1,)
    assert normalize_widths([1], 1) == (1,)
    with pytest.raises(InvalidInputError, match=r"\[2\] not contained in \[1, 1\]"):
        normalize_widths([2], 1)


@pytest.mark.parametrize("widths", [[1, "a"], [1, None], 2.5, None, [1, 2.0], [[1]]])
def test_non_integer_widths_are_invalid_input(widths):
    # sorting or hashing such widths raises TypeError, which must not escape
    with pytest.raises(InvalidInputError):
        normalize_widths(widths, 5)
    with pytest.raises(InvalidInputError):
        des((3, 1, 2), widths)


class TestWorkedExample:
    # hand-checked on 4136572 with widths {2, 3}

    def test_descents(self):
        assert des_set(W, 2) == (1, 5)
        assert des_set(W, 3) == (4,)
        assert des_set(W, (2, 3)) == (1, 4, 5)
        assert des(W, (2, 3)) == 3

    def test_inversions(self):
        assert inv_set(W, 2) == ((1, 3), (1, 7), (3, 7), (5, 7))
        assert inv_set(W, 3) == ((1, 7), (4, 7))
        assert inv_set(W, (2, 3)) == ((1, 3), (1, 7), (3, 7), (4, 7), (5, 7))
        assert inv(W, 2) == 4
        assert inv(W, 3) == 2
        assert inv(W, 6) == 1
        assert inv(W, (2, 3)) == 5  # 4 + 2 - 1: the gap-6 pair counts once

    def test_excedances(self):
        assert exc(W, 2) == 2
        assert exc(W, 3) == 2
        assert exc(W, (2, 3)) == 4

    def test_major_index(self):
        assert maj(W, 2) == 4
        assert maj(W, 3) == 2
        assert maj(W, (2, 3)) == 6

    def test_width_set_unions(self):
        # descents join as a multiset: index 1 is a descent at widths 1 and 2
        assert des_set(W, 1) == (1, 4, 6)
        assert des_set(W, (1, 2)) == (1, 1, 4, 5, 6)
        assert des(W, (1, 2)) == 5
        # inversions join as a set: (1, 7) has gap 6, a multiple of 2 and 3
        assert len(inv_set(W, 2)) + len(inv_set(W, 3)) == 6
        assert len(inv_set(W, (2, 3))) == inv(W, (2, 3)) == 5


def test_classical_quadruples():
    assert classical_stats(W) == (3, 8, 11, 3)
    assert classical_stats((3, 1, 4, 2)) == (2, 3, 4, 2)
    assert classical_stats((1, 2, 3)) == (0, 0, 0, 0)
    assert classical_stats((3, 2, 1)) == (2, 3, 3, 1)


def test_width_one_reduces_to_classical():
    for w in itertools.permutations(range(1, 6)):
        d, i, m, e = classical_stats(w)
        assert des(w, 1) == d
        assert inv(w, 1) == i
        assert maj(w, 1) == m
        assert exc(w, 1) == e


# One word per statistic on which widths 1 and 2 give different counts,
# with the counts at width 1 and at width 2.
DEFAULT_WIDTH_WITNESSES = [
    (des, (3, 2, 1), 2, 1),
    (inv, (3, 1, 2), 2, 1),
    (exc, (2, 3, 1), 2, 1),
    (maj, (1, 3, 2), 2, 0),
]


@pytest.mark.parametrize(
    "statistic, witness, at_1, at_2", DEFAULT_WIDTH_WITNESSES, ids=["des", "inv", "exc", "maj"]
)
def test_the_default_width_is_1(statistic, witness, at_1, at_2):
    # every width gives 0 on words of length 0 and 1, so only longer words
    # tell the default width from width 2
    assert (statistic(witness), statistic(witness, 1), statistic(witness, 2)) == (at_1, at_1, at_2)
    for n in range(3, 7):
        for w in itertools.permutations(range(1, n + 1)):
            assert statistic(w) == statistic(w, 1), w


def test_width_at_least_n_is_trivial():
    assert des(W, 7) == 0
    assert des(W, 12) == 0
    assert inv(W, 7) == 0
    assert maj(W, 9) == 0
    assert exc(W, 7) == 0


def test_inclusion_exclusion_matches_direct_count_exhaustively():
    # every sigma in S_5, every nonempty width set
    for w in itertools.permutations(range(1, 6)):
        for size in (1, 2, 3, 4):
            for ks in itertools.combinations((1, 2, 3, 4), size):
                assert inv_by_lcm(w, ks) == inv(w, ks), (w, ks)


def test_lcm_expansion_counts_each_gap_once():
    # inclusion-exclusion per gap, with no permutation: the terms whose lcm
    # divides g carry signs summing to 1 when some width of K divides g
    for n in range(2, 11):
        for size in range(1, n):
            for ks in itertools.combinations(range(1, n), size):
                terms = _lcm_terms(ks, n)
                for g in range(1, n):
                    covered = any(g % k == 0 for k in ks)
                    assert sum(s for s, lcm in terms if g % lcm == 0) == covered, (n, ks, g)


def test_lcm_expansion_lists_subsets_by_size_then_combinations_order():
    assert _lcm_terms((3, 2), 9) == [(1, 2), (1, 3), (-1, 6)]
    assert _lcm_terms((2, 3, 4), 13) == [
        (1, 2), (1, 3), (1, 4), (-1, 6), (-1, 4), (-1, 12), (1, 12)
    ]
    assert _lcm_terms((2, 3), 6) == [(1, 2), (1, 3)]  # lcm 6 has no pair
    assert _lcm_terms(7, 7) == []
    with pytest.raises(InvalidInputError):
        _lcm_terms((2, 9), 9)


def test_inclusion_exclusion_at_large_width_sets():
    # every K of [1, 8] with |K| >= 4 at n = 9, where a subset's lcm is
    # often 9 or more; the scanner counts each K's words in one batch
    rng = random.Random(9)
    words = [tuple(rng.sample(range(1, 10), 9)) for _ in range(50)]
    for size in range(4, 9):
        for ks in itertools.combinations(range(1, 9), size):
            assert [inv_by_lcm(w, ks) for w in words] == scanner("inv", 9, ks)(words), ks


@given(perms, st.sets(st.integers(1, 6), min_size=1, max_size=3))
@settings(max_examples=300)
def test_inclusion_exclusion_property(w, ks):
    ks = {k for k in ks if k < len(w)}
    if not ks:
        return
    assert inv_by_lcm(w, ks) == inv(w, ks)


@given(perms, st.sets(st.integers(1, 6), min_size=1, max_size=3))
@settings(max_examples=300)
def test_union_bounds(w, ks):
    ks = {k for k in ks if k < len(w)}
    if not ks:
        return
    assert des(w, ks) == sum(des(w, k) for k in ks)
    assert inv(w, ks) <= sum(inv(w, k) for k in ks)
    assert len(inv_set(w, ks)) == inv(w, ks)
    assert maj(w, ks) == sum(maj(w, k) for k in ks)


@given(perms, st.integers(1, 6))
@settings(max_examples=300)
def test_single_width_internal_consistency(w, k):
    assert des(w, k) == len(des_set(w, k))
    assert inv(w, k) == len(inv_set(w, k))
    if k < len(w):
        blocks = [standardize(w[i::k]) for i in range(k)]
        assert maj(w, k) == sum(classical_stats(b)[2] for b in blocks)
        assert exc(w, k) == sum(classical_stats(b)[3] for b in blocks)


@functools.cache  # blocks recur across words and widths
def _block_excedances(block):
    return sum(1 for i, a in enumerate(standardize(block)) if a > i + 1)


def per_word(statistic, word, widths):
    """The per-word definitions that the scanners must match."""
    n = len(word)
    ks = normalize_widths(widths, n)
    if statistic == "des":
        return len(des_set(word, widths))
    if statistic == "inv":
        return len(inv_set(word, widths))
    if statistic == "maj":
        return sum(math.ceil(i / k) for k in ks for i in des_set(word, k))
    return sum(_block_excedances(word[i::k]) for k in ks if k < n for i in range(k))


def _width_sets(n):
    top = max(n - 1, 1)
    for size in range(1, top + 1):
        yield from itertools.combinations(range(1, top + 1), size)


def test_scanners_match_per_word_definitions():
    # S_n as one batch, n <= 6, at every width set; then S_7 at every single
    # width, those >= n included, and at some width sets
    cases = [(n, ks) for n in range(7) for ks in _width_sets(n)]
    cases += [(7, k) for k in range(1, 10)] + [(7, ks) for ks in ((1, 2), (2, 3), (1, 3, 5))]
    for n, widths in cases:
        words = list(enumerate_sn(n))
        for name in STATISTICS:
            assert scanner(name, n, widths)(words) == [
                per_word(name, w, widths) for w in words
            ], (name, n, widths)


def test_scanner_counts_any_split_of_a_batch_alike():
    # a batch's counts do not depend on where the batch is cut, nor on the
    # other words in it; a word alone is a batch of one
    words = list(enumerate_sn(6))
    for name in STATISTICS:
        for widths in (1, 4, (1, 2), (2, 3, 5)):
            count = scanner(name, 6, widths)
            whole = count(words)
            for cut in (0, 1, 359, 719, 720):
                assert count(words[:cut]) + count(words[cut:]) == whole, (name, widths, cut)
            assert [count([w])[0] for w in words[::37]] == whole[::37]


def test_scanner_on_empty_words_and_empty_batches():
    # zip(*[()]) has no columns: words of length 0 and 1 have no pair
    for name in STATISTICS:
        assert scanner(name, 0, 1)([()]) == [0]
        assert scanner(name, 1, 1)([(1,)]) == [0]
        assert scanner(name, 1, [1])([(1,), (1,)]) == [0, 0]
        for n in (0, 1, 5):
            assert scanner(name, n, 1)([]) == []
    assert (des(()), inv((1,)), maj(()), exc((1,))) == (0, 0, 0, 0)


def test_counts_are_ints_never_bools():
    # one compared pair (des at width n - 1) gives a bool per word before
    # the sum; a bool key would print as True/False
    words = list(enumerate_sn(5))
    for name in STATISTICS:
        for widths in (4, (4,), 1, (1, 3)):
            counts = scanner(name, 5, widths)(words)
            assert {type(c) for c in counts} == {int}, (name, widths)
            dist = brute_distribution(5, name, widths)
            assert {type(e) for e, _ in dist.terms()} == {int}, (name, widths)
    assert type(des((2, 1), 1)) is int
    assert str(brute_distribution(8, "des", 7)) == "20160 + 20160*q"


@pytest.mark.parametrize("pats", ["312", "132,4321", "1342,2143", "2413,3142"])
def test_brute_distribution_matches_per_word_definitions(pats):
    # the class by containment search, independent of the avoidance walk
    patterns = parse_patterns(pats)
    for n in range(3, 8):
        members = [w for w in enumerate_sn(n) if avoids(w, patterns)]
        for name in STATISTICS:
            for widths in (1, 2, (1, 2)):
                expected = Counter(per_word(name, w, widths) for w in members)
                assert brute_distribution(n, name, widths, patterns) == LaurentPoly(
                    expected
                ), (pats, n, name, widths)


@pytest.mark.parametrize("n, pats", [(7, "4321"), (8, "1234"), (8, "132,4321")])
def test_brute_distribution_over_classes_of_several_batches(n, pats):
    # Av_7(4321) and Av_8(1234) fill more than one of the walk's lists, S_7
    # more than one islice chunk; the counts over the batches must add up
    # to the per-word counts over the members
    patterns = parse_patterns(pats)
    batches = list(_batches(n, patterns))
    members = [w for batch in batches for w in batch]
    assert members == [w for w in enumerate_sn(n) if avoids(w, patterns)]
    assert len(batches) > 1 or len(members) <= _BATCH
    assert all(0 < len(batch) < 2 * _BATCH for batch in batches)
    sn = list(_batches(7, ()))
    assert [len(b) for b in sn] == [_BATCH] * 4 + [5040 - 4 * _BATCH]
    for name in STATISTICS:
        for widths in (1, 3, (1, 2)):
            expected = Counter(per_word(name, w, widths) for w in members)
            assert brute_distribution(n, name, widths, patterns) == LaurentPoly(expected)


def test_avoidance_class_raises_on_first_next():
    # a generator: the cap and the patterns are checked when it first runs
    for n, pats, error in ((11, [(2, 1)], EnumerationCapError), (4, [(1, 1)], InvalidInputError)):
        members = avoidance_class(n, pats)
        with pytest.raises(error):
            next(members)
