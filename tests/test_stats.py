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
    _column_batches,
    _sn_columns,
    avoidance_class,
    avoids,
    enumerate_sn,
    parse_patterns,
    standardize,
)
from widthk.poly import LaurentPoly, _columns
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


def test_inclusion_exclusion_at_large_width_sets(word_counter):
    # every K of [1, 8] with |K| >= 4 at n = 9, where a subset's lcm is
    # often 9 or more; the scanner counts each K's words in one batch
    rng = random.Random(9)
    words = [tuple(rng.sample(range(1, 10), 9)) for _ in range(50)]
    for size in range(4, 9):
        for ks in itertools.combinations(range(1, 9), size):
            assert [inv_by_lcm(w, ks) for w in words] == word_counter("inv", 9, ks)(words), ks


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


def test_scanners_match_per_word_definitions(word_counter):
    # S_n as one batch, n <= 6, at every width set; then S_7 at every single
    # width, those >= n included, and at some width sets
    cases = [(n, ks) for n in range(7) for ks in _width_sets(n)]
    cases += [(7, k) for k in range(1, 10)] + [(7, ks) for ks in ((1, 2), (2, 3), (1, 3, 5))]
    for n, widths in cases:
        words = list(enumerate_sn(n))
        for name in STATISTICS:
            assert word_counter(name, n, widths)(words) == [
                per_word(name, w, widths) for w in words
            ], (name, n, widths)


def test_scanner_counts_any_split_of_a_batch_alike(word_counter):
    # a batch's counts do not depend on where the batch is cut, nor on the
    # other words in it; a word alone is a batch of one
    words = list(enumerate_sn(6))
    for name in STATISTICS:
        for widths in (1, 4, (1, 2), (2, 3, 5)):
            count = word_counter(name, 6, widths)
            whole = count(words)
            for cut in (0, 1, 359, 719, 720):
                assert count(words[:cut]) + count(words[cut:]) == whole, (name, widths, cut)
            assert [count([w])[0] for w in words[::37]] == whole[::37]


def test_scanner_on_empty_words_and_empty_batches(word_counter):
    # zip(*[()]) has no columns: words of length 0 and 1 have no pair
    for name in STATISTICS:
        assert word_counter(name, 0, 1)([()]) == [0]
        assert word_counter(name, 1, 1)([(1,)]) == [0]
        assert word_counter(name, 1, [1])([(1,), (1,)]) == [0, 0]
        for n in (0, 1, 5):
            assert word_counter(name, n, 1)([]) == []
        assert scanner(name, 0, 1)([], 1) == [0]  # S_0: the empty word
        assert scanner(name, 5, 1)([], 0) == []
    assert (des(()), inv((1,)), maj(()), exc((1,))) == (0, 0, 0, 0)


def _lane_words(rng, letters, count):
    # the increasing and the decreasing word on `letters`, which give the
    # smallest and the largest counts, then `count` shuffles of them
    words = [tuple(sorted(letters)), tuple(sorted(letters, reverse=True))]
    for _ in range(count):
        word = list(letters)
        rng.shuffle(word)
        words.append(tuple(word))
    return words


@pytest.mark.parametrize("n", [9, 15, 16, 17, 127, 128, 129, 255, 256, 300])
def test_scanner_matches_per_word_definitions_across_lane_widths(n, word_counter):
    # the lanes widen from 8 to 16 to 32 bits as the letters and the counts
    # grow: inv at n = 17 reaches 136 and at n >= 24 more than 255, and the
    # letters of 1..n reach 128 at n = 128 and 256 at n = 256
    rng = random.Random(n)
    words = _lane_words(rng, range(1, n + 1), 3)
    for widths in (1, 2, (1, 3, n // 2)):
        for name in STATISTICS:
            expected = [per_word(name, w, widths) for w in words]
            assert word_counter(name, n, widths)(words) == expected, (n, name, widths)


@pytest.mark.parametrize("top", [127, 128, 255, 256, 2**15, 2**31, 2**63, 2**70])
def test_scanner_sizes_lanes_from_the_largest_letter(top, word_counter):
    # letters far above n: the lanes follow the batch's largest letter (the
    # last three need 64-bit and wider slots), never n
    rng = random.Random(top)
    for n in (3, 5, 9):
        words = _lane_words(rng, [0, top, *rng.sample(range(1, min(top, 2**62)), n - 2)], 4)
        for widths in (1, 2, (1, 2)):
            for name in STATISTICS:
                expected = [per_word(name, w, widths) for w in words]
                assert word_counter(name, n, widths)(words) == expected, (top, n, name, widths)
    assert des((300, 200)) == 1 and inv((0, 2**70, 5)) == 1
    assert exc((9, 300, 1)) == 2 and maj((256, 0, 128)) == 1


def test_negative_letters_are_invalid_input(word_counter):
    # the lanes hold nonnegative letters; a negative one raises, alone or in
    # a batch, in 8-bit lanes or wider ones
    for words in ([(1, -2, 3)], [(1, 2, 3), (1, -2, 3)], [(300, 1, -1)], [(3, 2, 1), (-300, 1, 2)]):
        for name in STATISTICS:
            with pytest.raises(InvalidInputError, match="nonnegative"):
                word_counter(name, 3, 1)(words)


def test_exc_of_a_word_with_a_repeated_letter_is_invalid_input():
    # the block ranks take b_s < b_t as the reverse of b_s > b_t, which holds
    # only for distinct letters, so exc refuses a repeat rather than miscount
    for word, widths in (((2, 2, 1), 1), ((1, 3, 5, 3), 2), ((4, 1, 4), (1, 2))):
        with pytest.raises(InvalidInputError, match=r"^entries must be distinct: \("):
            exc(word, widths)
    assert exc((2, 3, 1)) == 2 and exc((9, 300, 1), 2) == 1


def test_adjacent_lanes_hold_the_largest_and_the_smallest_letter(word_counter):
    # words and their reverses alternate, so at every position one lane
    # holds the largest letter and the next the smallest; at n = 128, des at
    # width 1 fills 8-bit lanes to the top (letters 0..127, counts <= 127),
    # and one more letter or one more count takes 16 bits
    for letters in (range(128), range(129), range(1, 129), range(300)):
        n = len(letters)
        rng = random.Random(n)
        words = []
        for _ in range(4):
            word = list(letters)
            rng.shuffle(word)
            words += [tuple(word), tuple(reversed(word))]
        words += [tuple(letters), tuple(reversed(letters))]
        for widths in (1, n - 1, (1, 2)):
            for name in STATISTICS:
                expected = [per_word(name, w, widths) for w in words]
                assert word_counter(name, n, widths)(words) == expected, (n, name, widths)


def test_scanner_counts_any_split_of_a_wide_batch_alike(word_counter):
    # 16-bit lanes (letters up to 129): cutting the batch anywhere, or
    # counting each word alone, gives the same counts
    rng = random.Random(129)
    words = _lane_words(rng, range(1, 130), 9)
    for name in STATISTICS:
        count = word_counter(name, 129, (1, 4))
        whole = count(words)
        for cut in range(len(words) + 1):
            assert count(words[:cut]) + count(words[cut:]) == whole, (name, cut)
        assert [count([w])[0] for w in words] == whole


@pytest.mark.parametrize("pats", ["12", "21"])
def test_brute_distribution_above_the_8_bit_lanes(pats, monkeypatch):
    # Av_130(12) and Av_130(21) hold one word each, whose letters reach 130
    # and whose inv reaches 8385
    monkeypatch.setenv("WIDTHK_MAX_N", "130")
    (word,) = avoidance_class(130, parse_patterns(pats))
    for name in STATISTICS:
        for widths in (1, 2, (2, 3)):
            expected = LaurentPoly({per_word(name, word, widths): 1})
            assert brute_distribution(130, name, widths, parse_patterns(pats)) == expected


def test_counts_are_ints_never_bools(word_counter):
    # one compared pair (des at width n - 1) gives a bool per word before
    # the sum; a bool key would print as True/False
    words = list(enumerate_sn(5))
    for name in STATISTICS:
        for widths in (4, (4,), 1, (1, 3)):
            counts = word_counter(name, 5, widths)(words)
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
    # Av_7(4321) and Av_8(1234) fill more than one of the walk's lists, and
    # S_8 more than one 7! batch; the counts over the batches must add up
    # to the per-word counts over the members
    patterns = parse_patterns(pats)
    batches = list(_column_batches(n, patterns))
    members = [w for columns, _ in batches for w in zip(*columns)]
    assert members == [w for w in enumerate_sn(n) if avoids(w, patterns)]
    assert len(batches) > 1 or len(members) <= _BATCH
    assert all(0 < m < 2 * _BATCH for _, m in batches)
    assert [m for _, m in _column_batches(7, ())] == [5040]
    assert [m for _, m in _column_batches(8, ())] == [5040] * 8
    for name in STATISTICS:
        for widths in (1, 3, (1, 2)):
            expected = Counter(per_word(name, w, widths) for w in members)
            assert brute_distribution(n, name, widths, patterns) == LaurentPoly(expected)


def test_sn_column_batches_are_the_listed_words_columns():
    # joined across batches, S_n's byte columns are the columns of
    # enumerate_sn's words, byte for byte and in order, and no batch holds
    # more than 7! words
    for n in range(9):
        batches = list(_sn_columns(n))
        assert {size for _, size in batches} == {math.factorial(min(n, 7))}, n
        assert all(len(batch) == n for batch, _ in batches), n
        assert all(len(column) == size for batch, size in batches for column in batch), n
        joined = [b"".join(batch[p] for batch, _ in batches) for p in range(n)]
        assert joined == [bytes(column) for column in zip(*enumerate_sn(n))], n


def test_brute_distribution_over_sn_matches_the_word_path(word_counter):
    # S_n counted from its byte columns against the scanner over
    # enumerate_sn's word list, at every single width and three width sets
    for n in range(9):
        words = list(enumerate_sn(n))
        top = max(n - 1, 1)
        sets = [ks for ks in ((1, 2), (2, 3), (1, 3, 5)) if ks[-1] <= top]
        for widths in [*range(1, top + 1), *sets]:
            for name in STATISTICS:
                expected = LaurentPoly(Counter(word_counter(name, n, widths)(words)))
                assert brute_distribution(n, name, widths) == expected, (n, name, widths)


@pytest.mark.parametrize("n, cases", [
    (12, [(name, range(1, 12)) for name in STATISTICS]),
    (130, [("des", 1), ("maj", (1, 2)), ("inv", (50, 100)), ("exc", 64)]),
])
def test_first_sn_column_batch_in_wide_lanes(n, cases, monkeypatch, word_counter):
    # S_12's maj at widths 1..11 can exceed 127, and S_130's letters reach
    # 130, so neither fits 8-bit lanes; each column batch counts as its
    # words do
    monkeypatch.setenv("WIDTHK_MAX_N", str(n))
    columns, size = next(_sn_columns(n))
    words = list(zip(*columns))
    assert len(words) == size == 5040 and words[0] == tuple(range(1, n + 1))
    if n == 12:
        assert maj(range(12, 0, -1), range(1, 12)) > 127
    else:
        assert max(columns[-1]) == 130
    for name, widths in cases:
        count = scanner(name, n, widths)
        assert count(columns, size) == word_counter(name, n, widths)(words), (name, widths)


@pytest.mark.parametrize("pats", [
    "312", "132,4321", "1342,2143", "4321", "1234", "12345", "13524,21", "24153,3412",
])
def test_class_column_batches_are_the_listed_words_columns(pats):
    # joined across batches, a class's byte columns are the columns of
    # avoidance_class's words, byte for byte and in order; Av_7(4321) and
    # Av_8(1234) fill several of the walk's lists
    patterns = parse_patterns(pats)
    for n in range(9):
        words = list(avoidance_class(n, patterns))
        batches = list(_column_batches(n, patterns))
        assert sum(m for _, m in batches) == len(words), (pats, n)
        assert all(len(columns) == n for columns, _ in batches), (pats, n)
        assert all(
            type(column) is bytes and len(column) == m for columns, m in batches for column in columns
        ), (pats, n)
        joined = [b"".join(columns[p] for columns, _ in batches) for p in range(n)]
        assert joined == [bytes(w[p] for w in words) for p in range(n)], (pats, n)
        if pats in ("4321", "1234") and n >= 7:
            assert len(batches) > 1, (pats, n)


@pytest.mark.parametrize("pats", ["12", "21"])
def test_class_batches_above_a_byte_are_int_columns(pats, monkeypatch):
    # a letter of 256 does not fit a byte: Av_256(12) and Av_256(21), one
    # word each, arrive as int columns and count as the definitions say
    monkeypatch.setenv("WIDTHK_MAX_N", "256")
    patterns = parse_patterns(pats)
    (word,) = avoidance_class(256, patterns)
    ((columns, m),) = _column_batches(256, patterns)
    assert m == 1 and columns == [(a,) for a in word]
    for name in STATISTICS:
        for widths in (1, 2, (2, 3)):
            expected = LaurentPoly({per_word(name, word, widths): 1})
            assert brute_distribution(256, name, widths, patterns) == expected, (name, widths)


@pytest.mark.parametrize("letters, slot", [(range(1, 9), 8), (range(1, 131), 16)])
def test_bytes_and_int_columns_count_alike(letters, slot):
    # one batch as bytes columns and as int columns packs into the same
    # lanes, 8-bit below 128 and 16-bit above, and counts alike
    words = _lane_words(random.Random(len(letters)), letters, 20)
    n, m = len(letters), len(words)
    ints = list(zip(*words))
    raw = list(map(bytes, ints))
    assert _columns(raw, m, 1) == _columns(ints, m, 1) and _columns(raw, m, 1)[0] == slot
    for bits in (7, 8, 15, 16):
        assert _columns(raw, m, bits) == _columns(ints, m, bits), bits
    for widths in (1, 2, (1, 3)):
        for name in STATISTICS:
            count = scanner(name, n, widths)
            expected = [per_word(name, w, widths) for w in words]
            assert count(raw, m) == count(ints, m) == expected, (name, widths)


def test_avoidance_class_raises_on_first_next():
    # a generator: the cap and the patterns are checked when it first runs
    for n, pats, error in ((11, [(2, 1)], EnumerationCapError), (4, [(1, 1)], InvalidInputError)):
        members = avoidance_class(n, pats)
        with pytest.raises(error):
            next(members)
