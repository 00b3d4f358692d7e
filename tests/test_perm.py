"""Permutation layer: symmetries, containment, enumeration, parsing."""

import collections
import functools
import gc
import itertools
import operator
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthk import perm
from widthk.errors import EnumerationCapError, InvalidInputError
from widthk.verify import SweepCaches
from widthk.perm import (
    _class_walk,
    _digits,
    _joint_descents,
    _sn_excedances,
    _sn_g,
    _sn_majors,
    _subset_sums,
    as_perm,
    avoidance_class,
    avoids,
    check_patterns,
    complement,
    contains,
    enumerate_sn,
    enumeration_cap,
    format_perm,
    parse_patterns,
    parse_perm,
    reverse,
    standardize,
)
from widthk.poly import LaurentPoly, catalan

perms = st.integers(0, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_as_perm_accepts_rearrangements():
    assert as_perm([4, 1, 3, 2]) == (4, 1, 3, 2)
    assert as_perm(()) == ()


@pytest.mark.parametrize("bad", [(1, 1), (0, 1), (2, 3), (1, 2, 4)])
def test_as_perm_rejects_non_permutations(bad):
    with pytest.raises(InvalidInputError):
        as_perm(bad)


def test_standardize_known_values():
    assert standardize((4, 3, 5, 2)) == (3, 2, 4, 1)
    assert standardize((4, 6, 2)) == (2, 3, 1)
    assert standardize(()) == ()
    with pytest.raises(InvalidInputError):
        standardize((2, 2))


def test_symmetries_known_values():
    assert reverse((4, 1, 3, 2)) == (2, 3, 1, 4)
    assert complement((4, 1, 3, 2)) == (1, 4, 2, 3)


@given(perms)
def test_symmetries_are_involutions(w):
    assert reverse(reverse(w)) == w
    assert complement(complement(w)) == w
    assert standardize(w) == w


def test_contains_known_cases():
    assert contains((4, 1, 3, 6, 5, 7, 2), (3, 1, 2))
    assert not contains((1, 2, 3, 4), (2, 1))
    assert contains((2, 1), ())
    assert not contains((2, 1), (1, 2, 3))
    assert avoids((1, 3, 2), [(1, 2, 3)])
    assert not avoids((1, 3, 2), [(1, 2, 3), (1, 3, 2)])
    assert avoids((3, 1, 2), ())


def test_contains_leaves_no_garbage():
    # a self-referencing search closure would leave one cycle per call for
    # the collector; with collection off, none must pile up
    gc.collect()
    gc.disable()
    try:
        for w in itertools.permutations(range(1, 6)):
            contains(w, (1, 3, 2))
            avoids(w, [(2, 1, 4, 3), (3, 2, 1)])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sn_walks_leave_no_garbage():
    # a walk whose closure refers to itself would keep its key dict and
    # memos alive until the cyclic collector runs; the class walk, which
    # counts keys or lists members, must not either, even when dropped early
    gc.collect()
    gc.disable()
    try:
        for n in range(3, 7):
            _joint_descents(n, ())
            _sn_majors(n, (1, 2))
            _sn_excedances(n, 2)
            _sn_g(n, 1)
            for pats in (((3, 1, 2),), ((1, 3, 4, 2), (2, 1, 4, 3)), ((1, 2, 3, 4, 5),)):
                _joint_descents(n, pats)
                list(avoidance_class(n, pats))
                next(avoidance_class(n, pats))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _maj_profile(word):
    """
    (maj_1, ..., maj_(n-1)) of one word: entry g-1 sums ceil(i/g) over its
    width-g descents i.  The per-word oracle for the maj_K DPs.
    """
    n = len(word)
    maj = [0] * n
    for i in range(n - 1):
        a = word[i]
        for j in range(i + 1, n):
            if a > word[j]:
                g = j - i
                maj[g] += (i + g) // g
    return tuple(maj[1:])


@pytest.mark.parametrize("n", range(9))
def test_exc_maj_walk_matches_per_word_scan(n, word_counter):
    # the maj_K DP at every single width (and, for n <= 6, at every width
    # set K) and the exc_k DPs, at every k, against one scan per word (each
    # exc scanner is what stats.exc runs); maj_K sums the profile over K
    ks = range(1, n)
    words = list(itertools.permutations(range(1, n + 1)))
    excs = {k: collections.Counter(word_counter("exc", n, k)(words)) for k in ks}
    majs = collections.Counter(map(_maj_profile, words))
    for size in range(1, n if n <= 6 else 2):
        for K in itertools.combinations(ks, size):
            maj_K = collections.Counter()
            for profile, c in majs.items():
                maj_K[sum(profile[g - 1] for g in K)] += c
            assert _sn_majors(n, K) == LaurentPoly(maj_K), K
    caches = SweepCaches()
    for k in ks:
        assert caches.dist(n, "exc", (k,)) == LaurentPoly(excs[k]), k
        assert caches.dist(n, "maj", (k,)) == _sn_majors(n, (k,)), k


@pytest.mark.parametrize("n", range(9))
def test_sn_joint_descents_match_unpruned_walk(n):
    # the DP against the class walk with no pattern, which walks all of S_n
    # with the key tables the walk of a class gets
    w = (n - 1).bit_length()
    tables = [_subset_sums(j - 1, lambda i, j=j: 1 << w * (j - i - 1)) for j in range(n + 1)]
    keys = collections.Counter(itertools.chain.from_iterable(_class_walk(n, (), tables)))
    assert _joint_descents(n, ()) == _digits(keys, n, w)


def _contains_brute(word, pattern):
    m = len(pattern)
    return any(
        standardize([word[i] for i in idx]) == tuple(pattern)
        for idx in itertools.combinations(range(len(word)), m)
    )


@given(perms, st.sampled_from(sorted(itertools.permutations((1, 2, 3)))))
@settings(max_examples=200)
def test_contains_matches_brute_force(w, p):
    assert contains(w, p) == _contains_brute(w, p)


def test_check_patterns_sorts_and_dedups():
    pats = check_patterns([(3, 1, 2), (1, 3, 2), (3, 1, 2)])
    assert pats == ((1, 3, 2), (3, 1, 2))
    with pytest.raises(InvalidInputError):
        check_patterns([(1, 2), ()])


def test_enumerate_sn_lexicographic():
    assert list(enumerate_sn(3)) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]
    assert list(enumerate_sn(0)) == [()]


def test_avoidance_class_single_patterns_are_catalan():
    for pattern in itertools.permutations((1, 2, 3)):
        for n in range(7):
            assert sum(1 for _ in avoidance_class(n, [pattern])) == catalan(n)


def test_avoidance_class_matches_filter():
    # lengths 1 to 4 are tabled before the walk; longer patterns extend
    # their occurrences as it goes; mixed sets share one rows int
    for pats in [
        ((3, 1, 2),), ((1, 2, 3), (3, 2, 1)), ((2, 1),), ((1,),),
        ((1, 2), (3, 1, 2)), ((1, 3, 2), (2, 4, 1, 3)), ((3, 1, 2), (1, 2, 3, 4)),
        ((1,), (2, 4, 1, 3)), ((2, 1), (1, 3, 4, 2)), ((3, 1, 2), (1, 2, 3, 4, 5)),
        ((1, 2, 3, 4), (4, 3, 2, 1)), ((2, 1, 4, 3), (3, 5, 1, 4, 2)),
    ]:
        for n in range(8):
            expected = [w for w in enumerate_sn(n) if avoids(w, pats)]
            assert list(avoidance_class(n, pats)) == expected, (pats, n)


def _contents(length, nmax):
    # n -> [(w, bit i set iff w contains the i-th pattern of this length in
    # lexicographic order)] over S_n for n <= nmax.  contains() decides at
    # n = length; a longer word contains a pattern iff one of its one-letter
    # deletions, standardized, does.
    pats = sorted(itertools.permutations(range(1, length + 1)))
    contents = {n: [(w, 0) for w in enumerate_sn(n)] for n in range(length)}
    contents[length] = [
        (w, sum(1 << i for i, p in enumerate(pats) if contains(w, p)))
        for w in enumerate_sn(length)
    ]
    for n in range(length + 1, nmax + 1):
        shorter = dict(contents[n - 1])
        contents[n] = [
            (w, functools.reduce(
                operator.or_, (shorter[tuple(x - (x > a) for x in w if x != a)] for a in w)
            ))
            for w in enumerate_sn(n)
        ]
    return contents


S3 = sorted(itertools.permutations((1, 2, 3)))
S4 = sorted(itertools.permutations((1, 2, 3, 4)))


@pytest.fixture(scope="module")
def s3_contents():
    # a class is the words whose bits miss its patterns
    return _contents(3, 8)


@pytest.mark.parametrize(
    "pats",
    [(p,) for p in S3] + list(itertools.combinations(S3, 2)),
    ids=lambda pats: ",".join("".join(map(str, p)) for p in pats),
)
def test_mask_kernel_matches_containment_oracle(pats, s3_contents):
    mask = sum(1 << S3.index(p) for p in pats)
    for n, contents in s3_contents.items():
        expected = [w for w, bits in contents if not bits & mask]
        assert list(avoidance_class(n, pats)) == expected, n


@pytest.mark.parametrize("length, nmax", [(4, 7), (5, 6)])
def test_every_long_pattern_matches_containment_oracle(length, nmax):
    # length 4 folds straight into rows; length 5 also stores occurrences
    table = _contents(length, nmax)
    for i, pattern in enumerate(sorted(itertools.permutations(range(1, length + 1)))):
        for n, contents in table.items():
            expected = [w for w, bits in contents if not bits >> i & 1]
            assert list(avoidance_class(n, [pattern])) == expected, (pattern, n)


def test_every_pair_of_length4_patterns_matches_containment_oracle():
    # all length-4 patterns fold through one shared table per letter
    table = _contents(4, 6)
    for i, j in itertools.combinations(range(24), 2):
        pats = [S4[i], S4[j]]
        for n, contents in table.items():
            expected = [w for w, bits in contents if not bits >> i & 1 and not bits >> j & 1]
            assert list(avoidance_class(n, pats)) == expected, (pats, n)


@pytest.mark.parametrize(
    "pats",
    ["312", "1234", "4321", "1342,2143", "1234,4321", "132,4321", "132,1324,2143,3412"],
)
def test_walk_finds_no_gap_after_its_first_member(monkeypatch, pats):
    # up to length 4 every gap is tabled before the walk starts, so the
    # placements after the first member compute none
    gap = perm._gap
    calls = []
    monkeypatch.setattr(perm, "_gap", lambda *args: calls.append(args) or gap(*args))
    walk = avoidance_class(8, parse_patterns(pats))
    next(walk)
    before = len(calls)
    assert sum(1 for _ in walk) > 100
    assert len(calls) == before, pats


# |Av_n(p)| for n = 1..8, one length-4 pattern per Wilf class: OEIS A005802,
# A022558 and A061552 (Bona, Combinatorics of Permutations, ch. 4-5)
WILF_CLASSES_4 = {
    (1, 2, 3, 4): [1, 2, 6, 23, 103, 513, 2761, 15767],
    (1, 3, 4, 2): [1, 2, 6, 23, 103, 512, 2740, 15485],
    (1, 3, 2, 4): [1, 2, 6, 23, 103, 513, 2762, 15793],
}


@pytest.mark.parametrize("pattern", list(WILF_CLASSES_4), ids=lambda p: "".join(map(str, p)))
def test_length4_wilf_class_counts(pattern):
    for p in {pattern, reverse(pattern), complement(pattern)}:
        counts = [sum(1 for _ in avoidance_class(n, [p])) for n in range(1, 9)]
        assert counts == WILF_CLASSES_4[pattern], p


patterns = st.integers(1, 5).flatmap(
    lambda m: st.permutations(list(range(1, m + 1))).map(tuple)
)


@given(st.lists(patterns, min_size=1, max_size=3), st.integers(0, 6))
@settings(deadline=None)
def test_avoidance_class_matches_filter_on_random_sets(pats, n):
    expected = [w for w in enumerate_sn(n) if avoids(w, pats)]
    assert list(avoidance_class(n, pats)) == expected


def _opened_prefixes(n, pats):
    # (prefixes the walk opens, members): one opened prefix per call of the
    # walk's plain recursion, extend, which fills a list with the members
    # below one prefix or expands it one level.
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_filename == perm.__file__ and code.co_name == "extend":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        members = list(avoidance_class(n, pats))
    finally:
        sys.setprofile(previous)
    return calls, members


@pytest.mark.parametrize("length", [3, 4])
def test_walk_opens_only_live_prefixes(length):
    # a walk must open every prefix of a member shorter than n - 1 (the
    # value left completes a prefix of length n - 1 in its parent's loop);
    # one that opens no other prefix has the same count
    for pattern in itertools.permutations(range(1, length + 1)):
        for n in range(8):
            opened, members = _opened_prefixes(n, [pattern])
            live = {w[:i] for w in members for i in range(n - 1)}
            assert opened == len(live), (pattern, n)


# prefixes opened for Av_7 of each pair from S_3 before the walk skipped
# letters that forbid a value still to place
PAIR_PREFIXES_7 = {
    "123,132": 1030, "123,213": 1030, "123,231": 778, "123,312": 778, "123,321": 330,
    "132,213": 1030, "132,231": 1030, "132,312": 1030, "132,321": 778,
    "213,231": 1030, "213,312": 1030, "213,321": 778,
    "231,312": 1030, "231,321": 1030, "312,321": 1030,
}


@pytest.mark.parametrize("pats", list(PAIR_PREFIXES_7))
def test_pair_walks_open_no_more_prefixes(pats):
    opened, members = _opened_prefixes(7, parse_patterns(pats))
    assert len({w[:i] for w in members for i in range(6)}) <= opened <= PAIR_PREFIXES_7[pats]


def test_avoidance_class_is_lexicographic():
    members = list(avoidance_class(5, [(3, 1, 2)]))
    assert members == sorted(members)


def test_empty_pattern_set_gives_whole_group():
    assert list(avoidance_class(4)) == list(enumerate_sn(4))


def test_enumeration_cap_default_and_env(monkeypatch):
    monkeypatch.delenv("WIDTHK_MAX_N", raising=False)
    assert enumeration_cap() == 10
    with pytest.raises(EnumerationCapError):
        list(enumerate_sn(11))
    with pytest.raises(EnumerationCapError):
        list(avoidance_class(11, [(2, 1)]))
    monkeypatch.setenv("WIDTHK_MAX_N", "12")
    assert enumeration_cap() == 12
    for bad in ("three", "-3"):
        monkeypatch.setenv("WIDTHK_MAX_N", bad)
        with pytest.raises(InvalidInputError):
            enumeration_cap()
        with pytest.raises(InvalidInputError):
            list(avoidance_class(0))


def test_parse_and_format_roundtrip():
    assert parse_perm("4136572") == (4, 1, 3, 6, 5, 7, 2)
    assert parse_perm("") == ()
    assert parse_perm("10,3,1,2,4,5,6,7,8,9") == (10, 3, 1, 2, 4, 5, 6, 7, 8, 9)
    assert format_perm((4, 1, 3, 6, 5, 7, 2)) == "4136572"
    assert format_perm(()) == ""
    assert format_perm(tuple([10, 3] + list(range(1, 9)))).startswith("10,3,")
    with pytest.raises(InvalidInputError):
        parse_perm("4106")
    with pytest.raises(InvalidInputError):
        parse_perm("abc")


def test_parse_patterns():
    assert parse_patterns("132,231") == ((1, 3, 2), (2, 3, 1))
    assert parse_patterns("") == ()
    assert parse_patterns(" 312 ") == ((3, 1, 2),)


@given(perms)
def test_format_parse_roundtrip(w):
    assert parse_perm(format_perm(w)) == w
