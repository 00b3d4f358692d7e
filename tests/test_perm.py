"""Permutation layer: symmetries, containment, enumeration, parsing."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthk.errors import EnumerationCapError, InvalidInputError
from widthk.perm import (
    as_perm,
    avoidance_class,
    avoids,
    check_patterns,
    complement,
    contains,
    decreasing,
    enumerate_sn,
    enumeration_cap,
    format_perm,
    identity,
    parse_patterns,
    parse_perm,
    reverse,
    standardize,
)
from widthk.poly import catalan

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


def test_constructors():
    assert identity(4) == (1, 2, 3, 4)
    assert decreasing(4) == (4, 3, 2, 1)
    assert identity(0) == decreasing(0) == ()


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
    # lengths other than 3 take the anchored search; mixed sets take both paths
    for pats in [
        ((3, 1, 2),), ((1, 2, 3), (3, 2, 1)), ((2, 1),), ((1,),),
        ((1, 2), (3, 1, 2)), ((1, 3, 2), (2, 4, 1, 3)), ((3, 1, 2), (1, 2, 3, 4)),
    ]:
        for n in range(8):
            expected = [w for w in enumerate_sn(n) if avoids(w, pats)]
            assert list(avoidance_class(n, pats)) == expected, (pats, n)


S3 = sorted(itertools.permutations((1, 2, 3)))


@pytest.fixture(scope="module")
def s3_contents():
    # n -> [(w, bit i set iff w contains S3[i])] over S_n, by the generic
    # containment search; a class is the words whose bits miss its patterns
    return {
        n: [
            (w, sum(1 << i for i, p in enumerate(S3) if contains(w, p)))
            for w in enumerate_sn(n)
        ]
        for n in range(9)
    }


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


patterns = st.integers(1, 4).flatmap(
    lambda m: st.permutations(list(range(1, m + 1))).map(tuple)
)


@given(st.lists(patterns, min_size=1, max_size=3), st.integers(0, 6))
@settings(deadline=None)
def test_avoidance_class_matches_filter_on_random_sets(pats, n):
    expected = [w for w in enumerate_sn(n) if avoids(w, pats)]
    assert list(avoidance_class(n, pats)) == expected


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
    monkeypatch.setenv("WIDTHK_MAX_N", "three")
    with pytest.raises(InvalidInputError):
        enumeration_cap()


def test_explicit_max_n_overrides_cap():
    # callers that already hold a handle may lift the cap per call
    assert sum(1 for _ in enumerate_sn(4, max_n=4)) == 24
    with pytest.raises(EnumerationCapError):
        list(enumerate_sn(5, max_n=4))


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
