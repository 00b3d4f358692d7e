"""
Width-k statistics on permutations.

A width-k descent of a_1...a_n is an index i with a_i > a_{i+k}; a width-k
inversion is a pair (i, j) with a_i > a_j and j - i a positive multiple of k.
Every function takes either a single width (int) or a width set (iterable of
ints).  For a width set the descent indices combine as a multiset while the
inversion pairs combine as a set, so a pair whose gap is divisible by two
widths counts once.  Indices are 1-based throughout, matching the usual
one-line conventions.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import InvalidInputError
from .perm import standardize

Widths = int | Iterable[int]


def normalize_widths(widths: Widths, n: int) -> tuple[int, ...]:
    """Normalize to a sorted tuple of widths; width sets are checked against n."""
    if isinstance(widths, int):
        if widths < 1:
            raise InvalidInputError(f"width must be >= 1, got {widths}")
        return (widths,)
    try:  # a width that is not an int can make set() or sorted() raise
        ks = sorted(set(widths))
    except TypeError:
        raise InvalidInputError(f"widths must be integers: {widths!r}") from None
    if not ks:
        raise InvalidInputError("width set must be nonempty")
    if any(not isinstance(k, int) for k in ks):
        raise InvalidInputError(f"widths must be integers: {ks!r}")
    top = max(n - 1, 1)  # a word of length <= 1 keeps the classical width 1
    if ks[0] < 1 or ks[-1] > top:
        raise InvalidInputError(f"width set {ks!r} not contained in [1, {top}]")
    return tuple(ks)


def _des_one(word: Sequence[int], k: int) -> list[int]:
    return [i + 1 for i in range(len(word) - k) if word[i] > word[i + k]]


def _inv_one(word: Sequence[int], k: int) -> list[tuple[int, int]]:
    n = len(word)
    pairs = []
    for i in range(n):
        a = word[i]
        for j in range(i + k, n, k):
            if a > word[j]:
                pairs.append((i + 1, j + 1))
    return pairs


def des_set(word: Sequence[int], widths: Widths) -> tuple[int, ...]:
    """
    Width-k descent indices; for a width set, the multiset union in sorted order.

    >>> des_set((4, 1, 3, 6, 5, 7, 2), 2)
    (1, 5)
    >>> des_set((4, 1, 3, 6, 5, 7, 2), (2, 3))
    (1, 4, 5)
    """
    ks = normalize_widths(widths, len(word))
    out: list[int] = []
    for k in ks:
        out.extend(_des_one(word, k))
    return tuple(sorted(out))


def des(word: Sequence[int], widths: Widths = 1) -> int:
    """Number of width-k descents (multiset size for a width set)."""
    ks = normalize_widths(widths, len(word))
    return sum(len(_des_one(word, k)) for k in ks)


def inv_set(word: Sequence[int], widths: Widths) -> tuple[tuple[int, int], ...]:
    """
    Width-k inversion pairs; for a width set, the deduplicated union, sorted.

    >>> inv_set((4, 1, 3, 6, 5, 7, 2), (2, 3))
    ((1, 3), (1, 7), (3, 7), (4, 7), (5, 7))
    """
    ks = normalize_widths(widths, len(word))
    pairs: set[tuple[int, int]] = set()
    for k in ks:
        pairs.update(_inv_one(word, k))
    return tuple(sorted(pairs))


def inv(word: Sequence[int], widths: Widths = 1) -> int:
    """Number of width-k inversions (set-union size for a width set)."""
    ks = normalize_widths(widths, len(word))
    if len(ks) == 1:
        return len(_inv_one(word, ks[0]))
    return len(inv_set(word, ks))


def inv_by_lcm(word: Sequence[int], widths: Widths) -> int:
    """
    Width-set inversion count via inclusion-exclusion over subsets: each
    nonempty subset contributes (-1)^(size+1) times the inversion count at
    its lcm, with lcm >= n contributing nothing.  Must agree with inv().
    """
    n = len(word)
    ks = normalize_widths(widths, n)
    total = 0
    for mask in range(1, 1 << len(ks)):
        lcm = 1
        for b, k in enumerate(ks):
            if mask >> b & 1:
                lcm = math.lcm(lcm, k)
                if lcm >= n:
                    break
        if lcm < n:
            sign = -1 if bin(mask).count("1") % 2 == 0 else 1
            total += sign * len(_inv_one(word, lcm))
    return total


def _exc_classical(word: Sequence[int]) -> int:
    return sum(1 for i, a in enumerate(word) if a > i + 1)


def exc(word: Sequence[int], widths: Widths = 1) -> int:
    """
    Width-k excedance count: the classical excedances of the standardized
    blocks a_i a_(i+k) a_(i+2k) ... for i = 1..k, summed over blocks and
    over the widths.
    """
    n = len(word)
    ks = normalize_widths(widths, n)
    total = 0
    for k in ks:
        if k >= n:
            continue  # blocks have at most one letter
        for i in range(k):
            total += _exc_classical(standardize(word[i::k]))
    return total


def maj(word: Sequence[int], widths: Widths = 1) -> int:
    """
    Width-k major index: sum of ceil(i / k) over width-k descents i,
    summed over the widths.  Equals the blockwise classical major sum.
    """
    ks = normalize_widths(widths, len(word))
    return sum(math.ceil(i / k) for k in ks for i in _des_one(word, k))
