"""
Width-k statistics on permutations.

A width-k descent of a_1...a_n is an index i with a_i > a_{i+k}; a width-k
inversion is a pair (i, j) with a_i > a_j and j - i a positive multiple of k.
Every function takes either a single width (int) or a width set (iterable of
ints).  For a width set the descent indices combine as a multiset while the
inversion pairs combine as a set, so a pair whose gap is divisible by two
widths counts once.  Indices are 1-based throughout, matching the usual
one-line conventions.

The counts des, inv, maj and exc come from `scanner`, which counts a
whole batch of words at once, in lanes.  A batch is its columns, one per
position (item i: word i's letter), bytes or ints, and its number of words;
each column packs into one integer whose lane i holds word i's letter, and
each compared pair of positions is one broadword comparison of two columns
(Lamport, "Multiple byte processing with full-word instructions", CACM
18(8), 1975), so a pair costs a few big-integer operations whatever the
batch's size.  The words are words of distinct nonnegative integers.  A
single word is a batch of one, each column one letter.

>>> words = [(2, 1, 4, 3), (1, 2, 3, 4), (300, 5, 200, 0)]
>>> scanner("des", 4, 1)(list(zip(*words)), 3)
[2, 0, 2]

The per-word sets des_set and inv_set come straight from the definitions,
and `_lcm_terms` is the one inclusion-exclusion expansion of a width set,
read by `inv_by_lcm` and by the verification sweep.  The scanner, the batch
counter, keeps its own gap rule and shares no code with these, so the tests
that compare it with the per-word sets compare two routes, not one.
"""
from __future__ import annotations

import math
from itertools import combinations
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import InvalidInputError
from .poly import _columns, _lanes

Widths = int | Iterable[int]

STATISTICS = ("des", "exc", "inv", "maj")


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


def des_set(word: Sequence[int], widths: Widths) -> tuple[int, ...]:
    """
    Width-k descent indices; for a width set, the multiset union in sorted order.

    >>> des_set((4, 1, 3, 6, 5, 7, 2), 2)
    (1, 5)
    >>> des_set((4, 1, 3, 6, 5, 7, 2), (2, 3))
    (1, 4, 5)
    """
    ks = normalize_widths(widths, len(word))
    return tuple(sorted(i + 1 for k in ks for i in range(len(word) - k) if word[i] > word[i + k]))


def des(word: Sequence[int], widths: Widths = 1) -> int:
    """Number of width-k descents (multiset size for a width set)."""
    return scanner("des", len(word), widths)(list(zip(word)), 1)[0]


def inv_set(word: Sequence[int], widths: Widths) -> tuple[tuple[int, int], ...]:
    """
    Width-k inversion pairs; for a width set, the deduplicated union, sorted.

    >>> inv_set((4, 1, 3, 6, 5, 7, 2), (2, 3))
    ((1, 3), (1, 7), (3, 7), (4, 7), (5, 7))
    """
    n = len(word)
    ks = normalize_widths(widths, n)
    pairs = {
        (i + 1, j + 1) for k in ks for i in range(n) for j in range(i + k, n, k) if word[i] > word[j]
    }
    return tuple(sorted(pairs))


def inv(word: Sequence[int], widths: Widths = 1) -> int:
    """Number of width-k inversions (set-union size for a width set)."""
    return scanner("inv", len(word), widths)(list(zip(word)), 1)[0]


def _lcm_terms(widths: Widths, n: int) -> list[tuple[int, int]]:
    """
    The inclusion-exclusion expansion of a width set K over words of length
    n: (sign, lcm) for each nonempty subset S of K whose lcm is below n, with
    sign (-1)^(|S|+1), the subsets by size and then in combinations order.
    The signs of the terms whose lcm divides a gap g sum to 1 if some width
    divides g and to 0 otherwise, so inv_K is the signed sum of inv at the
    lcms; a subset whose lcm is n or more has no pair to count.

    >>> _lcm_terms((2, 3), 7)
    [(1, 2), (1, 3), (-1, 6)]
    """
    ks = normalize_widths(widths, n)
    return [
        ((-1) ** (size + 1), lcm)
        for size in range(1, len(ks) + 1)
        for sub in combinations(ks, size)
        if (lcm := math.lcm(*sub)) < n
    ]


def inv_by_lcm(word: Sequence[int], widths: Widths) -> int:
    """
    Width-set inversion count via inclusion-exclusion over subsets: each
    nonempty subset contributes (-1)^(size+1) times the inversion count at
    its lcm, with lcm >= n contributing nothing.  Must agree with inv().
    """
    return sum(sign * len(inv_set(word, lcm)) for sign, lcm in _lcm_terms(widths, len(word)))


def exc(word: Sequence[int], widths: Widths = 1) -> int:
    """
    Width-k excedance count: the classical excedances of the standardized
    blocks a_i a_(i+k) a_(i+2k) ... for i = 1..k, summed over blocks and
    over the widths.  A repeated letter raises InvalidInputError.
    """
    if len(set(word)) != len(word):  # the scanner's ranks need distinct letters
        raise InvalidInputError(f"entries must be distinct: {tuple(word)!r}")
    return scanner("exc", len(word), widths)(list(zip(word)), 1)[0]


def maj(word: Sequence[int], widths: Widths = 1) -> int:
    """
    Width-k major index: sum of ceil(i / k) over width-k descents i,
    summed over the widths.  Equals the blockwise classical major sum.
    """
    return scanner("maj", len(word), widths)(list(zip(word)), 1)[0]


def scanner(statistic: str, n: int, widths: Widths) -> Callable[[Sequence, int], list[int]]:
    """
    A counter of a statistic at the given widths over a batch of m words of
    length n, each a word of distinct nonnegative integers.  A batch is its
    columns: count(columns, m) takes the n columns (item i of column p: word
    i's letter at p), each a bytes object or a sequence of ints, and returns
    the list of the m counts, every count an int.  It counts in lanes of L
    bits, wide enough that every letter and every count of the batch is
    below 2^(L-1).  Column p packs into one integer whose lane i holds word
    i's letter at p; with ONE a 1 in every lane and G = ONE << (L-1), lane i
    of ((A | G) - B - ONE) & G is G exactly when a_i > b_i, and no borrow
    crosses a lane.  So one comparison of two columns covers the whole
    batch: des sums it over the pairs (i, i + k), inv over the pairs whose
    gap some width divides, and maj weights each width-k pair by
    ceil((i + 1)/k).  exc sums, within each block b = a_i a_(i+k) ..., one
    comparison per pair into the rank R_t of every letter, and counts the
    letters with R_t > t.

    >>> words = [(4, 1, 3, 6, 5, 7, 2), (1, 2, 3, 4, 5, 6, 7)]
    >>> scanner("inv", 7, (2, 3))(list(zip(*words)), 2)
    [5, 0]
    >>> scanner("inv", 3, 1)([b"\\x01\\x03", b"\\x02\\x02", b"\\x03\\x01"], 2)  # 123, 321
    [0, 3]
    >>> scanner("des", 0, 1)([], 1)  # S_0: the empty word
    [0]
    """
    if statistic not in STATISTICS:
        raise InvalidInputError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    ks = normalize_widths(widths, n)
    pairs: list[tuple[int, int]] = []
    weights: list[int] = []
    blocks: list[slice] = []
    if statistic == "exc":  # blocks of one letter have no excedance
        blocks = [slice(i, None, k) for k in ks for i in range(min(k, n - k))]
        most = n * len(ks)  # above every rank and every count
    else:
        gaps = {d for k in ks for d in range(k, n, k)} if statistic == "inv" else ks
        pairs = [(i, i + d) for d in gaps for i in range(n - d)]
        if statistic == "maj":
            weights = [i // d + 1 for d in gaps for i in range(n - d)]
        most = sum(weights) or len(pairs)  # the largest count

    def count(columns: Sequence, m: int) -> list[int]:
        if not m or not (pairs or blocks):
            return [0] * m  # no pair to compare
        slot, cols = _columns(columns, m, most.bit_length())
        one = ((1 << slot * m) - 1) // ((1 << slot) - 1)  # a 1 in every lane
        high, shift = one << (slot - 1), slot - 1

        # lane i of ((a | high) - b - one & high) >> shift is 1 exactly when a_i > b_i
        above = [((cols[i] | high) - cols[j] - one & high) >> shift for i, j in pairs]
        total = sum(map(mul, above, weights)) if weights else sum(above)
        for block in blocks:
            b = cols[block]
            ranks = []  # lane i of ranks[t]: the letters of b below b_t
            for t, bt in enumerate(b):
                rank, bt1 = t * one, bt + one  # as if every earlier letter were below
                for s in range(t):
                    d = ((b[s] | high) - bt1 & high) >> shift  # b_s > b_t
                    ranks[s] += d
                    rank -= d  # the letters are distinct
                ranks.append(rank)
            # b_t is an excedance when its rank exceeds t, which the last rank cannot
            for t, rank in enumerate(ranks[:-1]):
                total += ((rank | high) - (t + 1) * one & high) >> shift
        return _lanes(total, slot, m)

    return count
