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
whole batch of words at once: the widths are normalized once, the batch is
transposed once into columns, and each compared pair of positions costs one
C-level pass over the batch.  A single word is a batch of one.

The per-word sets des_set and inv_set come straight from the definitions,
and `_lcm_terms` is the one inclusion-exclusion expansion of a width set,
read by `inv_by_lcm` and by the verification sweep.  The scanner, the batch
counter, keeps its own gap rule and shares no code with these, so the tests
that compare it with the per-word sets compare two routes, not one.
"""
from __future__ import annotations

import math
from itertools import combinations, compress, repeat
from operator import gt, itemgetter
from typing import Callable, Iterable, Sequence

from .errors import InvalidInputError

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
    return scanner("des", len(word), widths)([word])[0]


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
    return scanner("inv", len(word), widths)([word])[0]


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
    over the widths.
    """
    return scanner("exc", len(word), widths)([word])[0]


def maj(word: Sequence[int], widths: Widths = 1) -> int:
    """
    Width-k major index: sum of ceil(i / k) over width-k descents i,
    summed over the widths.  Equals the blockwise classical major sum.
    """
    return scanner("maj", len(word), widths)([word])[0]


def scanner(
    statistic: str, n: int, widths: Widths
) -> Callable[[Sequence[Sequence[int]]], list[int]]:
    """
    A counter of a statistic at the given widths over a batch of words of
    length n, the widths normalized once: it maps a list of words to the
    list of their counts, every count an int.  des, inv and maj transpose
    the batch once into columns, compare the columns of every pair of
    positions (i, i + d) in one map(gt) pass, and sum each word's row of
    comparisons in C: des over the gaps d = k, inv over the distinct gaps
    that some width divides (a pair has one gap), and maj over the weights
    ceil(i/k) of the width-k descents that the row selects.  exc slices
    each block b = a_i a_(i+k) ... out of every word in one pass per block
    and counts the letters b_t above the t-th smallest letter of b, which is
    rank(b_t) > t without standardizing.  No Python code runs per word.

    >>> scanner("inv", 7, (2, 3))([(4, 1, 3, 6, 5, 7, 2), (1, 2, 3, 4, 5, 6, 7)])
    [5, 0]
    """
    if statistic not in STATISTICS:
        raise InvalidInputError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    ks = normalize_widths(widths, n)

    def zeros(words: Sequence[Sequence[int]]) -> list[int]:
        return [0] * len(words)

    if statistic == "exc":  # blocks of one letter have no excedance
        blocks = [itemgetter(slice(i, None, k)) for k in ks for i in range(min(k, n - k))]
        if not blocks:
            return zeros

        def count_exc(words: Sequence[Sequence[int]]) -> list[int]:
            sums = []
            for block in blocks:
                bs = list(map(block, words))
                sums.append(map(sum, map(map, repeat(gt), bs, map(sorted, bs))))
            return list(map(sum, zip(*sums)))

        return count_exc
    gaps = {d for k in ks for d in range(k, n, k)} if statistic == "inv" else ks
    pairs = [(i, i + d) for d in gaps for i in range(n - d)]
    if not pairs:
        return zeros  # no pair to compare
    weights = [i // d + 1 for d in gaps for i in range(n - d)] if statistic == "maj" else None

    def count(words: Sequence[Sequence[int]]) -> list[int]:
        cols = list(zip(*words)) or [()] * n  # no word, no letter in any column
        rows = zip(*[map(gt, cols[i], cols[j]) for i, j in pairs])
        if weights:
            rows = map(compress, repeat(weights), rows)
        return list(map(sum, rows))  # sum makes a single pair's bool an int

    return count
