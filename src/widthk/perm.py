"""
Permutations in one-line notation, their symmetries, pattern containment,
and enumeration of symmetric groups and pattern-avoidance classes.

A permutation of [n] = {1, ..., n} is represented as a tuple of its values
a_1, ..., a_n.  The empty tuple is the empty permutation, which is a valid
value (recursions index down to it).  Text form is a bare digit string for
n <= 9 ("4136572") and comma-separated values beyond ("10,3,1,...").
"""
from __future__ import annotations

import itertools
import os
from typing import Iterable, Iterator, Sequence

from .errors import EnumerationCapError, InvalidInputError

DEFAULT_MAX_N = 10
_ENV_CAP = "WIDTHK_MAX_N"


def enumeration_cap() -> int:
    """Current size cap for exhaustive enumeration (env WIDTHK_MAX_N overrides)."""
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidInputError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise InvalidInputError(f"{_ENV_CAP} must be >= 0, got {raw!r}")
    return cap


def as_perm(word: Iterable[int]) -> tuple[int, ...]:
    """
    Validate that word is a rearrangement of {1, ..., n} and return it as a tuple.

    >>> as_perm([4, 1, 3, 2])
    (4, 1, 3, 2)
    """
    w = tuple(word)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise InvalidInputError(f"not a permutation of [n]: {w!r}")
    return w


def standardize(word: Sequence[int]) -> tuple[int, ...]:
    """
    Replace each entry by its rank, giving the order-isomorphic permutation.

    >>> standardize((4, 3, 5, 2))
    (3, 2, 4, 1)
    >>> standardize((4, 6, 2))
    (2, 3, 1)
    """
    if len(set(word)) != len(word):
        raise InvalidInputError(f"entries must be distinct: {tuple(word)!r}")
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def reverse(word: Sequence[int]) -> tuple[int, ...]:
    """Reversal a_n ... a_1."""
    return tuple(reversed(word))


def complement(word: Sequence[int]) -> tuple[int, ...]:
    """Complement (n+1-a_1) ... (n+1-a_n)."""
    n = len(word)
    return tuple(n + 1 - a for a in word)


def _extends(chosen: list[int], pattern: Sequence[int], value: int) -> bool:
    # value may fill slot len(chosen) iff it compares to every chosen value
    # the way the pattern letters compare.
    p = pattern[len(chosen)]
    for s, u in enumerate(chosen):
        if (value > u) != (p > pattern[s]):
            return False
    return True


def contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    True iff some subsequence of word is order-isomorphic to pattern.

    Exhaustive search over subsequences, pruned when too few letters remain
    to complete the pattern.

    >>> contains((4, 1, 3, 6, 5, 7, 2), (3, 1, 2))
    True
    >>> contains((1, 2, 3, 4), (2, 1))
    False
    """
    return _embeds(word, pattern, [], 0)


def _embeds(word: Sequence[int], pattern: Sequence[int], chosen: list[int], start: int) -> bool:
    # Complete chosen, the values of an occurrence of pattern[:len(chosen)],
    # from the letters at start and after.  A module-level recursion, so no
    # call leaves a self-referencing closure for the garbage collector.
    t = len(chosen)
    m = len(pattern)
    if t == m:
        return True
    for p in range(start, len(word) - (m - t) + 1):
        v = word[p]
        if _extends(chosen, pattern, v):
            chosen.append(v)
            if _embeds(word, pattern, chosen, p + 1):
                return True
            chosen.pop()
    return False


def check_patterns(patterns: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Validate a pattern collection: each a nonempty permutation. Sorted, deduplicated."""
    out = sorted({as_perm(p) for p in patterns})
    for p in out:
        if len(p) == 0:
            raise InvalidInputError("patterns must have length >= 1")
    return tuple(out)


def avoids(word: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    """True iff word contains no pattern from the collection (vacuously true for none)."""
    return all(not contains(word, p) for p in check_patterns(patterns))


def check_cap(n: int) -> None:
    """Refuse to enumerate a domain of size n beyond the enumeration cap, or n < 0."""
    cap = enumeration_cap()
    if n > cap:
        raise EnumerationCapError(f"n={n} exceeds enumeration cap {cap}")
    if n < 0:
        raise InvalidInputError("n must be >= 0")


def enumerate_sn(n: int) -> Iterator[tuple[int, ...]]:
    """
    All n! permutations of [n], in lexicographic order of one-line notation.

    >>> list(enumerate_sn(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    check_cap(n)
    return itertools.permutations(range(1, n + 1))


def _gap(pattern: Sequence[int], s: int, n: int) -> int:
    # s: bitmask of the values of an occurrence of pattern[:t], t = |s|.
    # Returns the bitmask of values x for which s plus a later letter x is an
    # occurrence of pattern[:t+1]: those strictly between the r-th and
    # (r+1)-th smallest values of s, r the rank of pattern[t] in pattern[:t+1].
    t = s.bit_count()
    r = sum(1 for x in pattern[:t] if x < pattern[t])
    values = [0] + [v for v in range(1, n + 1) if s >> v & 1] + [n + 1]
    return (1 << values[r + 1]) - (1 << (values[r] + 1))


def avoidance_class(
    n: int, patterns: Iterable[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """
    All permutations of [n] avoiding every given pattern, lexicographically.

    Generated by depth-first prefix extension, with no containment search.
    An occurrence of a prefix p[:t] of a pattern p of length m is kept as
    the bitmask S of its values; a later letter extends it to p[:t+1]
    exactly when it lies in the value interval gap(S) that the rank of p[t]
    among p[:t+1] dictates.  Each branch carries a bitmask `taken` of the
    values used or forbidden, and draws the next letter from the rest.  A
    new occurrence of p[:m-1] forbids its gap for the whole subtree.

    The occurrences of p[:m-2] are folded into `rows`: rows[x] is what
    placing x next would forbid, so the occurrence of p[:m-1] that x
    completes costs nothing to find.  Length 1 starts with every value
    taken; length 2 starts rows[v] at gap({v}); for length 3 the letters
    themselves are the occurrences of p[:1], and one table pair[a][v] holds
    what (a, v) folds in for all length-3 patterns at once, which is faster
    than the per-pattern occurrence lists below.  From length 4 on, placing
    v extends the occurrences {a} of p[:1] (the earlier letters whose gap
    holds v) and the stored occurrences of p[:2] .. p[:m-3] whose gap holds
    v; a stored occurrence is dropped once no value left can fall in its
    gap.  The gaps and folds are memoized per pattern for the call and freed
    when it returns.  A prefix of length n - 1 has at most one value left
    and is completed without another level.
    """
    check_cap(n)
    pats = check_patterns(patterns)
    if not pats:
        yield from enumerate_sn(n)
        return
    everything = (1 << (n + 1)) - 2

    # pair[a][v]: bit x set iff a before v, then x, would form a length-3
    # pattern.  p[2] = 1, 2, 3 puts x in the gap below, between or above a, v.
    pair = [[0] * (n + 1) for _ in range(n + 1)]
    for p0, p1, p2 in (p for p in pats if len(p) == 3):
        for a, v in itertools.permutations(range(1, n + 1), 2):
            if (a < v) == (p0 < p1):
                gaps = (0, min(a, v), max(a, v), n + 1)
                pair[a][v] |= (1 << gaps[p2]) - (1 << (gaps[p2 - 1] + 1))
    rows = [0] * (n + 1)
    for p in (p for p in pats if len(p) == 2):
        for v in range(1, n + 1):
            rows[v] |= _gap(p, 1 << v, n)
    taken = everything if any(len(p) == 1 for p in pats) else 0
    # (pattern, p[0] < p[1], gap memo, fold memo) per pattern of length >= 4
    long = [(p, p[0] < p[1], {}, {}) for p in pats if len(p) >= 4]

    prefix: list[int] = []

    def grow(v: int, left: int, rows: list[int], stored: list) -> list:
        # Place v after prefix: fold each new occurrence of p[:m-2] into
        # rows, and return the stored occurrences of p[:2] .. p[:m-3] that
        # are still live, given the values left to place.
        # stored[i][j]: (S, gap(S)) per occurrence of p[:j+2], p = long[i][0].
        bit = 1 << v
        child = []
        for (p, up, gaps, folds), levels in zip(long, stored):
            grown = [1 << a | bit for a in prefix if (a < v) == up]
            child_levels = []
            for level in levels:
                kept = [e for e in level if e[1] & left]
                for s in grown:
                    g = gaps.get(s)
                    if g is None:
                        g = gaps[s] = _gap(p, s, n)
                    if g & left:
                        kept.append((s, g))
                child_levels.append(kept)
                grown = [s | bit for s, g in level if g & bit]
            for s in grown:
                fold = folds.get(s)
                if fold is None:
                    g = _gap(p, s, n)
                    fold = folds[s] = [
                        (x, _gap(p, s | 1 << x, n)) for x in range(1, n + 1) if g >> x & 1
                    ]
                for x, g in fold:
                    rows[x] |= g
            child.append(child_levels)
        return child

    def extend(taken: int, rows: list[int], stored: list) -> Iterator[tuple[int, ...]]:
        free = everything & ~taken
        if len(prefix) >= n - 1:
            if len(prefix) == n:
                yield tuple(prefix)
            elif free:
                yield (*prefix, free.bit_length() - 1)
            return
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            child_taken = taken | bit | rows[v]
            child_rows = [r | f for r, f in zip(rows, pair[v])]
            child_stored = (
                grow(v, everything & ~child_taken, child_rows, stored) if long else stored
            )
            prefix.append(v)
            yield from extend(child_taken, child_rows, child_stored)
            prefix.pop()

    try:
        yield from extend(taken, rows, [[[] for _ in range(len(p) - 4)] for p, *_ in long])
    finally:
        del extend  # extend refers to itself; without this the memos wait for gc


def parse_perm(text: str) -> tuple[int, ...]:
    """
    Parse the text form of a permutation: bare digits for n <= 9,
    comma-separated integers otherwise.  Empty text is the empty permutation.

    >>> parse_perm("4136572")
    (4, 1, 3, 6, 5, 7, 2)
    >>> parse_perm("10,3,1,2,4,5,6,7,8,9")[:3]
    (10, 3, 1)
    """
    text = text.strip()
    if not text:
        return ()
    try:
        if "," in text:
            word = tuple(int(part) for part in text.split(","))
        else:
            word = tuple(int(ch) for ch in text)
    except ValueError:
        raise InvalidInputError(f"cannot parse permutation from {text!r}") from None
    return as_perm(word)


def parse_patterns(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse a comma-separated list of digit-string patterns ("123,321")."""
    text = text.strip()
    if not text:
        return ()
    return check_patterns(parse_perm(part) for part in text.split(","))


def format_perm(word: Sequence[int]) -> str:
    """Inverse of parse_perm: digit string for n <= 9, comma-separated beyond."""
    if len(word) == 0:
        return ""
    if len(word) <= 9:
        return "".join(str(a) for a in word)
    return ",".join(str(a) for a in word)
