"""
Permutations in one-line notation, their symmetries, pattern containment,
and enumeration of symmetric groups and pattern-avoidance classes.  One DP
over the sets of filled positions counts every distribution over S_n: a
single-key one (exc_k, maj_K, des_k - des_(n-k)) as one packed integer per
set, and the joint descent profile, which the des/inv grades, inclusion-
exclusion and duality read whole, as a dict of packed keys per set.  The
same joint DP, through a filter on where the next value may go, counts the
joint descent profile of every class of length-3 patterns.  The pruned
walk of a class only lists its members.  Words are built only where they
are listed: by `enumerate_sn`, by `avoidance_class`, and in the class
walk's lists.  Brute-force counting takes one batch form, and a batch is
its columns: S_n's relabelled from S_7's byte columns, with no word built,
and a class's the walk's lists transposed.  The joint profile of any other
class, mixed or longer patterns, is counted by brute force.  The DPs build
no word.  Every enumeration checks the cap.

A permutation of [n] = {1, ..., n} is represented as a tuple of its values
a_1, ..., a_n.  The empty tuple is the empty permutation, which is a valid
value (recursions index down to it).  Text form is a bare digit string for
n <= 9 ("4136572") and comma-separated values beyond ("10,3,1,...").
"""
from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from typing import Callable, Iterable, Iterator, Sequence

from . import stats
from .errors import EnumerationCapError, InvalidInputError
from .poly import LaurentPoly, _slot_bits, _unpack

DEFAULT_MAX_N = 10
_ENV_CAP = "WIDTHK_MAX_N"
_BATCH = 1024  # members per list handed on by the class walk
_BYTES = bytes(range(256))  # the identity table of bytes.translate
# _SHIFT[a - 1]: the table of bytes.translate that adds one to the values
# from a on, relabelling [j - 1] onto [j] minus a, for a <= 7
_SHIFT = [_BYTES[:a] + _BYTES[a + 1:] + b"\xff" for a in range(1, 8)]


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
    All permutations of [n] avoiding every given pattern, lexicographically:
    S_n for none, else the members that the pruned walk (`_class_walk`)
    lists.  It checks the cap and the patterns when it first runs.
    """
    check_cap(n)
    pats = check_patterns(patterns)
    if not pats:
        yield from enumerate_sn(n)
        return
    for batch in _class_walk(n, pats):
        yield from batch


def _column_batches(n: int, patterns: Iterable[Sequence[int]]) -> Iterator[tuple[list, int]]:
    # Brute-force counting's batches over Av_n(patterns), S_n for none, in
    # order: a batch is its columns (item i: word i's letter) and its number
    # of words.  S_n's come from _sn_columns; a class's are the walk's lists
    # transposed, to bytes while the letters fit a byte, else to int tuples.
    check_cap(n)
    pats = check_patterns(patterns)
    if not pats:
        yield from _sn_columns(n)
        return
    column = bytes if n < 256 else tuple
    for batch in _class_walk(n, pats):
        yield list(map(column, zip(*batch))), len(batch)


def _sn_columns(n: int) -> Iterator[tuple[list[bytes], int]]:
    # S_n in lexicographic order for brute-force counting, in batches of
    # m! words, m = min(n, 7): each batch is one bytes column per position
    # (byte i: word i's letter) and its number of words, and no tuple is
    # built per word.  A batch fixes the first n - m letters, each a
    # repeated byte, and relabels S_m's columns onto the m values they leave
    # by bytes.translate.  S_m's columns come the same way, by the first-
    # letter decomposition: S_j is the union over a of a followed by S_(j-1)
    # relabelled onto [j] minus a.  It checks the cap when it first runs.
    check_cap(n)
    if n > 255:
        raise InvalidInputError(f"brute-force counting over S_n takes n <= 255, got n={n}")
    m = min(n, 7)
    base: list[bytes] = []
    size = 1
    for j in range(1, m + 1):  # size = (j - 1)!, the words of S_(j-1)
        base = [b"".join([_BYTES[a:a + 1] * size for a in range(1, j + 1)]),
                *[b"".join(map(column.translate, _SHIFT[:j])) for column in base]]
        size *= j
    if n == m:
        yield base, size
        return
    values = range(1, n + 1)
    for prefix in itertools.permutations(values, n - m):
        table = bytes([0, *sorted(set(values).difference(prefix))]).ljust(256, b"\0")
        columns = [_BYTES[a:a + 1] * size for a in prefix]
        yield columns + [column.translate(table) for column in base], size


def _class_walk(n: int, pats: tuple) -> Iterator[list]:
    # The pruned walk over Av_n(pats), by depth-first prefix extension with no
    # containment search.  It yields the members in lexicographic order, in
    # lists of about _BATCH.  An occurrence of a prefix p[:t] of a pattern p
    # of length m is kept as the bitmask S of its values; a later letter
    # extends it to p[:t+1] exactly when it lies in the value interval gap(S)
    # that the rank of p[t] among p[:t+1] dictates.  A new occurrence of
    # p[:m-1] forbids its gap for the whole subtree, and every member still
    # places every value, so a letter whose placing would forbid a value not
    # yet placed opens no branch: the walk opens only prefixes that extend to
    # a member, each branch draws the next letter from the bitmask `left` of
    # the values not yet placed, and a member completes in its parent's loop,
    # by the one value left: no prefix of length n - 1 grows.
    #
    # The occurrences of p[:m-2] are folded into `rows`, one int with a field
    # of width = n + 2 bits per value: field x holds what placing x next would
    # forbid, so the occurrence of p[:m-1] that x completes costs nothing to
    # find.  Length 2 starts field v at gap({v}).  One int fold[a] per letter
    # holds, in field v, what the occurrence (a, v) of p[:2] forbids for all
    # length-3 patterns at once, and, in the pending field v at bit span*v
    # above rows' own fields, what (a, v) folds in for all length-4 patterns;
    # placing a ORs it into rows, and placing v moves pending field v into
    # rows' fields.  So a placement costs a fixed number of int operations,
    # whatever the prefix length or the number of patterns.  From length 5 on,
    # placing v also extends (grow) the occurrences {a} of p[:1] (the values
    # placed on p's side of v) and the stored occurrences of p[:2] .. p[:m-3]
    # whose gap holds v; a stored occurrence is dropped once no value left can
    # fall in its gap.  Their gaps and folds are memoized per pattern for the
    # call.
    #
    # Below two letters, or with the pattern 1, a class holds at most the
    # identity.  One plain recursion, extend, fills a list with the members
    # below a prefix.  Prefixes shorter than cut - 1 are expanded one level at
    # a time into a stack of states, so a list gathers whole subtrees of at
    # most 6! members until it holds _BATCH, and the walk never holds the
    # whole class.
    if n < 2 or (1,) in pats:
        if not n or (1,) not in pats:  # every letter is an occurrence of 1
            yield [tuple(range(1, n + 1))]
        return
    width = n + 2  # bits per field of rows
    span = width * (n + 1)
    fields = (1 << span) - 1

    # fold[a], what placing a ORs into rows.  Field v: x iff a, v, x forms
    # a length-3 p, x between the values of rank p[2] - 1 and p[2] of 0, a,
    # v, n + 1.  Pending field v, field x: what a, v, x forbids for all p of length 4.
    fold = [0] * (n + 1)
    for p in pats:
        if len(p) in (3, 4):
            r = (p[0] < p[2]) + (p[1] < p[2])  # the rank of p[2] in p[:3]
            for a, v in itertools.permutations(range(1, n + 1), 2):
                if (a < v) == (p[0] < p[1]):
                    values = [0, min(a, v), max(a, v), n + 1]
                    if len(p) == 3:
                        fold[a] |= (1 << values[r + 1]) - (1 << values[r] + 1) << width * v
                        continue
                    for x in range(values[r] + 1, values[r + 1]):
                        four = sorted((*values, x))
                        gap = (1 << four[p[3]]) - (1 << four[p[3] - 1] + 1)
                        fold[a] |= gap << width * x + span * v
    rows = 0
    for p, v in itertools.product([p for p in pats if len(p) == 2], range(1, n + 1)):
        rows |= _gap(p, 1 << v, n) << width * v
    # (pattern, p[0] < p[1], gap memo, fold memo) per pattern of length >= 5
    long = [(p, p[0] < p[1], {}, {}) for p in pats if len(p) >= 5]
    deep = any(len(p) >= 4 for p in pats)  # a placement does more than OR fold[v]
    full = (1 << (n + 1)) - 2
    prefix = [0] * (n - 2)  # prefix[i]: the letter at position i + 1

    def grow(v: int, left: int, rows: int, stored: list) -> tuple[int, list]:
        # Place v, with left the values not yet placed: return rows with
        # each new occurrence of p[:m-2] folded in, and the stored
        # occurrences of p[:2] .. p[:m-3] that are still live.
        # stored[i][j]: (S, gap(S)) per occurrence of p[:j+2], p = long[i][0].
        bit = 1 << v
        child = []
        for (p, up, gaps, folds), levels in zip(long, stored):
            side = ~left & (bit - 2 if up else full & -bit << 1)  # placed a, (a < v) == up
            grown = []
            while side:
                grown.append(side & -side | bit)
                side &= side - 1
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
                f = folds.get(s)
                if f is None:
                    g = _gap(p, s, n)
                    f = folds[s] = sum(
                        _gap(p, s | 1 << x, n) << width * x for x in range(1, n + 1) if g >> x & 1
                    )
                rows |= f
            child.append(child_levels)
        return rows, child

    def extend(extend: Callable, j: int, left: int, rows: int, stored: list, out: list,
               stop: int) -> None:
        # Append to out the members below the prefix of length j - 1,
        # or, for a child prefix of length stop - 1, its state.  extend is
        # passed to itself: no closure cell refers to it, so a walk leaves
        # no cycle for the collector.
        append = out.append
        free = left
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            rest = left ^ bit
            if rows >> width * v & rest:
                continue  # placing v would forbid a value still to place
            if j == n - 1:  # the value left completes a member
                append((*prefix, v, rest.bit_length() - 1))
                continue
            child_rows = rows | fold[v]
            child_stored = stored
            if deep:  # fold in the occurrences (a, v) of p[:2]
                child_rows |= rows >> span * v & fields
                if long:
                    child_rows, child_stored = grow(v, rest, child_rows, stored)
            prefix[j - 1] = v
            if j + 1 == stop:
                append((j + 1, rest, child_rows, child_stored, prefix[:j]))
                continue
            extend(extend, j + 1, rest, child_rows, child_stored, out, stop)

    cut = max(1, n - 5)  # a prefix of length cut - 1 leaves at most 6! members
    stored = [[[] for _ in range(len(p) - 4)] for p, *_ in long]
    states = [(1, full, rows, stored, [])]  # a stack, the next state last
    batch: list = []
    while states:
        j, *state, fixed = states.pop()
        prefix[:j - 1] = fixed
        if j < cut:
            children: list = []
            extend(extend, j, *state, children, j + 1)
            states.extend(reversed(children))
            continue
        extend(extend, j, *state, batch, n)
        if len(batch) >= _BATCH:
            yield batch
            batch = []
    if batch:
        yield batch


# ---------------------------------------------------------------------------
# joint descent profiles
#
# Each width statistic is a sum over positions, so the DPs below turn a set
# of positions into a key by one subset-sum table: one packed int whose
# base-2^w digit g-1 counts the width-g descents.  A class that the DP does
# not filter is counted by brute force over its listed columns instead.


def _subset_sums(bits: int, weight: Callable[[int], int]) -> list[int]:
    # table[mask]: the sum of weight(b) over the set bits b of mask (bit b-1)
    table = [0]
    for b in range(1, bits + 1):
        step = weight(b)
        table += [t + step for t in table]
    return table


def _digits(keys: dict[int, int], n: int, w: int) -> dict[tuple[int, ...], int]:
    # The counts of packed keys as counts of their digit vectors (digits
    # 0..n-2 of w bits each)
    digit = (1 << w) - 1
    shifts = [w * g for g in range(n - 1)]
    return {tuple([key >> t & digit for t in shifts]): c for key, c in keys.items()}


def _joint_descents(n: int, pats: tuple) -> dict[tuple[int, ...], int]:
    # Counts of (des_1, ..., des_(n-1)) over Av_n(pats), by the DP over sets
    # of filled positions: over S_n for no pattern, and through the filter of
    # _allowed for patterns all of length 3.  Mixed and longer sets go by
    # brute force: one des scanner per gap counts each batch of the listed
    # columns, and a batch's lanes zip into its members' vectors (the empty
    # vector, below two letters).  des_g <= n - 1 < 2^w
    check_cap(n)
    w = (n - 1).bit_length()
    if not pats:
        return _digits(_sn_dp(n, w), n, w)
    if all(len(p) == 3 for p in pats):
        return _digits(_sn_dp(n, w, allowed=_allowed(n, pats)), n, w)
    scans = [stats.scanner("des", n, g) for g in range(1, n)]
    joint: Counter = Counter()
    for columns, m in _column_batches(n, pats):
        joint.update(zip(*[scan(columns, m) for scan in scans]) if scans else [()] * m)
    return joint


# ---------------------------------------------------------------------------
# distributions over S_n and over classes of length-3 patterns by a DP over
# the set of filled positions
#
# Place the values 1..n in increasing order.  The value placed at position p
# exceeds every value placed before it, so the set s of filled positions
# (bit p-1 for position p) settles what it adds: a width-g descent at p
# iff p + g is in s, adding ceil(p/g) to maj_g, and a width-k excedance iff
# its rank in its residue block, 1 + |s & block(p)|, exceeds p's index
# ceil(p/k) in that block.  States run in increasing integer order: a set's
# subsets are smaller integers, so each state is final when it is reached.
# This is the inversion-table view of a permutation (Rodrigues 1839,
# MacMahon 1915; Stanley, EC1, 1.3), on sets of positions.  The
# single-key kernels (_sn_majors, _sn_excedances, _sn_g) return their
# distribution as a LaurentPoly, made once from the final packed row.
#
# Over a class of length-3 patterns, the joint DP (_sn_dp) places a value
# only where the filter of _allowed lets it, and counts the class with no
# other state: the insertion-encoding view of a class (Albert, Linton and
# Ruskuc, 2005; West's generating trees, 1995, are the same view by values).


def _sn_dp(n: int, w: int, allowed: Callable[[int], int] | None = None) -> dict[int, int]:
    # The packed keys of (des_1, ..., des_(n-1)) over S_n, or, given the
    # filter allowed, over the class it admits: allowed(s) is the bitmask of
    # the free positions where the next value may go when s is filled.
    # Placing at p adds step[s >> p], one to digit g-1 per filled position
    # p + g.  Each state is a dict of keys, popped when reached: only the
    # frontier stays alive, and a state no member fills is skipped.  An
    # empty class leaves the full state unreached, and counts to {}.
    step = _subset_sums(n - 1, lambda g: 1 << w * (g - 1))
    full = (1 << n) - 1
    states = {0: {0: 1}}
    for s in range(1 << n):
        row = states.pop(s, None)
        if row is None:
            continue
        free = full ^ s if allowed is None else allowed(s)
        while free:
            bit = free & -free
            free ^= bit
            d = step[s >> bit.bit_length()]
            target = states.setdefault(s | bit, {})
            get = target.get
            for key, c in row.items():
                key += d
                target[key] = get(key, 0) + c
    return row or {}


def _allowed(n: int, pats: tuple) -> Callable[[int], int]:
    # The filter of _sn_dp for Av_n(pats), every pattern of length 3:
    # allowed(s) holds the free positions where the next, larger value v may
    # go when the positions in s are filled.  An occurrence of a pattern
    # completes when its 3 is placed, and its 1 and 2 were placed before:
    # placing v at p makes v the 2 of an occurrence with each filled a on
    # the side of p that the pattern fixes for its 1, and that pair forbids
    # one interval to its 3.  Every free position takes a larger value
    # later, so p is allowed exactly when the union of those intervals holds
    # no free position but p.  That union reads only the lowest or highest
    # filled position on one side of p, so per pattern, in bits, the
    # allowed positions are (reversal swaps the rules of 123 and 321, of 132
    # and 231, and of 312 and 213):
    #   123: below every filled one, or the highest free one;
    #   321: above every filled one, or the lowest free one;
    #   132: below every filled one, or the lowest free one above the
    #        lowest filled one;
    #   231: above every filled one, or the highest free one below the
    #        highest filled one;
    #   312: below every filled one above the lowest free one;
    #   213: above every filled one below the highest free one.
    # Each rule takes (s, e), e the free positions, and may hold filled
    # positions too; allowed ANDs the rules of pats with e.  x & -x is the
    # lowest set bit of x, 1 << x.bit_length() >> 1 the highest, and
    # -1 << x.bit_length() the bits above x's.
    rules = {
        (1, 2, 3): lambda s, e: (s & -s) - 1 | 1 << e.bit_length() >> 1,
        (3, 2, 1): lambda s, e: -1 << s.bit_length() | e & -e,
        (1, 3, 2): lambda s, e: (s & -s) - 1 | (t := e & -(s & -s)) & -t,
        (2, 3, 1): lambda s, e: (-1 << s.bit_length()
                                 | 1 << (e & (1 << s.bit_length() >> 1) - 1).bit_length() >> 1),
        (3, 1, 2): lambda s, e: ((t := s & -(e & -e)) & -t) - 1,
        (2, 1, 3): lambda s, e: -1 << (s & (1 << e.bit_length()) - 1).bit_length(),
    }
    chosen = [rules[p] for p in pats]
    full = (1 << n) - 1

    def allowed(s: int) -> int:
        e = full ^ s
        free = e
        for rule in chosen:
            free &= rule(s, e)
        return free

    return allowed


def _sn_row(n: int, step: Callable[[int, int], int]) -> LaurentPoly:
    # The sum of q^key over S_n, where placing the next value at p with s
    # filled adds step(p, s) to the key.  Each state is one packed integer,
    # and slot x counts key x.  A count never exceeds n!, so no slot
    # carries, and a step is a shift-add.  As in _sn_dp, the free positions
    # are drawn by their bits.
    check_cap(n)
    slot = _slot_bits(math.factorial(n).bit_length())
    full = (1 << n) - 1
    states = [1] + [0] * full
    for s, row in enumerate(states):
        free = full ^ s
        while free:
            bit = free & -free
            free ^= bit
            states[s | bit] += row << slot * step(bit.bit_length(), s)
    return LaurentPoly._row(_unpack(row, slot))


def _sn_majors(n: int, widths: tuple[int, ...]) -> LaurentPoly:
    # maj_K over S_n, K = widths: a width-g descent at p adds ceil(p/g), so
    # tables[p][s >> p] is what the filled positions above p add
    tables = [[0]] + [_subset_sums(n - p, lambda g, p=p: (p + g - 1) // g if g in widths else 0)
                      for p in range(1, n + 1)]
    return _sn_row(n, lambda p, s: tables[p][s >> p])


def _sn_excedances(n: int, k: int) -> LaurentPoly:
    # exc_k over S_n; block[r] holds the positions p = r + 1 mod k
    block = [sum(1 << q for q in range(r, n, k)) for r in range(k)]
    return _sn_row(n, lambda p, s: (s & block[(p - 1) % k]).bit_count() >= (p + k - 1) // k)


def _sn_g(n: int, k: int) -> LaurentPoly:
    # des_k - des_(n-k) over S_n, by the step offset by 1 per position
    return _sn_row(n, lambda p, s: 1 + (s >> p + k - 1 & 1) - (s >> p + n - k - 1 & 1)).shift(-n)


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
    return ("" if len(word) <= 9 else ",").join(map(str, word))
