"""Word-level certificates of des_k ~ exc_k and inv_k ~ maj_k at any n.

A width-k statistic splits over the k residue blocks a_r a_(r+k) ...: des_k,
inv_k and maj_k are the sums over the blocks of the classical des, inv and
maj, and exc_k is the sum of the classical exc of the standardized blocks.
A classical bijection applied to each block, the block keeping its set of
letters, is therefore a bijection of S_n that carries one width-k statistic
to another word by word:

- exc_k(w) = des_k(phi_k(w)), where phi applies Foata's first fundamental
  transformation F to the inverse of each standardized block.  F writes
  the cycles each from its largest element, orders the cycles by their
  largest elements, and erases the parentheses (Foata and Schutzenberger,
  Theorie geometrique des polynomes euleriens, LNM 138, 1970).
- maj_k(w) = inv_k(Phi_k(w)), where Phi is Foata's second fundamental
  transformation on each block (Foata, "On the Netto inversion number of a
  sequence", Proc. AMS 19, 1968).
- des_k(w) - des_(n-k)(w) = cdes_k(w) - k, where cdes_k counts the
  positions p mod n with a_p > a_(p+k): a pair that wraps around is the
  reverse of a width-(n-k) pair.

The maps live here as oracles: no route of the package runs them.  They
check the batch counters at every n, where the per-word definitions of
tests/test_stats.py reach only a few hundred letters at a few widths.

Two class formulas rest on a structure theorem (Simion and Schmidt,
"Restricted permutations", European J. Combin. 6, 1985): a member of
Av(123, 132), or of Av(132, 213), is the skew sum of one block per part c of
a composition of n, each block above the ones after it.  The block is
(c-1)(c-2)...1c for {123, 132} and 12...c for {132, 213}, so des_k of a
member is a function of its composition.  The constructions below check
that map onto the class, and des_k word by word at any n.

Two more classes are built from their 2^(n-1) choice sequences, one choice
per letter after the first.  Av(132, 231) is the words that decrease, then
increase: each letter v > 1 goes left or right of 1.  Av(132, 312) is the
words whose every letter is a new maximum or a new minimum of its prefix.
inv_k is des over the multiples of k, word by word, as the docstring of
closed_inv_132_312 says: both count the pairs (i, i + d) with a_i > a_(i+d)
and d a multiple of k, so over these classes the identity checks the
scanner's inv gaps against its des width sets at any n.  A new minimum at
position p is a width-d descent for each d < p and a new maximum for none,
so over Av(132, 312) inv_k is the sum of floor((p - 1)/k) over the new
minima: the exponent of closed_inv_132_312's product, one factor per
position.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from widthk.perm import avoidance_class, enumerate_sn, standardize
from widthk.stats import des, exc, inv, maj


def foata_first(perm):
    """F: the cycles of a permutation of 1..r, each written from its largest
    element, in increasing order of those elements, without parentheses."""
    seen, cycles = set(), []
    for start in range(1, len(perm) + 1):
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = perm[i - 1]
        if cycle:
            top = cycle.index(max(cycle))
            cycles.append(cycle[top:] + cycle[:top])
    return tuple(x for cycle in sorted(cycles, key=max) for x in cycle)


def foata_second(word):
    """Phi: each next letter a cuts the image so far after every letter on
    the same side of a as its last letter, each piece moves its last letter
    to its front, and a goes at the end."""
    out = list(word[:1])
    for a in word[1:]:
        side = out[-1] > a
        pieces, piece = [], []
        for x in out:
            piece.append(x)
            if (x > a) == side:
                pieces.append(piece)
                piece = []
        out = [y for piece in pieces for y in (piece[-1], *piece[:-1])] + [a]
    return tuple(out)


def _inverse(perm):
    out = [0] * len(perm)
    for i, x in enumerate(perm, 1):
        out[x - 1] = i
    return tuple(out)


def _phi_block(block):
    letters = sorted(block)
    return [letters[x - 1] for x in foata_first(_inverse(standardize(block)))]


def _blockwise(f, word, k):
    # f applied to each residue block a_r a_(r+k) ..., in place
    out = list(word)
    for r in range(min(k, len(word))):
        out[r::k] = f(word[r::k])
    return tuple(out)


def phi(word, k):
    return _blockwise(_phi_block, word, k)


def big_phi(word, k):
    return _blockwise(foata_second, word, k)


def cdes(word, k):
    n = len(word)
    return sum(word[p] > word[(p + k) % n] for p in range(n))


def test_foata_maps_on_small_words():
    # (2 3)(1) is written (1)(3 2); the 3-cycle 1 -> 3 -> 2 is written (3 2 1)
    assert foata_first((1, 3, 2)) == (1, 3, 2)
    assert foata_first((3, 1, 2)) == (3, 2, 1)
    assert foata_second((1, 3, 2)) == (3, 1, 2)
    assert maj((1, 3, 2)) == inv((3, 1, 2)) == 2


def test_both_transports_are_bijections_of_sn_exhaustively(word_counter):
    # every word of S_n, n <= 6, at every width k <= n, one batch per count
    for n in range(7):
        words = list(enumerate_sn(n))
        for k in range(1, max(n, 1) + 1):
            phis = [phi(w, k) for w in words]
            big_phis = [big_phi(w, k) for w in words]
            assert sorted(phis) == words and sorted(big_phis) == words, (n, k)
            assert word_counter("exc", n, k)(words) == word_counter("des", n, k)(phis), (n, k)
            assert word_counter("maj", n, k)(words) == word_counter("inv", n, k)(big_phis), (n, k)


@st.composite
def words_and_widths(draw, top=300):
    n = draw(st.integers(2, top))
    word = draw(st.permutations(range(1, n + 1)))
    return tuple(word), draw(st.integers(1, n - 1))


@given(words_and_widths())
@settings(max_examples=50, deadline=None)
def test_transports_at_any_length(case):
    word, k = case
    assert exc(word, k) == des(phi(word, k), k)
    assert maj(word, k) == inv(big_phi(word, k), k)


@given(words_and_widths())
@settings(max_examples=50, deadline=None)
def test_cyclic_descents_at_any_length(case):
    word, k = case
    n = len(word)
    assert des(word, k) - des(word, n - k) == cdes(word, k) - k


def test_cyclic_descents_exhaustively():
    for n in range(2, 7):
        for word in itertools.permutations(range(1, n + 1)):
            for k in range(1, n):
                assert des(word, k) - des(word, n - k) == cdes(word, k) - k, (word, k)


def skew_sum(parts, block):
    """The skew sum of block(c) over the parts c, in order: each block takes
    the largest values that the blocks after it leave."""
    word, top = [], sum(parts)
    for c in parts:
        top -= c
        word += [top + v for v in block(c)]
    return tuple(word)


def compositions(n):
    """Every composition of n, by its set of cut points in 1..n-1."""
    if n == 0:
        return [()]
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, size = [], 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 0
            size += 1
        out.append((*parts, size))
    return out


# the block, the des_k of a member of length n > k by its composition
CLASS_FORMULAS = {
    ((1, 2, 3), (1, 3, 2)): (
        lambda c: [*range(c - 1, 0, -1), c],
        lambda parts, n, k: n - k - sum(c > k for c in parts),
    ),
    ((1, 3, 2), (2, 1, 3)): (
        lambda c: range(1, c + 1),
        lambda parts, n, k: sum(min(c, k) for c in parts) - k,
    ),
}


def test_skew_sums_of_blocks_are_each_class_exhaustively():
    for pats, (block, des_k) in CLASS_FORMULAS.items():
        for n in range(9):
            members = {parts: skew_sum(parts, block) for parts in compositions(n)}
            assert sorted(members.values()) == list(avoidance_class(n, pats)), (pats, n)
            for parts, word in members.items():
                for k in range(1, n):
                    assert des(word, k) == des_k(parts, n, k), (pats, word, k)


@st.composite
def compositions_and_widths(draw, top=300):
    n = draw(st.integers(2, top))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    parts = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
    return parts, draw(st.integers(1, n - 1))


@given(compositions_and_widths())
@settings(max_examples=50, deadline=None)
def test_class_formulas_at_any_length(case):
    parts, k = case
    n = sum(parts)
    for block, des_k in CLASS_FORMULAS.values():
        assert des(skew_sum(parts, block), k) == des_k(parts, n, k)


def valley(choices):
    """The member of Av(132, 231) with the letter v on the left of 1 exactly
    when choices[v - 2]: decreasing down to 1, then increasing."""
    n = len(choices) + 1
    left = [v for v in range(n, 1, -1) if choices[v - 2]]
    right = [v for v in range(2, n + 1) if not choices[v - 2]]
    return (*left, 1, *right)


def records(choices):
    """The member of Av(132, 312) whose letter i + 2 is a new maximum of its
    prefix exactly when choices[i], else a new minimum."""
    low = high = choices.count(False) + 1  # the first letter
    word = [low]
    for up in choices:
        if up:
            high += 1
            word.append(high)
        else:
            low -= 1
            word.append(low)
    return tuple(word)


CHOICE_CLASSES = {((1, 3, 2), (2, 3, 1)): valley, ((1, 3, 2), (3, 1, 2)): records}


def test_choice_sequences_give_each_class_exhaustively():
    for pats, build in CHOICE_CLASSES.items():
        for n in range(9):
            if n == 0:
                members = [()]
            else:
                members = sorted(map(build, itertools.product((False, True), repeat=n - 1)))
            assert members == list(avoidance_class(n, pats)), (pats, n)
            for word in members:
                for k in range(1, n):
                    assert inv(word, k) == des(word, range(k, n, k)), (pats, word, k)


@st.composite
def choices_and_widths(draw, top=300):
    n = draw(st.integers(2, top))
    choices = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return tuple(choices), draw(st.integers(1, n - 1))


@given(choices_and_widths())
@settings(max_examples=50, deadline=None)
def test_inv_is_des_over_the_multiples_of_k_at_any_length(case):
    choices, k = case
    n = len(choices) + 1
    for build in CHOICE_CLASSES.values():
        word = build(choices)
        assert inv(word, k) == des(word, range(k, n, k)), (word, k)
    minima = [p for p, up in enumerate(choices, 2) if not up]
    assert inv(records(choices), k) == sum((p - 1) // k for p in minima)
