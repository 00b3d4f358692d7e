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
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from widthk.perm import enumerate_sn, standardize
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
