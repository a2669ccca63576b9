"""The matching engine, which serves ``e3_dims``, against its oracle, the
coinvariant engine: the same report byte for byte, the vanishing theorem it
rests on, held on the oracle's bases, its walk over the words, and negative
controls in test-local subclasses that break its zero test and its d."""

import random
from collections import Counter

import pytest

from conftorus.gcalg import BidegreeSpace, Layout
from conftorus.specseq import (
    MatchingEngine,
    e3_dims,
    matching_words,
    purity_check,
    verify_against_series,
)


@pytest.mark.parametrize("n", range(8))
def test_the_report_equals_the_oracle_byte_for_byte(oracle_reports, n):
    want, _, _ = oracle_reports[n]
    rep = e3_dims(n)
    assert rep.to_json() == want.to_json()
    assert rep.e3_hodge == want.e3_hodge


def is_matching(lay, mask):
    """Whether the g-edges of ``mask`` share no vertex."""
    seen = 0
    for b in range(lay.npairs):
        if mask >> b & 1:
            ends = 1 << lay.pairs[b][0] | 1 << lay.pairs[b][1]
            if seen & ends:
                return False
            seen |= ends
    return True


@pytest.mark.parametrize("n", range(8))
def test_every_coinvariant_basis_mask_is_a_decorated_matching(oracle_reports, n):
    """The vanishing the matching engine rests on: the oracle keeps the
    component type of every row, so a non-matching type with a coinvariant
    would leave a non-matching mask in the bases its report eliminated, the
    a <= b blocks (tau carries each onto its mirror, and matchings onto
    matchings).  From n = 3 the quotient holds masks that are not
    matchings, so the check can fail."""
    _, _, masks = oracle_reports[n]
    lay = Layout(n)
    assert masks
    assert [lay.decode(m) for m in masks if not is_matching(lay, m)] == []
    paths = BidegreeSpace(n, 0, 2, layout=lay).quotient_basis
    assert (n >= 3) == any(not is_matching(lay, m) for m in paths)


def test_x_and_y_points_and_bare_pairs_are_the_odd_kinds():
    assert MatchingEngine.odd_kinds() == (1, 2, 3)


@pytest.mark.parametrize("n", range(9))
def test_every_orbit_walked_finds_the_live_classes_of_the_candidate_walk(n):
    """Every orbit of decorated matchings, zero-tested, leaves exactly the
    live classes of the walk in which an odd kind occurs at most once:
    n^2 + n + 1 of them, which are the engine's blocks."""
    eng = MatchingEngine(n)
    live = [w for w in matching_words(n) if not eng.is_zero(w)]
    assert live == [w for w in matching_words(n, eng.odd_kinds()) if not eng.is_zero(w)]
    assert len(live) == n * n + n + 1
    reps = sorted(m for reps in eng.blocks.values() for m in reps)
    assert reps == sorted(eng._mask(eng.components(w)) for w in live)


@pytest.mark.parametrize("n", range(2, 5))
def test_every_pair_flip_relabels_to_plus_one(n):
    """The flip of a pair never kills a class, bare pairs included: the
    zero test's flips could all be dropped at no cost to the page."""
    eng = MatchingEngine(n)
    for word in matching_words(n):
        comps = eng.components(word)
        rep = eng._mask(comps)
        for _, vs in comps:
            assert len(vs) == 1 or eng._image(rep, [vs]) == {rep: 1}, (word, vs)


@pytest.mark.parametrize("n", range(9))
def test_every_stabiliser_generator_of_every_walked_word_is_tested(n):
    """Every walked word is live, so the zero test, which stops at the first
    dead move, tests each stabiliser generator: one flip per pair kind, of
    its first component, and one swap per kind with at least two
    components.  Each goes through ``_image`` once and is relabelled once."""
    calls = []

    class Counting(MatchingEngine):
        def _image(self, mask, swaps):
            calls.append(swaps)
            return super()._image(mask, swaps)

    eng = Counting(n)
    relabel, relabels = eng.layout.relabel, []
    eng.layout.relabel = lambda sigma, mask: relabels.append(sigma) or relabel(sigma, mask)
    for word in matching_words(n, MatchingEngine.odd_kinds()):
        calls.clear()
        relabels.clear()
        assert eng._live_rep(word) is not None, word
        flips = sum(1 for k in range(3, 6) if word[k])
        swaps = sum(1 for count in word if count >= 2)
        assert len(calls) == len(relabels) == flips + swaps, word


@pytest.mark.parametrize("n", range(13))
def test_every_live_representative_is_its_own_normal_form(n):
    """What lets the zero test skip the normal form of an image on the
    representative itself."""
    lay = Layout(n)
    for (p, q, _), reps in MatchingEngine(n).blocks.items():
        space = BidegreeSpace(n, p, q, layout=lay)
        assert [rep for rep in reps if space.reduce_mask(rep) != {rep: 1}] == []


def test_every_d_term_of_a_live_representative_is_its_own_normal_form_or_zero():
    """Removing an edge of a decorated matching leaves a decorated matching
    with each letter on the smallest vertex of its component, or x_i y_i on
    one vertex, which is zero: over n <= 12, 572 of the 2,324 d-terms of the
    live representatives reduce to themselves with their coefficient, the
    other 1,752 to zero, and none to anything else."""
    kinds = Counter()
    for n in range(13):
        eng = MatchingEngine(n)
        for (p, q, _), reps in eng.blocks.items():
            target = BidegreeSpace(n, p + 2, q - 1, layout=eng.layout)
            for rep in reps:
                for m, c in eng.layout.differential_list(rep):
                    got = target.reduce_mask(m, c)
                    kinds["zero" if not got else "self" if got == {m: c} else m] += 1
    assert kinds == {"self": 572, "zero": 1752}


@pytest.mark.parametrize("n", range(9))
def test_a_relabelled_representative_comes_back_with_sign_plus_one(n):
    """sigma . rep reduces to one basis term, and onto_rep maps it back to
    rep with total sign +1: a live class has no stabiliser element that
    negates it.  Both signs occur on the way from n = 3."""
    rng = random.Random(3900 + n)
    eng = MatchingEngine(n)
    lay, signs = eng.layout, set()
    for (p, q, _), reps in eng.blocks.items():
        space = BidegreeSpace(n, p, q, layout=lay)
        for rep in reps:
            sigma = rng.sample(range(1, n + 1), n)
            [(basis, c)] = space.reduce_mask(*lay.relabel(sigma, rep)[::-1]).items()
            s, back = eng.onto_rep(basis)
            assert (back, c * s) == (rep, 1), (sigma, lay.decode(rep))
            signs.add(s)
    assert signs == ({1, -1} if n >= 3 else {1})


def test_the_reports_equal_the_series_and_are_pure_to_n12():
    for n in range(13):
        rep = e3_dims(n)
        assert verify_against_series(n, rep)["match"] and purity_check(rep) == (True, []), n


# -- negative controls ---------------------------------------------------------


class PairSwapsCountPlusOne(MatchingEngine):
    """Counts every swap of two like pairs as +1.  Of the pair kinds only
    bare pairs swap to their negative, so only they change."""

    def _image(self, mask, swaps):
        return {mask: 1} if len(swaps) == 2 else super()._image(mask, swaps)


def d_dropping(keep):
    """A matching engine whose d keeps ``keep(terms)`` of each mask's terms."""

    class Dropping(MatchingEngine):
        def __init__(self, n):
            super().__init__(n)
            d = self.layout.differential_list
            self.layout.differential_list = lambda mask: keep(d(mask))

    return Dropping


def first_failure(engine, n_max):
    """(n, series mismatches, purity violations) at the first n whose report
    differs from the series."""
    for n in range(n_max + 1):
        rep = engine(n).report()
        verdict = verify_against_series(n, rep)
        if not verdict["match"]:
            return n, verdict["mismatches"], rep.violations
    return None


def test_a_bare_pair_swap_counted_as_plus_one_breaks_n4_at_h2_22():
    """Two bare pairs survive from n = 4: an extra class at (p, q) = (0, 2),
    Hodge type (2, 2), which no d reaches."""
    assert PairSwapsCountPlusOne.odd_kinds() == (1, 2)
    assert first_failure(PairSwapsCountPlusOne, 6) == (4, [
        {"what": "betti", "engine": [1, 2, 5, 5, 3], "series": [1, 2, 4, 5, 3]},
        {"what": "hodge i=2 a=2 b=2", "engine": 1, "series": 0},
    ], [(0, 2)])


def test_a_dropped_d_term_breaks_n2_at_h1_11():
    """d(g_ij) has two terms, and both land on one class with one sign, so
    dropping either of them only halves a class's image and leaves every
    rank (checked to n = 8).  Dropping the Leibniz term of the lowest g-bit,
    the representative's only bare pair, loses d(g12) at n = 2."""
    for keep in (lambda terms: terms[::2], lambda terms: terms[1::2]):
        engine = d_dropping(keep)
        assert [engine(n).report().to_json() for n in range(9)] == [
            e3_dims(n).to_json() for n in range(9)
        ]
    assert first_failure(d_dropping(lambda terms: terms[2:]), 6) == (2, [
        {"what": "betti", "engine": [1, 3, 3], "series": [1, 2, 2]},
        {"what": "hodge i=1 a=1 b=1", "engine": 1, "series": 0},
        {"what": "hodge i=2 a=1 b=1", "engine": 1, "series": 0},
    ], [(0, 1), (2, 0)])
