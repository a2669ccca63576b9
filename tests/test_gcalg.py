"""Algebra engine: normal forms, bases, relation spans, quotients, the
differential and the symmetric-group action.

The normal form behind the quotient (decorated increasing forests, the
no-broken-circuit basis) is checked against a naive oracle that enumerates
every relation multiple with plain Element arithmetic and row-reduces densely
with Fractions.
"""

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from math import comb, factorial
from pathlib import Path
import os
import random
import re
import subprocess
import sys

import pytest

from conftorus import gcalg
from conftorus.gcalg import (
    BidegreeSpace,
    Element,
    G,
    Layout,
    Monomial,
    X,
    Y,
    differential,
    free_basis,
    multiply,
    normalize,
    relation_span,
    sn_act,
    symmetrize,
)
from conftorus.linalg import add_terms
from conftorus.specseq import MatchingEngine, SpectralEngine, e3_dims, invariant_basis


def brute_force_sign(gens):
    """Inversion count done the slow way, as an oracle for normalize()."""
    seq = list(gens)
    if len(set(seq)) != len(seq):
        return None
    inversions = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return (-1) ** inversions, tuple(sorted(seq))


# -- normalize ----------------------------------------------------------------


def test_normalize_square_vanishes():
    assert normalize((X(1), X(1))) is None
    assert normalize((G(1, 2), G(2, 1))) is None  # same generator


def test_normalize_single_transposition():
    m = normalize((X(2), X(1)))
    assert m.gens == (X(1), X(2)) and m.sign == -1


def test_normalize_against_insertion_oracle():
    rng = random.Random(7)
    pool = [G(1, 2), G(1, 3), G(2, 3), X(1), X(2), X(3), Y(1), Y(2), Y(3)]
    for _ in range(300):
        seq = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        got = normalize(seq)
        want = brute_force_sign(seq)
        if want is None:
            assert got is None
        else:
            assert (got.sign, got.gens) == want


def test_monomial_bidegrees():
    m = normalize((G(1, 2), X(1), Y(3)))
    assert m.bidegree == (2, 1)
    assert m.hodge_bidegree == (2, 2)
    assert str(m) == "g12.x1.y3"


# -- free bases ----------------------------------------------------------------


def test_free_basis_n2():
    assert {str(m) for m in free_basis(2, 1, 0)} == {"x1", "x2", "y1", "y2"}
    assert [str(m) for m in free_basis(2, 0, 1)] == ["g12"]
    assert len(free_basis(3, 0, 2)) == 3


def test_free_basis_counts():
    for n in (2, 3):
        lay = Layout(n)
        for q in range(lay.npairs + 1):
            for p in range(2 * n + 1):
                assert len(free_basis(n, p, q)) == comb(lay.npairs, q) * comb(
                    2 * n, p
                )


# -- naive quotient oracle -------------------------------------------------------


def naive_relation_rows(n, p, q):
    """Every relation generator times every complementary free monomial,
    using only Element arithmetic."""
    rows = []
    rels = []
    for i, j, k in combinations(range(1, n + 1), 3):
        rels.append(
            (
                Element.from_generators(G(i, j), G(i, k))
                - Element.from_generators(G(i, j), G(j, k))
                + Element.from_generators(G(i, k), G(j, k)),
                (0, 2),
            )
        )
    for i, j in combinations(range(1, n + 1), 2):
        for L in (X, Y):
            rels.append(
                (
                    Element.from_generators(G(i, j), L(i))
                    - Element.from_generators(G(i, j), L(j)),
                    (1, 1),
                )
            )
    for i in range(1, n + 1):
        rels.append((Element.from_generators(X(i), Y(i)), (2, 0)))
    for rel, (pr, qr) in rels:
        if pr > p or qr > q:
            continue
        for mu in free_basis(n, p - pr, q - qr):
            row = multiply(mu, rel)
            if row:
                rows.append(row)
    return rows


def dense_vector(coeffs, basis_index):
    vec = [Fraction(0)] * len(basis_index)
    for gens, c in coeffs.items():
        vec[basis_index[gens]] = c
    return vec


def dense_reduce(vec, pivot_rows):
    for prow, pcol in pivot_rows:
        if vec[pcol]:
            f = vec[pcol] / prow[pcol]
            vec = [a - f * b for a, b in zip(vec, prow)]
    return vec


def dense_echelon(vectors):
    """Pivot rows (vector, leading column) spanning the given vectors."""
    pivot_rows = []
    for vec in vectors:
        vec = dense_reduce(vec, pivot_rows)
        lead = next((c for c, v in enumerate(vec) if v), None)
        if lead is not None:
            pivot_rows.append((vec, lead))
    return pivot_rows


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_quotient_dims_against_dense_oracle(n):
    # the dense elimination of every relation multiple is the reference:
    # m - reduce(m) lies in its span for every free monomial m, and the
    # basis monomials stay independent modulo it
    lay = Layout(n)
    for q in range(lay.npairs + 1):
        for p in range(2 * n + 1):
            fb = free_basis(n, p, q)
            if not fb:
                continue
            index = {m.gens: k for k, m in enumerate(fb)}
            pivots = dense_echelon(
                dense_vector(r.coeffs, index) for r in naive_relation_rows(n, p, q)
            )
            rank = len(pivots)
            space = BidegreeSpace(n, p, q, layout=lay)
            assert space.relation_rank == rank, (n, p, q)
            assert space.dim == len(fb) - rank, (n, p, q)
            for m in fb:
                coeffs = {
                    lay.decode(r).gens: -c
                    for r, c in space.reduce_mask(lay.encode(m)).items()
                }
                coeffs[m.gens] = coeffs.get(m.gens, 0) + 1
                residue = dense_reduce(dense_vector(coeffs, index), pivots)
                assert not any(residue), (n, p, q, str(m))
            basis = [
                dense_vector({lay.decode(r).gens: 1}, index)
                for r in space.quotient_basis
            ]
            extended = dense_echelon([v for v, _ in pivots] + basis)
            assert len(extended) == rank + space.dim, (n, p, q)


def set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1 :]
        yield part + [[head]]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_total_dimension_against_partition_count(n):
    # a basis element picks a set partition, a tree shape per block
    # ((k-1)! independent ones on a size-k block) and one decoration from
    # {1, x, y} per block
    expected = 0
    for part in set_partitions(list(range(n))):
        prod = 1
        for block in part:
            prod *= factorial(len(block) - 1) * 3
        expected += prod
    lay = Layout(n)
    total = sum(
        BidegreeSpace(n, p, q, layout=lay).dim
        for q in range(lay.npairs + 1)
        for p in range(2 * n + 1)
    )
    assert total == expected


def cycle_count(perm):
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            v = start
            while v not in seen:
                seen.add(v)
                v = perm[v]
    return cycles


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_dimension_formula_per_bidegree(n):
    # dim(p, q) = c(n, n-q) C(n-q, p) 2^p: c(n, k) increasing forests with
    # k components (the unsigned Stirling numbers of the first kind, counted
    # here as permutations with k cycles), then p decorated components
    stirling = Counter(cycle_count(perm) for perm in permutations(range(n)))
    lay = Layout(n)
    for q in range(lay.npairs + 1):
        for p in range(2 * n + 1):
            k = n - q
            want = stirling[k] * comb(k, p) * 2**p if p <= k else 0
            assert BidegreeSpace(n, p, q, layout=lay).dim == want, (n, p, q)


@pytest.mark.parametrize("n", range(7))
def test_blocks_match_blocks_built_from_the_forests(monkeypatch, n):
    """A space reads no forest when it is constructed.  Each read of a
    block through ``block`` reads the increasing forests once and returns a
    new list, equal to the block built here from the decorated increasing
    forests directly; mutating it leaves the next read unchanged.  A key
    outside ``block_keys`` reads as empty and reads no forest."""
    forests, calls = Layout.increasing_forests, []

    def counted_forests(lay, q):
        calls.append(q)
        return forests(lay, q)

    monkeypatch.setattr(Layout, "increasing_forests", counted_forests)
    lay = Layout(n)
    for q in range(-1, lay.npairs + 2):
        for p in range(-1, 2 * n + 3):
            want = {}
            for g, roots in forests(lay, q) if q >= 0 and p >= 0 else ():
                for deco in combinations(roots, p):
                    for ys in product((0, 1), repeat=p):
                        mask = g
                        for v, y in zip(deco, ys):
                            mask |= 1 << ((lay.ybit0 if y else lay.xbit0) + v)
                        want.setdefault(lay.hodge_bidegree(mask), []).append(mask)
            calls.clear()
            space = BidegreeSpace(n, p, q, layout=lay)
            assert calls == [], (p, q)
            assert sorted(want) == list(space.block_keys), (p, q)
            for ab, masks in want.items():
                calls.clear()
                block = space.block(ab)
                assert calls == [q], (p, q, ab)
                assert block == sorted(masks), (p, q, ab)
                block.append(-1)
                assert space.block(ab) == sorted(masks), (p, q, ab)
            calls.clear()
            for ab in ((p + 2 * q + 1, -1), (-1, p + 2 * q + 1)):
                assert len(space.block(ab)) == 0, (p, q, ab)
            assert calls == [], (p, q)


def test_block_count_check_names_the_block(monkeypatch):
    """A block built with one increasing forest missing fails its count
    check, which names n, the bidegree and the Hodge block."""
    forests = Layout.increasing_forests
    monkeypatch.setattr(Layout, "increasing_forests", lambda lay, q: forests(lay, q)[1:])
    space = BidegreeSpace(4, 1, 1)
    with pytest.raises(AssertionError, match=r"n=4 \(1,1\) \(1, 2\)"):
        space.block((1, 2))


@pytest.mark.parametrize("n", range(6))
def test_hodge_blocks_group_the_quotient_basis_by_hodge_bidegree(n):
    lay = Layout(n)
    for q in range(-1, lay.npairs + 2):
        for p in range(-1, 2 * n + 3):
            space = BidegreeSpace(n, p, q, layout=lay)
            assert space.quotient_basis == sorted(space.quotient_basis), (p, q)
            want = {}
            for mask in space.quotient_basis:
                want.setdefault(lay.hodge_bidegree(mask), []).append(mask)
            assert list(space.blocks) == sorted(want), (p, q)
            assert space.blocks == want, (p, q)  # each block ascending, as the basis
            assert sum(map(len, space.blocks.values())) == space.dim, (p, q)


# -- relation spans ----------------------------------------------------------------


def test_relation_span_n2_letters():
    rows = relation_span(2, 2, 0)
    assert len(rows) == 2
    monomials = {str(m) for r in rows for m, _ in r.terms()}
    assert monomials == {"x1.y1", "x2.y2"}
    assert BidegreeSpace(2, 2, 0).dim == 4


def test_relation_span_n2_21_kills_everything():
    # all six free monomials of bidegree (2,1) die, so the relation rank
    # fills the whole 6-dimensional free piece
    space = BidegreeSpace(2, 2, 1)
    assert space.free_dim == 6
    assert space.dim == 0
    assert space.relation_rank == 6
    for m in free_basis(2, 2, 1):
        assert space.reduce(Element.from_monomial(m)) == {}


def test_relation_span_n2_02_empty():
    assert free_basis(2, 0, 2) == []
    assert BidegreeSpace(2, 0, 2).relation_rank == 0


def test_relation_span_count_check_names_the_bidegree(monkeypatch):
    """A free piece enumerated with one mask outside the quotient basis
    missing gives one relation row too few, and the count check names n,
    the bidegree and both counts."""
    basis = set(BidegreeSpace(2, 2, 0).quotient_basis)
    masks = Layout.enumerate_masks

    def one_relation_short(lay, p, q):
        out = list(masks(lay, p, q))
        out.remove(next(m for m in out if m not in basis))
        return out

    monkeypatch.setattr(Layout, "enumerate_masks", one_relation_short)
    with pytest.raises(AssertionError) as err:
        relation_span(2, 2, 0)
    assert str(err.value) == "1 relation rows at n=2 (2,0), expected 2"


def test_relation_span_leading_monomials_distinct():
    for (n, p, q) in ((3, 0, 2), (3, 1, 1), (3, 2, 0), (3, 2, 1)):
        rows = relation_span(n, p, q)
        space = BidegreeSpace(n, p, q)
        assert len(rows) == space.relation_rank
        leads = [max(r.coeffs) for r in rows]
        assert len(set(leads)) == len(leads)


# -- reduce -------------------------------------------------------------------------


def test_reduce_letter_transport():
    space = BidegreeSpace(2, 1, 1)
    e = Element.from_generators(G(1, 2), X(1)) - Element.from_generators(
        G(1, 2), X(2)
    )
    assert space.reduce(e) == {}


def test_reduce_xy_vanishes():
    space = BidegreeSpace(2, 2, 0)
    assert space.reduce(Element.from_generators(X(1), Y(1))) == {}


def test_reduce_circuit_rewrites():
    space = BidegreeSpace(3, 0, 2)
    coords = space.reduce(Element.from_generators(G(1, 3), G(2, 3)))
    named = {str(space.layout.decode(mask)): c for mask, c in coords.items()}
    assert named == {"g12.g13": -1, "g12.g23": 1}


def test_reduce_is_idempotent_on_representatives():
    space = BidegreeSpace(3, 1, 1)
    for mask in space.quotient_basis:
        coords = space.reduce(Element.from_monomial(space.layout.decode(mask)))
        assert coords == {mask: 1}
    # rebuild an element from its coordinates and reduce again
    coords = space.reduce(Element.from_generators(G(2, 3), X(3)))
    e = Element.zero()
    for mask, c in coords.items():
        e = e + Element.from_monomial(space.layout.decode(mask), c)
    assert space.reduce(e) == coords


def test_reduce_sums_reduce_mask_over_terms():
    space = BidegreeSpace(3, 1, 2)
    lay = space.layout
    basis = set(space.quotient_basis)
    e = (
        Element.from_generators(G(1, 3), G(2, 3), X(3)).scale(2)
        - Element.from_generators(G(1, 2), G(2, 3), Y(2)).scale(6)
        + Element.from_generators(G(1, 3), G(2, 3), Y(1))
    )
    want = {}
    for m, c in e.terms():
        add_terms(want, space.reduce_mask(lay.encode(m), c).items())
    got = space.reduce(e)
    assert got == want
    assert got and set(got) <= basis and all(got.values())


def test_reduce_rejects_wrong_bidegree():
    """An element, a bidegree or a generator outside the algebra is a
    ValueError."""
    space = BidegreeSpace(2, 1, 1)
    for gens, bidegree in (((X(1),), "(1, 0)"), ((G(1, 2), X(1), Y(2)), "(2, 1)"), ((), "(0, 0)")):
        want = f"^element of bidegree {re.escape(bidegree)} in space \\(1,1\\)$"
        with pytest.raises(ValueError, match=want):
            space.reduce(Element.from_generators(*gens))
    for n in (0, 2):
        with pytest.raises(ValueError, match="^p must be nonnegative, got -1$"):
            free_basis(n, -1, 0)
    with pytest.raises(ValueError, match="g_ii is not a generator"):
        G(1, 1)


@pytest.mark.parametrize("n", range(7))
def test_generator_table_is_the_normal_form_order_and_bit_gen_inverts_it(n):
    """``Layout.gen_masks`` is built on first use, gives each generator the
    bit of its place in normal-form order (pairs in lex order, then x, then
    y), ``1 << gen_bit(gen)``, and ``bit_gen`` inverts it; a generator
    outside the layout is a ``KeyError``."""
    lay = Layout(n)
    assert "gen_masks" not in vars(lay)
    gens = [G(i, j) for i, j in combinations(range(1, n + 1), 2)]
    gens += [X(i) for i in range(1, n + 1)] + [Y(i) for i in range(1, n + 1)]
    assert lay.gen_masks == {gen: 1 << b for b, gen in enumerate(gens)}
    assert "gen_masks" in vars(lay)
    for gen in gens:
        assert lay.gen_masks[gen] == 1 << lay.gen_bit(gen), gen
        assert lay.bit_gen(lay.gen_bit(gen)) == gen
        assert lay.encode(Monomial((gen,))) == lay.gen_masks[gen]
    # a generator of a larger n has no bit in this layout
    for gen in (X(n + 1), Y(n + 1), G(n + 1, n + 2)):
        with pytest.raises(KeyError):
            lay.gen_bit(gen)


# -- differential --------------------------------------------------------------------


def test_differential_of_g():
    d = differential(Element.from_generators(G(1, 2)))
    want = Element.from_monomial(normalize((Y(1), X(2)))) - Element.from_monomial(
        normalize((X(1), Y(2)))
    )
    assert d == want


def test_differential_of_pair_class_vanishes_in_quotient():
    space = BidegreeSpace(2, 3, 0)
    d = differential(Element.from_generators(G(1, 2), X(1)))
    assert d  # nonzero upstairs
    assert space.reduce(d) == {}


def leibniz_oracle(m: Monomial) -> Element:
    """Independent recursive Leibniz evaluation."""
    if not m.gens:
        return Element.zero()
    head, rest = m.gens[0], Monomial(m.gens[1:], m.sign)
    if head.kind == "g":
        d_head = Element.from_monomial(
            normalize((Y(head.i), X(head.j)))
        ) - Element.from_monomial(normalize((X(head.i), Y(head.j))))
    else:
        d_head = Element.zero()
    first = Element.zero()
    for gens, c in multiply(Monomial((head,)), leibniz_oracle(rest)).coeffs.items():
        first = first + Element({gens: -c})  # head is odd
    out = first
    for gens, c in d_head.coeffs.items():
        prod = multiply(Monomial(gens, 1), Element.from_monomial(rest))
        out = out + prod.scale(c)
    return out


def test_differential_leibniz_oracle_random():
    rng = random.Random(11)
    pool = [G(i, j) for i in range(1, 4) for j in range(i + 1, 5)]
    pool += [X(i) for i in range(1, 5)] + [Y(i) for i in range(1, 5)]
    for _ in range(200):
        m = normalize(tuple(rng.sample(pool, rng.randint(1, 5))))
        if m is None:
            continue
        assert differential(Element.from_monomial(m)) == leibniz_oracle(m)


def test_differential_squares_to_zero_exhaustive_n3():
    lay = Layout(3)
    for q in range(lay.npairs + 1):
        for p in range(2 * 3 + 1):
            for m in free_basis(3, p, q):
                assert not differential(differential(Element.from_monomial(m)))


def test_differential_bidegree_shift():
    e = differential(Element.from_generators(G(1, 3), G(1, 2), X(2)))
    assert e.bidegree() == (3, 1)


def test_element_display_and_bidegree_guard():
    e = Element.from_generators(X(1), Y(2)).scale(6) - Element.from_generators(
        X(2), Y(1)
    )
    assert str(e) == repr(e) == "6*x1.y2 - x2.y1"
    assert str(Element()) == "0"
    assert e.bidegree() == (2, 0)
    for bad in (Element(), e + Element.from_generators(G(1, 2))):
        with pytest.raises(ValueError, match="zero or not homogeneous"):
            bad.bidegree()


def test_differential_list_matches_element_path():
    # the engine's bitmask d, term by term against the tuple-based one
    for n in range(5):
        lay = Layout(n)
        for mask in range(1 << lay.nbits):
            want = differential(Element.from_monomial(lay.decode(mask)))
            got = lay.differential_list(mask)
            assert len({m for m, _ in got}) == len(got), mask
            assert {lay.decode(m).gens: c for m, c in got} == want.coeffs, mask


@pytest.mark.parametrize("shuffled", [False, True])
def test_differential_list_returns_a_fresh_list_in_g_bit_order(shuffled):
    # the d∘d sweep compares whole blocks of answers as lists, so the order
    # is part of the answer: the removed g-bit never decreases along the
    # list, and g_ij gives x_j.y_i before x_i.y_j.  Each call returns a new
    # list, so a caller's edits never reach the next answer, and the masks
    # may be asked in any order
    rng = random.Random(34)
    for n in range(5):
        lay = Layout(n)
        masks = list(range(1 << lay.nbits))
        if shuffled:
            rng.shuffle(masks)
        for mask in masks:
            got = lay.differential_list(mask)
            want = list(got)
            got.append((mask, 0))
            assert lay.differential_list(mask) == want, mask
            removed = []
            for m, _ in want:
                low = mask & ~m
                i, j = lay.pairs[low.bit_length() - 1]
                xj_yi = 1 << lay.xbit0 + j - 1 | 1 << lay.ybit0 + i - 1
                removed.append((low, m & ~mask != xj_yi))
            assert removed == sorted(removed), mask


def test_layout_construction_builds_no_table_exponential_in_n():
    # every table the constructor builds grows polynomially in n: the pair
    # bits, the d-terms per pair and the bits per vertex
    for name, value in vars(Layout(40)).items():
        assert not hasattr(value, "__len__") or len(value) <= 10**4, name


# -- group action ----------------------------------------------------------------------


def test_sn_act_examples():
    assert sn_act((2, 1), Element.from_generators(G(1, 2))) == (
        Element.from_generators(G(1, 2))
    )
    got = sn_act((2, 1), Element.from_generators(X(1), Y(2)))
    assert got == Element.from_monomial(normalize((X(2), Y(1))))
    got = sn_act((2, 3, 1), Element.from_generators(G(1, 2), X(3)))
    assert got == Element.from_generators(G(2, 3), X(1))


def test_sn_act_is_algebra_map_and_equivariant():
    rng = random.Random(23)
    n = 4
    pool = [G(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    pool += [X(i) for i in range(1, n + 1)] + [Y(i) for i in range(1, n + 1)]
    for _ in range(100):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        m = normalize(tuple(rng.sample(pool, rng.randint(1, 4))))
        if m is None:
            continue
        e = Element.from_monomial(m)
        assert sn_act(sigma, differential(e)) == differential(sn_act(sigma, e))


def test_symmetrize_examples():
    assert not symmetrize(Element.from_generators(X(1), X(2)), 2)
    e = Element.from_generators(G(1, 2))
    assert symmetrize(e, 2) == e.scale(2)
    assert not symmetrize(Element.from_generators(G(1, 2), G(3, 4)), 4)


@pytest.mark.parametrize("n", range(6))
def test_symmetrize_is_the_sum_over_every_permutation(n):
    # symmetrize sums by cosets of S_(k-1) in S_k; the reference is the
    # literal sum of sigma . e over all n! permutations
    rng = random.Random(35 + n)
    pool = [G(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pool += [X(i) for i in range(1, n + 1)] + [Y(i) for i in range(1, n + 1)]
    elements = [Element.from_generators().scale(3)]  # the empty monomial
    for _ in range(4):
        e = Element.from_generators().scale(rng.choice((-2, 5)))
        for _ in range(rng.randint(1, 4)):
            m = normalize(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
            e = e + Element.from_monomial(m, rng.choice((-3, -2, 2, 5, 7)))
        elements.append(e)
    if n == 2:
        elements.append(Element.from_generators(X(1), X(2)).scale(4))
    for e in elements:
        want = Element()
        for sigma in permutations(range(1, n + 1)):
            want = want + sn_act(sigma, e)
        assert symmetrize(e, n) == want, (n, e)
    if n == 2:
        assert not want, "the last element, 4 x1.x2, sums to zero at n = 2"


def test_symmetrize_idempotent():
    # n! times the averaging projector: symmetrizing twice multiplies by n!
    for n, gens in (
        (2, (X(1), Y(2))),
        (3, (G(1, 2), X(1))),
        (4, (G(1, 2), G(3, 4), Y(3))),
    ):
        s = symmetrize(Element.from_generators(*gens), n)
        assert s and all(type(c) is int for c in s.coeffs.values())
        assert symmetrize(s, n) == s.scale(factorial(n)), n


_X3 = Element.from_generators(X(3))


@pytest.mark.parametrize(
    "act, args, error, message",
    [
        (sn_act, ((1, 1, 3), _X3), ValueError,
         "sigma must be a permutation of 1..3, got (1, 1, 3)"),
        (sn_act, ((1, 2, 4), _X3), ValueError,
         "sigma must be a permutation of 1..3, got (1, 2, 4)"),
        (sn_act, ((2, 1), _X3), ValueError,
         "generator x3 has an index outside 1..2, the domain of sigma (2, 1)"),
        (sn_act, ((1,), Element({(gcalg.Generator("x", 0),): 1})), ValueError,
         "generator x0 has an index outside 1..1, the domain of sigma (1,)"),
        (sn_act, ([2, 1, 3], _X3), TypeError, "sigma must be a tuple of ints, got [2, 1, 3]"),
        (sn_act, ((1, 2.0, 3), _X3), TypeError,
         "sigma must be a tuple of ints, got (1, 2.0, 3)"),
        (symmetrize, (_X3, 2), ValueError,
         "generator x3 has an index outside 1..2, the domain of sigma (1, 2)"),
        (symmetrize, (_X3, True), TypeError, "n must be an int, got True"),
        (symmetrize, (_X3, -1), ValueError, "n must be nonnegative, got -1"),
        (symmetrize, (_X3, 2.0), TypeError, "n must be an int, got 2.0"),
    ],
    ids=["repeated-image", "image-past-k", "index-past-sigma", "index-zero", "list-sigma",
         "float-entry", "index-past-n", "bool-n", "negative-n", "float-n"],
)
def test_sn_act_and_symmetrize_refuse_a_sigma_or_n_that_does_not_fit(act, args, error, message):
    """A sigma that is not a permutation of 1..k, a generator with an index
    outside 1..k and an n that is not a count are refused by name, not
    relabelled into a wrong answer or failed with an unrelated message."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        act(*args)


def brute_force_sort_bits(bits):
    """Pairwise inversion count, the slow way, as an oracle for sort_bits."""
    inv = sum(1 for s, t in combinations(range(len(bits)), 2) if bits[s] > bits[t])
    mask = sum(1 << b for b in bits)
    return (-1 if inv % 2 else 1), mask


def test_sort_bits_against_pairwise_inversion_count():
    positions = [0, 3, 4, 9, 17, 40]
    for k in range(len(positions) + 1):
        for bits in permutations(positions[:k]):
            assert Layout.sort_bits(list(bits)) == brute_force_sort_bits(bits), bits
    for seed in range(50):
        bits = random.Random(seed).sample(range(80), 20)
        assert Layout.sort_bits(bits) == brute_force_sort_bits(bits), seed
    assert Layout.sort_bits([]) == brute_force_sort_bits([]) == (1, 0)


def test_sort_bits_sign_and_mask():
    assert Layout.sort_bits([]) == (1, 0)
    assert Layout.sort_bits([2, 0]) == (-1, 0b101)
    assert Layout.sort_bits([3, 1, 2]) == (1, 0b1110)
    lay = Layout(3)
    table = lay.perm_table((2, 3, 1))
    for gens in ((G(1, 2), X(3)), (G(1, 3), G(2, 3), Y(1)), (X(1), X(2), Y(3))):
        want = normalize(tuple(
            lay.bit_gen(table[lay.gen_bit(g)]) for g in gens
        ))
        sign, mask = lay.apply_perm(table, lay.encode(normalize(gens)))
        assert (sign, mask) == (want.sign, lay.encode(want))


@pytest.mark.parametrize("n", range(2, 7))
def test_block_relabel_matches_apply_perm_on_the_quotient_basis(n):
    # the matching engine's sparse relabel against the oracle's bit tables,
    # for both generators of the oracle on every basis mask, past the n <= 4
    # of the free-mask check below
    eng = SpectralEngine(n)
    lay = eng.layout
    for sigma, table in zip(eng.generators, eng._perm_tables):
        assert table == lay.perm_table(sigma)
        for q in range(lay.npairs, -1, -1):
            for p in range(2 * n + 1):
                for mask in BidegreeSpace(n, p, q, layout=lay).quotient_basis:
                    assert lay.relabel(sigma, mask) == lay.apply_perm(table, mask), (p, q, mask)


@pytest.mark.parametrize("n", range(5))
def test_block_relabel_matches_apply_perm_on_every_free_mask(n):
    """The sparse Layout.relabel gives apply_perm(perm_table(sigma), m)
    for every free mask m and every sigma in S_n."""
    lay = Layout(n)
    for sigma in permutations(range(1, n + 1)):
        table = lay.perm_table(sigma)
        bad = next(
            (m for m in range(1 << lay.nbits)
             if lay.apply_perm(table, m) != lay.relabel(sigma, m)),
            None,
        )
        assert bad is None, (sigma, lay.decode(bad))


@pytest.mark.parametrize("n", [6, 9, 12])
def test_vertex_local_relabel_matches_apply_perm_past_n4(n):
    """Layout.relabel, which visits only the bits on the vertices sigma
    moves, against apply_perm(perm_table(sigma), m): seeded sigma that swap
    one pair of vertices, two disjoint pairs, or are uniform, on the
    matching engine's live representatives and on seeded masks, dense and
    sparse."""
    rng = random.Random(3800 + n)
    lay = Layout(n)
    masks = [m for reps in MatchingEngine(n).blocks.values() for m in reps]
    masks += [rng.getrandbits(lay.nbits) for _ in range(12)]
    masks += [sum(1 << b for b in rng.sample(range(lay.nbits), 2 * n)) for _ in range(12)]
    sigmas = []
    for _ in range(5):
        u, v, w, x = rng.sample(range(n), 4)
        one = list(range(1, n + 1))
        one[u], one[v] = v + 1, u + 1
        two = one[:]
        two[w], two[x] = x + 1, w + 1
        sigmas += [one, two, rng.sample(range(1, n + 1), n)]
    for sigma in sigmas:
        table = lay.perm_table(sigma)
        bad = next((m for m in masks if lay.relabel(sigma, m) != lay.apply_perm(table, m)), None)
        assert bad is None, (sigma, lay.decode(bad))


@pytest.mark.parametrize("n", [True, False, 2.0, "3"])
def test_an_n_that_is_not_an_int_is_a_type_error(n):
    """A bool is not taken for 0 or 1, and a float or a string does not
    reach a comparison that fails with an unrelated message."""
    want = f"n must be an int, got {n!r}$"
    with pytest.raises(TypeError, match=want):
        Layout(n)
    with pytest.raises(TypeError, match=want):
        e3_dims(n)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize("which", ["p", "q"])
def test_a_bidegree_that_is_not_an_int_is_a_type_error(which, bad):
    """``BidegreeSpace(2, True, 0)`` does not build the (1, 0) space, and a
    float or a string is refused by name, not by an unrelated message; so
    are ``relation_span`` and ``invariant_basis``, which build the space."""
    p, q = (bad, 0) if which == "p" else (0, bad)
    want = f"^{which} must be an int, got {re.escape(repr(bad))}$"
    for build in (BidegreeSpace, relation_span, invariant_basis):
        with pytest.raises(TypeError, match=want):
            build(2, p, q)


@pytest.mark.parametrize("n", range(4))
def test_block_relabel_matches_sn_act(n):
    lay = Layout(n)
    # the bit tables of the oracle and the sparse relabel of the matching
    # engine, each against the Element path
    for sigma in permutations(range(1, n + 1)):
        table = lay.perm_table(sigma)
        for mask in range(1 << lay.nbits):
            want = sn_act(sigma, Element.from_monomial(lay.decode(mask)))
            for s, img in (lay.apply_perm(table, mask), lay.relabel(sigma, mask)):
                assert Element.from_monomial(lay.decode(img, s)) == want, (sigma, mask)


# -- the Hodge mirror tau ------------------------------------------------------------


def tau(lay, mask):
    """tau swaps x_i with y_i and sends g_ij to -g_ij: (sign, tau(mask)).
    The sign is (-1)^#g times the Koszul sign of re-sorting the swapped
    letters."""
    n, swapped = lay.n, []
    for b in range(lay.nbits):
        if mask >> b & 1:
            swapped.append(b if b < lay.xbit0 else b + n if b < lay.ybit0 else b - n)
    s, img = Layout.sort_bits(swapped)
    return (-s if (mask & lay.gfull).bit_count() % 2 else s), img


def tau_terms(lay, terms):
    """tau of a combination [(mask, coeff)], as {mask: coeff}."""
    out = {}
    for m, c in terms:
        s, img = tau(lay, m)
        out[img] = s * c
    return out


def tau_counterexample(lay, d, relabels):
    """The first free mask at which tau fails to commute with ``d`` (a
    function mask -> [(mask', coeff)]) or with one of ``relabels``, or None."""
    for mask in range(1 << lay.nbits):
        s, img = tau(lay, mask)
        if tau_terms(lay, d(mask)) != {m: s * c for m, c in d(img)}:
            return mask
        for rel in relabels:
            (s1, m1), (s2, m2) = rel(mask), rel(img)
            if tau_terms(lay, [(m1, s1)]) != {m2: s * s2}:
                return mask
    return None


def skewed_differential(lay):
    """d with the sign of its x_j y_i terms flipped, d(g_ij) = x_j y_i -
    x_i y_j: it no longer commutes with tau."""

    def d(mask):
        out = []
        for m2, c in lay.differential_list(mask):
            new = m2 & ~mask  # the two letters that replaced g_ij
            xs, ys = (new >> lay.xbit0) & ((1 << lay.n) - 1), new >> lay.ybit0
            out.append((m2, -c if xs > ys else c))
        return out

    return d


@pytest.mark.parametrize("n", range(5))
def test_tau_commutes_with_d_and_the_engine_relabellings(n):
    """tau carries Hodge block (p, q, a, b) onto (p, q, b, a) as a complex of
    S_n-modules, which is why the report ranks only the blocks with a <= b."""
    lay = Layout(n)
    relabels = [partial(lay.apply_perm, table) for table in SpectralEngine(n)._perm_tables]
    assert tau_counterexample(lay, lay.differential_list, relabels) is None


def test_tau_check_fails_on_a_differential_without_xy_symmetry():
    lay = Layout(3)
    bad = tau_counterexample(lay, skewed_differential(lay), [])
    assert bad == lay.encode(normalize((G(1, 2),)))


# -- exact coefficients ------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: Element({(X(1),): 0.1}),
        lambda: Element.from_monomial(normalize((X(1),)), 0.5),
        lambda: Element.from_generators(X(1)).scale(0.1),
        lambda: Element({(X(1),): Fraction(1, 2)}),
        lambda: Element({(X(1),): Fraction(2)}),
        lambda: Element({(X(1),): True}),
        lambda: Element.from_monomial(normalize((X(1),)), Fraction(2)),
        lambda: Element.from_generators(X(1)).scale(Fraction(1, 2)),
        lambda: Element.from_generators(X(1)).scale(True),
    ],
    ids=[
        "init",
        "from_monomial",
        "scale",
        "init-fraction",
        "init-integral-fraction",
        "init-bool",
        "from_monomial-integral-fraction",
        "scale-fraction",
        "scale-bool",
    ],
)
def test_float_coefficients_are_rejected(build):
    """Coefficients live in Z: a float, a ``Fraction`` (even an integral
    one) or a ``bool`` is refused, not converted."""
    with pytest.raises(TypeError, match="is not an int"):
        build()


def test_import_loads_no_rational_number_modules():
    # every coefficient is an int, so the package needs neither module
    src = str(Path(gcalg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, conftorus; "
        "print(sorted({'fractions', 'numbers', 'decimal'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    out = run.stdout
    assert out == "[]\n"


def test_integer_coefficients_stay_int():
    e = Element({(X(1),): 2, (G(1, 2), Y(2)): -3})
    assert all(type(c) is int for c in e.coeffs.values())
    assert all(type(c) is int for c in Element.from_generators(Y(1), X(1)).coeffs.values())
    with pytest.raises(TypeError, match="is not an int"):
        Element({(X(1),): 0.5})


# -- degenerate sizes --------------------------------------------------------------------


def test_n0_and_n1_spaces():
    s0 = BidegreeSpace(0, 0, 0)
    assert s0.free_dim == 1 and s0.dim == 1
    s1 = BidegreeSpace(1, 1, 0)
    assert s1.dim == 2
    assert BidegreeSpace(1, 2, 0).dim == 0  # x1 y1 = 0
    assert BidegreeSpace(0, 0, 1).dim == 0  # no pairs to carry a g
