"""Spectral engine: invariant bases, the coinvariant E2 source against the
kernel reference, surviving dimensions, purity, decoded Betti/Hodge tables,
and the cross-check against the series module."""

from collections import Counter
from math import comb, factorial

import pytest

from conftorus.gcalg import BidegreeSpace, Element, Layout, X, Y, symmetrize
from conftorus.linalg import SignedUnionFind, SparseEchelon, rank_of_rows
from conftorus.series import w
from conftorus.specseq import (
    SpectralEngine,
    assemble_page,
    betti_and_hodge,
    e3_dims,
    invariant_basis,
    purity_check,
    verify_against_series,
)


@pytest.fixture(scope="module")
def reports():
    return {n: e3_dims(n) for n in range(5)}


# -- invariant bases -----------------------------------------------------------


def test_invariant_dims_n2():
    assert invariant_basis(2, 1, 0).dim == 2
    assert invariant_basis(2, 2, 0).dim == 1
    assert invariant_basis(2, 1, 1).dim == 2


def test_invariant_vectors_are_fixed_n2():
    inv = invariant_basis(2, 2, 0)
    space = inv.space
    # the lone invariant is x1 y2 - y1 x2 up to scale
    want = space.reduce(
        Element.from_generators(X(1), Y(2))
        - Element.from_generators(Y(1), X(2))
    )
    (vec,) = [vec for block in inv.blocks.values() for vec in block]
    assert want and set(vec) == set(want)
    (m0, *_) = want
    assert all(vec[mask] * want[m0] == want[mask] * vec[m0] for mask in want)


def test_invariants_agree_with_symmetrizer_image_n3():
    eng = SpectralEngine(3)
    for q in range(eng.layout.npairs + 1):
        for p in range(7):
            space = eng.space(p, q)
            rows = []
            for mask in space.quotient_basis:
                e = symmetrize(
                    Element.from_monomial(space.layout.decode(mask)), 3
                )
                rows.append(space.reduce(e))
            assert rank_of_rows(rows) == eng.invariants(p, q).dim, (p, q)


def test_spaces_outside_the_algebra_are_empty_n3():
    eng = SpectralEngine(3)
    for p, q in ((7, 0), (0, 4), (2, -1)):
        space = eng.space(p, q)
        assert space.dim == 0 and space.quotient_basis == []
        inv = eng.invariants(p, q)
        assert inv.dim == 0 and inv.space is space


# -- the two E2 sources ------------------------------------------------------


def bidegrees(eng):
    return [(p, q) for q in range(eng.layout.npairs + 1) for p in range(2 * eng.n + 1)]


def kernel_e2(eng):
    return {
        (p, q, ab): len(vecs)
        for p, q in bidegrees(eng)
        for ab, vecs in eng.invariants(p, q).blocks.items()
        if vecs
    }


def coinvariant_e2(eng):
    return {
        (p, q, ab): len(basis)
        for p, q in bidegrees(eng)
        for ab, basis in eng.coinvariants(p, q).items()
    }


@pytest.mark.parametrize("n", range(7))
def test_coinvariant_and_kernel_sources_give_one_page(n):
    """The report (coinvariants) and the kernel reference, both fed through
    assemble_page, agree on every E2 and E3 block and byte for byte."""
    eng = SpectralEngine(n)
    e2 = kernel_e2(eng)
    assert coinvariant_e2(eng) == e2
    rep = eng.report()
    ref = assemble_page(n, e2, eng.invariant_d_rank)
    assert rep.e3_hodge == ref.e3_hodge
    assert rep.to_json() == ref.to_json()


def test_coinvariant_d_ranks_match_and_repeat_n4():
    """Each coinvariant d-rank equals the kernel d-rank of its block, and
    taking it again gives the same value: the target rows it is seeded with
    are left as they were."""
    eng = SpectralEngine(4)
    blocks = coinvariant_e2(eng)
    ranks = {key: eng.d_rank(*key) for key in blocks}
    assert any(ranks.values())
    assert ranks == {key: eng.invariant_d_rank(*key) for key in blocks}
    assert ranks == {key: eng.d_rank(*key) for key in blocks}


def single_echelon_coinvariants(eng, p, q):
    """The coinvariant basis of (p, q) with no union-find: every row
    reduce(sigma . m) - m of a Hodge block goes to one echelon, and the
    masks that are not pivots are the basis.  sigma runs over (1 2) and the
    n-cycle, not the engine's generators: the rows span the same subspace
    for any generating set of S_n, and so leave the same basis."""
    space, lay, n = eng.space(p, q), eng.layout, eng.n
    perms = [(2, 1, *range(3, n + 1))] if n >= 2 else []
    if n > 2:
        perms.append((*range(2, n + 1), 1))
    tables = [lay.perm_table(sigma) for sigma in perms]
    blocks = {}
    for mask in space.quotient_basis:
        blocks.setdefault(lay.hodge_bidegree(mask), []).append(mask)
    out = {}
    for ab, masks in sorted(blocks.items()):
        rows = []
        for mask in masks:
            for table in tables:
                s, img = lay.apply_perm(table, mask)
                row = space.reduce_mask(img, s)
                row[mask] = row.get(mask, 0) - 1
                rows.append(row)
        ech = SparseEchelon()
        for row in sorted(rows, key=len):
            ech.add_row(row)
        basis = [mask for mask in masks if mask not in ech.rows]
        if basis:
            out[ab] = basis
    return out


@pytest.mark.parametrize("n", range(6))
def test_coinvariant_bases_match_a_single_echelon(n):
    """The union-find of sign identifications leaves the same basis masks,
    in the same order, as one echelon of every row: its classes are
    represented by their smallest mask, as the max-column pivots are."""
    eng = SpectralEngine(n)
    for q in range(-1, eng.layout.npairs + 2):
        for p in range(-1, 2 * n + 3):
            assert eng.coinvariants(p, q) == single_echelon_coinvariants(eng, p, q), (p, q)


def test_d_rank_of_whole_blocks_is_the_coinvariant_d_rank_n5(monkeypatch):
    """d is S_n-equivariant, so a whole source block and its coinvariant
    basis have one image in the target's coinvariants: fed every basis mask
    of each block, d_rank gives the coinvariant d-ranks.  The extra images
    are dependent, and at (0, 4, (4, 4)) only the target's echelon rows,
    not its sign classes, show it.  The whole blocks go in where d_rank
    reads its source: 54 of the 55 hold more masks than their basis, and
    so do all 20 sources of arrows inside the algebra, the ones read."""
    eng = SpectralEngine(5)
    lay = eng.layout
    whole = {}
    for p, q in bidegrees(eng):
        for mask in eng.space(p, q).quotient_basis:
            whole.setdefault((p, q, lay.hodge_bidegree(mask)), []).append(mask)
    want = {key: eng.d_rank(*key) for key in whole}
    larger = {key for key, masks in whole.items() if len(masks) > len(eng._basis(*key))}
    assert (len(whole), len(larger)) == (55, 54)
    read = []
    monkeypatch.setattr(eng, "_basis", lambda *key: read.append(key) or whole.get(key, ()))
    assert {key: eng.d_rank(*key) for key in want} == want
    assert len(read) == len(set(read) & larger) == 20
    assert want[(0, 1, (1, 1))] == 1 and want[(0, 4, (4, 4))] == 0


def test_coinvariants_of_one_transposition_fail_the_e2_comparison_n3():
    # the rows of the transposition (2 3) alone give the coinvariants of a
    # smaller group
    eng = SpectralEngine(3)
    eng._perm_tables = eng._perm_tables[:1]
    e2 = coinvariant_e2(eng)
    want = kernel_e2(SpectralEngine(3))
    assert e2 != want
    assert all(e2[key] >= d for key, d in want.items())


def test_coinvariants_of_a_pair_fixing_1_fail_the_e2_comparison_n4():
    """The engine's transposition (3 4) with the cycle (2 3 4) in place of
    (1 2 3) generates only the permutations fixing 1: the coinvariants of
    that smaller group are larger than the kernel E2 of S_4."""
    eng = SpectralEngine(4)
    transposition, _ = eng.generators
    assert transposition == (1, 2, 4, 3)
    eng._perm_tables = [eng.layout.perm_table(sigma) for sigma in (transposition, (1, 3, 4, 2))]
    e2 = coinvariant_e2(eng)
    want = kernel_e2(SpectralEngine(4))
    assert e2 != want
    assert all(e2[key] >= d for key, d in want.items())


@pytest.mark.parametrize("n", range(2, 9))
def test_engine_generators_generate_the_symmetric_group(n):
    """The closure of the engine's generators under composition has n!
    elements."""
    gens = SpectralEngine(n).generators
    identity = tuple(range(1, n + 1))
    seen, frontier = {identity}, [identity]
    while frontier:
        grown = []
        for perm in frontier:
            for sigma in gens:
                prod = tuple(sigma[i - 1] for i in perm)
                if prod not in seen:
                    seen.add(prod)
                    grown.append(prod)
        frontier = grown
    assert len(seen) == factorial(n)


@pytest.mark.parametrize("n", range(7))
def test_mirror_blocks_have_equal_coinvariants_and_d_ranks(n):
    """Each block (a, b) and its mirror (b, a), computed on their own, have
    the same E2 dimension and the same d-rank, as the report assumes."""
    eng = SpectralEngine(n)
    blocks = coinvariant_e2(eng)
    assert blocks == {(p, q, (b, a)): d for (p, q, (a, b)), d in blocks.items()}
    ranks = {key: eng.d_rank(*key) for key in blocks}
    assert ranks == {(p, q, (b, a)): r for (p, q, (a, b)), r in ranks.items()}


def test_report_eliminates_and_ranks_only_blocks_with_a_at_most_b(monkeypatch):
    want = e3_dims(5).to_json()
    eliminated, ranked = Counter(), Counter()
    eliminate, d_rank = SpectralEngine._eliminate, SpectralEngine.d_rank

    def counted_eliminate(self, p, q, ab):
        eliminated[(p, q, ab)] += 1
        return eliminate(self, p, q, ab)

    def counted_d_rank(self, p, q, ab):
        ranked[(p, q, ab)] += 1
        return d_rank(self, p, q, ab)

    monkeypatch.setattr(SpectralEngine, "_eliminate", counted_eliminate)
    monkeypatch.setattr(SpectralEngine, "d_rank", counted_d_rank)
    eng = SpectralEngine(5)
    assert eng.report().to_json() == want
    assert ranked and all(a <= b and k == 1 for (_, _, (a, b)), k in ranked.items())
    upper = {
        (p, q, ab) for p, q in bidegrees(eng) for ab in eng.space(p, q).blocks if ab[0] <= ab[1]
    }
    assert upper <= set(eliminated)
    assert all(a <= b for _, _, (a, b) in eliminated)
    # afterwards every block is still answered, a > b included
    lower = 0
    for p, q in bidegrees(eng):
        got = eng.coinvariants(p, q)
        assert got == single_echelon_coinvariants(eng, p, q), (p, q)
        lower += sum(a > b for a, b in got)
    assert lower > 0


def test_eliminate_sends_no_fixed_mask_with_sign_plus_one_to_the_union_find(monkeypatch):
    """A row sigma . m = m says nothing and costs two finds, so it is
    skipped; sigma . m = -m still makes m zero, as the union of m with
    itself.  Over the reports for n <= 5 each generator relabels every
    mask of the blocks they eliminate, once and bit by bit: 1,867 masks
    under the transposition (n-1 n), 1,859 under the cycle, which exists
    from n = 3.  Of the images, 111 fix their mask with sign +1 and reach
    no union, and the 226 with sign -1 reach it as (m, m, -1): 3,188
    unions and 7,116 finds, where the sign +1 rows would add 111 unions
    and 222 finds.  Every report is unchanged."""
    want = [e3_dims(n).to_json() for n in range(6)]
    engines = [SpectralEngine(n) for n in range(6)]
    names = {id(table): tno for eng in engines for tno, table in enumerate(eng._perm_tables)}
    fixed, relabels, unions, finds = Counter(), Counter(), Counter(), Counter()
    eliminate, apply_perm = SpectralEngine._eliminate, Layout.apply_perm
    union, find = SignedUnionFind.union, SignedUnionFind.find

    def counted_eliminate(self, p, q, ab):
        for tno, table in enumerate(self._perm_tables):
            for mask in self.space(p, q).block(ab):
                s, img = apply_perm(table, mask)
                if img == mask:
                    fixed[(tno, s)] += 1
        return eliminate(self, p, q, ab)

    def counted_apply_perm(table, mask):
        relabels[("transposition", "cycle")[names[id(table)]]] += 1
        return apply_perm(table, mask)

    def counted_union(self, a, b, s):
        unions[(a == b, s)] += 1
        return union(self, a, b, s)

    def counted_find(self, k):
        finds["all"] += 1
        return find(self, k)

    monkeypatch.setattr(SpectralEngine, "_eliminate", counted_eliminate)
    monkeypatch.setattr(Layout, "apply_perm", staticmethod(counted_apply_perm))
    monkeypatch.setattr(SignedUnionFind, "union", counted_union)
    monkeypatch.setattr(SignedUnionFind, "find", counted_find)
    assert [eng.report().to_json() for eng in engines] == want
    assert fixed == {(0, 1): 100, (0, -1): 218, (1, 1): 11, (1, -1): 8}
    assert relabels == {"transposition": 1867, "cycle": 1859}
    assert unions == {(False, 1): 2421, (False, -1): 541, (True, -1): 218 + 8}
    assert sum(unions.values()) == 3188
    assert finds["all"] == 7116


def inside_the_algebra(n):
    """The bidegrees (p, q) with a nonzero quotient: c(n, n - q) C(n - q, p)
    2^p forests, so 0 <= q <= n - 1 (q = 0 at n = 0) and 0 <= p <= n - q."""
    return {(p, q) for q in range(max(n, 1)) for p in range(n - q + 1)}


@pytest.mark.parametrize("n", range(7))
def test_report_builds_only_the_a_at_most_b_half_inside_the_algebra(monkeypatch, n):
    """During a report every space built is inside the algebra, and each is
    built once.  Each of its blocks with a <= b is read exactly once and no
    block with a > b is read, so the masks read in (p, q) number the a <= b
    share of its basis, sum over #y >= #x of c(n, n - q) C(n - q, p)
    C(p, #y)."""
    built, reads, masks = Counter(), Counter(), Counter()
    init, block = BidegreeSpace.__init__, BidegreeSpace.block

    def recorded_init(self, n, p, q, layout=None):
        built[(p, q)] += 1
        init(self, n, p, q, layout)

    def recorded_block(self, ab):
        out = block(self, ab)
        reads[(self.p, self.q, ab)] += 1
        masks[(self.p, self.q)] += len(out)
        return out

    monkeypatch.setattr(BidegreeSpace, "__init__", recorded_init)
    monkeypatch.setattr(BidegreeSpace, "block", recorded_block)
    SpectralEngine(n).report()
    monkeypatch.undo()
    inside = inside_the_algebra(n)
    assert built == Counter(inside)
    assert reads == Counter({
        (p, q, (a, b)): 1
        for p, q in inside for a, b in BidegreeSpace(n, p, q).block_keys if a <= b
    })
    for p, q in inside:
        upper = sum(comb(p, ny) for ny in range(p + 1) if 2 * ny >= p)
        dim = BidegreeSpace(n, p, q).dim
        assert masks[(p, q)] == dim * upper // 2**p, (p, q)


@pytest.mark.parametrize("n", range(5))
def test_d_rank_leaving_the_algebra_is_zero_and_builds_nothing(n):
    """The arrows out of q = 0 and out of p = n - q land outside the
    algebra: d_rank gives 0 for each of their blocks and builds no space,
    neither the target nor the source."""
    eng = SpectralEngine(n)
    sources = {(p, q) for p, q in inside_the_algebra(n) if q == 0 or p == n - q}
    keys = {(p, q, ab) for p, q in sources for ab in BidegreeSpace(n, p, q).block_keys}
    assert keys
    for key in sorted(keys):
        assert eng.d_rank(*key) == 0, key
    assert eng._spaces == {}


# -- E3 dimensions -----------------------------------------------------------


def test_e3_dims_n2(reports):
    rep = reports[2]
    assert rep.e3_inv == {(0, 0): 1, (1, 0): 2, (1, 1): 2}
    # d(g12) spans the (2,0) invariants, so nothing survives there
    assert rep.e2_inv[(2, 0)] == 1
    assert (2, 0) not in rep.e3_inv


def test_e3_dims_n1(reports):
    assert reports[1].e3_inv == {(0, 0): 1, (1, 0): 2}


def test_e3_dims_n0(reports):
    assert reports[0].e3_inv == {(0, 0): 1}


# -- purity --------------------------------------------------------------------


def test_purity_small_n(reports):
    for n in range(5):
        ok, violations = purity_check(reports[n])
        assert ok and violations == []


def test_purity_negative_control(reports):
    import copy

    doctored = copy.deepcopy(reports[2])
    doctored.e3_inv[(0, 1)] = 1
    ok, violations = purity_check(doctored)
    assert not ok and violations == [(0, 1)]
    # a Hodge block off the weight line: a + b = 1, but w(1 + 1) = 3
    doctored = copy.deepcopy(reports[2])
    doctored.e3_hodge[(1, 1, (0, 1))] = 1
    ok, violations = purity_check(doctored)
    assert not ok and violations == [(1, 1)]
    # p - q = 2 is off the weight line, though its Hodge blocks are not doctored
    doctored = copy.deepcopy(reports[2])
    doctored.e3_inv[(2, 0)] = 1
    ok, violations = purity_check(doctored)
    assert not ok and violations == [(2, 0)]
    # a block with a = b is checked too: a + b = 2, but w(2) = 3
    doctored = copy.deepcopy(reports[2])
    doctored.e3_hodge[(1, 1, (1, 1))] = 1
    ok, violations = purity_check(doctored)
    assert not ok and violations == [(1, 1)]


def test_weight_identity_on_survivors(reports):
    for n in range(5):
        for (p, q), d in reports[n].e3_inv.items():
            assert d > 0
            assert p + 2 * q == w(p + q)


# -- betti and hodge --------------------------------------------------------------


def test_betti_tables(reports):
    assert reports[0].betti == [1]
    assert reports[1].betti == [1, 2]
    assert reports[2].betti == [1, 2, 2]
    assert reports[3].betti == [1, 2, 4, 4]


def test_betti_positivity_and_top_degree(reports):
    for n in range(5):
        betti = reports[n].betti
        assert betti[0] == 1
        assert len(betti) <= 2 * n + 1
        assert all(h >= 0 for h in betti)


def test_hodge_tables_small(reports):
    assert reports[1].hodge == {
        (0, 0, 0): 1,
        (1, 1, 0): 1,
        (1, 0, 1): 1,
    }
    rep2 = reports[2].hodge
    assert rep2[(2, 2, 1)] == 1 and rep2[(2, 1, 2)] == 1


def test_hodge_sits_on_weight_line(reports):
    for n in range(5):
        for (i, a, b), d in reports[n].hodge.items():
            assert d > 0 and a + b == w(i)


def test_betti_and_hodge_consistency(reports):
    for n in range(5):
        betti, hodge = betti_and_hodge(reports[n])
        assert betti == reports[n].betti
        sums = {}
        for (i, _, _), d in hodge.items():
            sums[i] = sums.get(i, 0) + d
        assert [sums.get(i, 0) for i in range(len(betti))] == betti


# -- series cross-check --------------------------------------------------------------


def test_verify_against_series(reports):
    for n in range(5):
        verdict = verify_against_series(n, reports[n])
        assert verdict["match"], verdict["mismatches"]


def test_verify_against_series_refuses_a_report_of_another_n(reports):
    # compared, the report of n = 4 would read as a Betti mismatch at n = 3
    with pytest.raises(ValueError, match="report of n=4 .* series of n=3"):
        verify_against_series(3, reports[4])


@pytest.mark.parametrize("n, of", [(True, 1), (False, 0), (2.0, 2), ("3", 3)])
def test_verify_against_series_rejects_an_n_that_is_not_an_int(reports, n, of):
    # each n equals the n of its report, so only the type check can refuse
    # it, before the series names its own argument
    want = f"n must be an int, got {n!r}$"
    with pytest.raises(TypeError, match=want):
        verify_against_series(n, reports[of])
    with pytest.raises(TypeError, match=want):
        verify_against_series(n)


def test_verify_against_series_sees_an_entry_only_the_series_has(reports):
    import copy

    doctored = copy.deepcopy(reports[2])
    key = min(doctored.hodge)
    want = doctored.hodge.pop(key)
    verdict = verify_against_series(2, doctored)
    assert not verdict["match"]
    i, a, b = key
    assert verdict["mismatches"] == [
        {"what": f"hodge i={i} a={a} b={b}", "engine": 0, "series": want}
    ]
    # the Betti comparison on its own: the Hodge table is left intact
    doctored = copy.deepcopy(reports[2])
    doctored.betti[-1] += 1
    verdict = verify_against_series(2, doctored)
    assert not verdict["match"]
    assert verdict["mismatches"] == [
        {"what": "betti", "engine": doctored.betti, "series": reports[2].betti}
    ]


def test_euler_characteristic(reports):
    for n in range(5):
        chi = sum((-1) ** i * h for i, h in enumerate(reports[n].betti))
        assert chi == (-1) ** n


# -- report serialization ----------------------------------------------------------


def test_report_json_schema(reports):
    import json

    doc = json.loads(reports[2].to_json())
    assert set(doc) == {
        "n",
        "e2_inv",
        "e3_inv",
        "betti",
        "hodge",
        "purity",
        "violations",
        "series_match",
    }
    assert doc["betti"] == [1, 2, 2]
    assert doc["purity"] is True
    assert doc["violations"] == []
    assert {"i": 2, "a": 2, "b": 1, "dim": 1} in doc["hodge"]
    assert doc["e3_inv"]["1,1"] == 2
