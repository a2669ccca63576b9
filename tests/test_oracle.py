"""Oracle structures: the genus-zero algebra, V(n), phi/psi and the suite."""

import random
import re
import weakref
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from conftorus import oracle
from conftorus.gcalg import (
    BidegreeSpace,
    Element,
    G,
    Layout,
    Monomial,
    X,
    Y,
    multiply,
    normalize,
)
from conftorus.linalg import SparseEchelon, add_terms
from conftorus.oracle import (
    ArnoldAlgebra,
    _Suite,
    arnold_conf_betti,
    check_left_inverse,
    make_v_monomial,
    phi,
    psi,
    psi_element,
    run_selftest,
    v_basis,
)
from conftorus.specseq import matching_words


# -- genus-zero algebra ---------------------------------------------------------


def test_arnold_betti_small():
    assert arnold_conf_betti(1) == [1]
    assert arnold_conf_betti(2) == [1, 1]
    assert arnold_conf_betti(5) == [1, 1, 0, 0, 0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_arnold_table(n):
    dims = arnold_conf_betti(n)
    assert dims == [1, 1] + [0] * (len(dims) - 2)


def test_arnold_quotient_dims_are_falling_factorial_coefficients():
    # dimensions of ordered-configuration cohomology of the line:
    # coefficients of (1+t)(1+2t)...(1+(n-1)t)
    for n in range(1, 7):
        poly = [1]
        for k in range(1, n):
            poly = [
                a + k * b
                for a, b in zip(poly + [0], [0] + poly)
            ]
        alg = ArnoldAlgebra(n)
        got = [alg.quotient_dim(q) for q in range(len(poly))]
        assert got == poly, n


def _holds_triangle(alg, mask):
    return any(mask & tri == tri for tri, _ in alg._relations)


def test_arnold_echelon_holds_no_zero_monomial():
    """No normal form, no row of ``extra`` and no pivot of either holds a
    zero monomial, and no normal form holds a pivot, so each degree splits
    into basis, zero monomials, leads and ``extra`` pivots; and no basis
    monomial relabels into a zero monomial, so the coinvariant rows hold
    none either."""
    for n in range(1, 7):
        alg = ArnoldAlgebra(n)
        for q in range(alg.npairs + 1):
            deg = alg.degree(q)
            pivots = deg.nf.keys() | deg.extra.rows.keys()
            assert len(pivots) == len(deg.nf) + len(deg.extra.rows), (n, q)
            assert deg.zero.isdisjoint(pivots), (n, q)
            for form in deg.nf.values():
                assert deg.zero.isdisjoint(form[::2]), (n, q)
                assert pivots.isdisjoint(form[::2]), (n, q)
                assert 0 not in form[1::2], (n, q)
            for row in deg.extra.rows.values():
                assert deg.zero.isdisjoint(row), (n, q)
                assert deg.nf.keys().isdisjoint(row), (n, q)
            for table in alg._perm_tables:
                for mask in deg.basis:
                    assert alg._relabel(table, mask)[1] not in deg.zero, (n, q, mask)
            free = sum(
                1
                for sel in combinations(range(alg.npairs), q)
                if not _holds_triangle(alg, sum(1 << b for b in sel))
            )
            assert deg.dim + len(deg.zero) + len(pivots) == free, (n, q)


@pytest.mark.parametrize("n", range(1, 7))
def test_arnold_walk_visits_each_triangle_free_mask_once(n):
    """The walk meets every triangle-free mask of q edges once and nothing
    else, and its closing mask is every edge outside the mask that would
    complete a triangle; it yields the masks in lexicographic order of
    their edge lists, the order the relation-row sign check reads rows in."""
    alg = ArnoldAlgebra(n)
    by_size = {}
    for mask in range(1 << alg.npairs):
        if not _holds_triangle(alg, mask):
            by_size.setdefault(mask.bit_count(), set()).add(mask)
    for q in range(alg.npairs + 1):
        seen = list(alg._walk(q))
        masks = [mask for mask, _ in seen]
        assert len(set(masks)) == len(masks), (n, q)
        assert set(masks) == by_size.get(q, set()), (n, q)
        assert masks == sorted(masks, key=_bit_list), (n, q)
        for mask, closing in seen:
            brute = 0
            for e in range(alg.npairs):
                if not mask >> e & 1 and _holds_triangle(alg, mask | 1 << e):
                    brute |= 1 << e
            assert closing == brute, (n, q, mask)


def test_arnold_dies_at_degree_n():
    alg = ArnoldAlgebra(4)
    assert alg.quotient_dim(3) > 0
    assert alg.quotient_dim(4) == 0


def test_normal_forms_of_hand_made_rows():
    """Kept rows become exact normal forms, smallest lead first, with
    coefficients beyond +-1; a dependent deferred row leaves nothing, and
    an independent one leaves a remainder in ``extra`` whose pivot lies
    below the leads it read; each row is built once."""
    rows = {
        "a": {1: 2, 4: 1},  # NF(4) = -2 * 1
        "b": {1: 1, 2: 3, 6: -1},  # NF(6) = 1 + 3 * 2
        "c": {4: 1, 6: 1, 7: 1},  # NF(7) = -(NF(4) + NF(6)) = 1 - 3 * 2
        "d": {3: 1, 5: -1},  # NF(5) = 3
        "e": {1: -4, 4: -2},  # twice a, negated: reduces to nothing
        "f": {1: -1, 2: 3, 7: 1},  # 7 - NF(7): reduces to nothing
        "g": {2: 1, 6: 1},  # 2 + NF(6) = 1 + 4 * 2: a new pivot, 2
    }
    # the first row with each lead is kept, the others deferred, as
    # ``degree`` splits its relation rows
    kept = {4: "a", 6: "b", 7: "c", 5: "d"}
    deferred = ["e", "f", "g"]
    built = []

    def row_of(h):
        built.append(h)
        return sorted(rows[h].items())

    extra = SparseEchelon()
    nf = oracle._eliminate(kept, deferred, row_of, extra)
    assert {p: dict(zip(f[::2], f[1::2])) for p, f in nf.items()} == {
        4: {1: -2},
        5: {3: 1},
        6: {1: 1, 2: 3},
        7: {1: 1, 2: -3},
    }
    assert extra.rows == {2: {1: 1, 2: 4}}
    assert built == ["a", "d", "b", "c", "e", "f", "g"]
    # the same pivots as one plain echelon of every row
    plain = SparseEchelon()
    for row in rows.values():
        plain.add_row(row)
    assert plain.rows.keys() == nf.keys() | extra.rows.keys()


def _plain_degrees(n):
    """Every degree of the genus-zero algebra by plain elimination, from
    scratch: each relation row mu * r_T, for every mu of q - 2 edges that
    holds no triangle and every triangle T missing mu, its terms that hold
    no triangle signed by the inversions of their bit lists, goes to one
    ``SparseEchelon`` as it is; a row left with one term names a zero
    monomial.  Returns, per degree, the zero set, the pivot set and the
    sorted basis."""
    pairs = list(combinations(range(1, n + 1), 2))
    bit = {p: b for b, p in enumerate(pairs)}
    triangles = [
        (bit[i, j], bit[i, k], bit[j, k]) for i, j, k in combinations(range(1, n + 1), 3)
    ]
    tri_masks = [sum(1 << b for b in tri) for tri in triangles]
    free = {m for m in range(1 << len(pairs)) if all(m & t != t for t in tri_masks)}
    out = {}
    for q in range(len(pairs) + 1):
        ech, zero = SparseEchelon(), set()
        for sel in combinations(range(len(pairs)), q - 2) if q >= 2 else ():
            mu = sum(1 << b for b in sel)
            if mu not in free:
                continue
            for (a, b, c), tri in zip(triangles, tri_masks):
                if mu & tri:
                    continue
                row = {}
                for x, y, coeff in ((a, b, 1), (a, c, -1), (b, c, 1)):
                    prod = mu | 1 << x | 1 << y
                    if prod in free:
                        row[prod] = coeff * _inversion_sign([*sel, x, y])
                if len(row) == 1:
                    zero |= row.keys()
                if row:
                    ech.add_row(row)
        basis = sorted(m for m in free if m.bit_count() == q and m not in ech.rows)
        out[q] = (zero, set(ech.rows), basis)
    return out


@pytest.mark.parametrize("n", range(7))
def test_arnold_degrees_match_a_plain_elimination(n):
    """Every degree's zero set, pivot set and basis equal those of one
    plain echelon of every relation row, built without the oracle's walk,
    codes or normal forms: the pivots of a max-column echelon do not depend
    on the order of its rows, and its pivots past the zero monomials are
    the oracle's leads and the pivots of its ``extra``, empty for n <= 7."""
    alg = ArnoldAlgebra(n)
    for q, (zero, pivots, basis) in _plain_degrees(n).items():
        deg = alg.degree(q)
        assert deg.zero == zero, (n, q)
        assert deg.nf.keys() | deg.extra.rows.keys() == pivots - zero, (n, q)
        assert not deg.extra.rows, (n, q)
        assert list(deg.basis) == basis, (n, q)


def test_arnold_codes_outgrow_64_bits_past_n_11():
    """At n = 12 a row code mu * 220 + k reaches 2^66 at q = 3, so the
    codes are held in a list, and the quotient dimension is still the
    coefficient of t^3 in (1 + t)(1 + 2t)...(1 + 11t)."""
    alg = ArnoldAlgebra(12)
    assert len(alg._relations) << alg.npairs > 1 << 64
    want = sum(a * b * c for a, b, c in combinations(range(1, 12), 3))
    assert alg.quotient_dim(3) == want == 32670


def _record_echelons(monkeypatch):
    """Patch the oracle's ``SparseEchelon`` with a subclass that keeps a
    weakref to each echelon it makes; returns those weakrefs and, per
    echelon, how many earlier ones were alive when it was made."""
    made, alive = [], []

    class Recording(oracle.SparseEchelon):
        def __init__(self, *args):
            alive.append(sum(ref() is not None for ref in made))
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(oracle, "SparseEchelon", Recording)
    return made, alive


def test_arnold_holds_one_degree_at_a_time(monkeypatch, collector_off):
    """Each degree's echelon is gone, by reference counting alone, before
    the next degree is built, and each degree 0..6 is built once."""
    _, alive = _record_echelons(monkeypatch)
    assert arnold_conf_betti(6) == [1, 1, 0, 0, 0, 0]
    assert alive == [0] * 7


@pytest.mark.parametrize("n", range(2, 7))
def test_arnold_builds_each_degree_once_quotients_first(monkeypatch, collector_off, n):
    """Every quotient_dim first, then invariant_dim of each live degree:
    a degree stays until its invariants are read, so none is built twice."""
    made, _ = _record_echelons(monkeypatch)
    alg = ArnoldAlgebra(n)
    quotient = [alg.quotient_dim(q) for q in range(n + 1)]
    invariant = [alg.invariant_dim(q) for q in range(n + 1) if quotient[q]]
    assert invariant == [1, 1] + [0] * (n - 2)
    assert len(made) == n + 1


@pytest.mark.parametrize("n", [-1, -3])
def test_arnold_rejects_negative_n(n):
    with pytest.raises(ValueError, match=f"n must be nonnegative, got {n}$"):
        arnold_conf_betti(n)


@pytest.mark.parametrize("n", [True, False, 2.0, "3"])
def test_arnold_rejects_an_n_that_is_not_an_int(n):
    want = f"n must be an int, got {n!r}$"
    with pytest.raises(TypeError, match=want):
        ArnoldAlgebra(n)
    with pytest.raises(TypeError, match=want):
        arnold_conf_betti(n)


@pytest.mark.parametrize("n", [-1, -3])
def test_selftest_rejects_negative_n_max(n):
    with pytest.raises(ValueError, match=f"n_max must be nonnegative, got {n}$"):
        run_selftest(n)


@pytest.mark.parametrize("n", [True, False, 2.0, "3"])
def test_selftest_rejects_an_n_max_that_is_not_an_int(n):
    """True is not read as 1, with every check from n = 2 on skipped, and a
    float or a string does not fail later with an unrelated message."""
    with pytest.raises(TypeError, match=f"n_max must be an int, got {n!r}$"):
        run_selftest(n)


def _bit_list(mask):
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def _inversion_sign(seq):
    """(-1) to the number of pairs of ``seq`` out of increasing order."""
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def _first_relation_sign_error(alg, monkeypatch):
    """The first row ``degree(q)`` builds, kept or deferred, in walk order,
    that differs from the row built by hand, or None.  By hand: for every
    triangle-free mu of q - 2 edges and every triangle T that meets neither
    mu nor its closing mask, the terms t of r_T whose product is not a zero
    monomial, each with its coefficient times the inversion sign of
    bits(mu) + bits(t); rows that keep no term are not built, and every
    other row is built exactly once."""
    built = {}
    row_of = alg._row

    def recording(zero, code):
        row = row_of(zero, code)
        built.setdefault(code, []).append(row)
        return row

    monkeypatch.setattr(alg, "_row", recording)
    nrel = len(alg._relations)
    for q in range(2, alg.npairs + 1):
        built.clear()
        zero = alg.degree(q).zero
        expected = 0
        for mu, closing in alg._walk(q - 2):
            for k, (tri, terms) in enumerate(alg._relations):
                if tri & (mu | closing):
                    continue
                want = {}
                for t, c, *_ in terms:
                    if mu | t not in zero:
                        want[mu | t] = c * _inversion_sign(_bit_list(mu) + _bit_list(t))
                if not want:
                    continue
                expected += 1
                rows = built.get(mu * nrel + k, [])
                if len(rows) != 1:
                    return f"n={alg.n} q={q} mu={_bit_list(mu)}: row built {len(rows)} times"
                got = dict(rows[0])
                for prod, sign in want.items():
                    if got.get(prod) != sign:
                        return (
                            f"n={alg.n} q={q} mu={_bit_list(mu)} "
                            f"t={_bit_list(prod ^ mu)}: wrote {got.get(prod)}, want {sign}"
                        )
                if got.keys() != want.keys():
                    return f"n={alg.n} q={q} mu={_bit_list(mu)}: row {got} not {want}"
        if expected != len(built):
            return f"n={alg.n} q={q}: {len(built)} rows built, {expected} expected"
    return None


def _first_relabel_sign_error(alg):
    """The first triangle-free mask whose ``_relabel`` under (1 2) or the
    n-cycle differs from the permutation applied edge by edge and signed by
    the inversions of the image list, or None."""
    sigmas = []
    if alg.n >= 2:
        sigmas.append((2, 1, *range(3, alg.n + 1)))
    if alg.n > 2:
        sigmas.append((*range(2, alg.n + 1), 1))
    assert len(alg._perm_tables) == len(sigmas)
    masks = [mask for q in range(alg.npairs + 1) for mask, _ in alg._walk(q)]
    for sigma, table in zip(sigmas, alg._perm_tables):
        for mask in masks:
            images = [
                alg.pairs.index(tuple(sorted((sigma[i - 1], sigma[j - 1]))))
                for i, j in (alg.pairs[b] for b in _bit_list(mask))
            ]
            want = (_inversion_sign(images), sum(1 << b for b in images))
            got = alg._relabel(table, mask)
            if got != want:
                return f"n={alg.n} sigma={sigma} mask={_bit_list(mask)}: {got} not {want}"
    return None


@pytest.mark.parametrize("n", range(7))
def test_arnold_relation_signs_are_inversion_parities(monkeypatch, n):
    """Every sign the elimination writes, exhaustively for n <= 6, against
    the inversion count of the concatenated bit lists; quotient dimensions
    alone can survive a sign error.  n = 6 is the first n with rows that
    lose every term (900 of them, at q = 6 and 7), which are not built."""
    assert _first_relation_sign_error(ArnoldAlgebra(n), monkeypatch) is None


@pytest.mark.parametrize("n", range(6))
def test_arnold_relabel_signs_are_permutation_signs(n):
    assert _first_relabel_sign_error(ArnoldAlgebra(n)) is None


def test_arnold_relation_sign_check_names_a_shifted_position(monkeypatch):
    """Negative control: with hi one position too high, the sign check
    stops at its first wrong sign.  (hi - 1 would be the top bit of t,
    never in mu, and give the same counts.)"""
    alg = ArnoldAlgebra(4)
    alg._relations = [
        (tri, tuple((t, c, lo, hi + 1) for t, c, lo, hi in terms))
        for tri, terms in alg._relations
    ]
    # r_T for T = 123 (edge bits 0, 1, 3) times mu = g14 (bit 2): the term
    # g12 g13 passes bit 2 once, which hi + 1 = 3 no longer counts
    assert _first_relation_sign_error(alg, monkeypatch) == (
        "n=4 q=3 mu=[2] t=[0, 1]: wrote -1, want 1"
    )


# -- V(n) -------------------------------------------------------------------------


def test_v_basis_counts():
    # n=2: 9 pair-free assignments + 2 labelled pairs; in general
    # a(n) = 3 a(n-1) + 2 (n-1) a(n-2)
    for n, count in enumerate([1, 3, 11, 45, 201, 963]):
        basis = v_basis(n)
        assert len(basis) == count
        assert len(set(basis)) == count
        assert all(vm == make_v_monomial(*vm) for vm in basis)


@pytest.mark.parametrize("n", [True, 2.0, "3", -1], ids=["true", "float", "str", "negative"])
@pytest.mark.parametrize("enumerator", [v_basis, check_left_inverse, matching_words])
def test_enumerators_refuse_an_n_that_is_not_a_count(enumerator, n):
    """``v_basis(True)`` gave n = 1's 3 monomials, ``check_left_inverse(-1)``
    passed on an empty basis and ``matching_words(-1)`` returned []; a float
    or a str failed with Python's own message."""
    if n == -1:
        with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
            enumerator(n)
    else:
        with pytest.raises(TypeError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
            enumerator(n)


def test_v_monomial_rejects_repeated_index():
    with pytest.raises(ValueError):
        make_v_monomial(xs=(1,), ypairs=((1, 2),))


# -- phi ---------------------------------------------------------------------------


def test_phi_examples():
    vm = make_v_monomial(xpairs=((1, 2),))
    assert phi(vm) == Element.from_generators(G(1, 2), X(1))
    assert phi(make_v_monomial()) == Element({(): 1})
    vm = make_v_monomial(xs=(1,), ys=(2,), xpairs=((3, 4),))
    want = Element.from_monomial(
        normalize((X(1), Y(2), G(3, 4), X(3)))
    )
    assert phi(vm) == want


# -- psi ---------------------------------------------------------------------------


def test_psi_adjacent_gs_die():
    m = normalize((G(1, 2), G(2, 3)))
    assert psi(m) is None
    m = normalize((G(1, 2), G(2, 3), X(4), Y(5)))
    assert psi(m) is None


def test_psi_pair_class():
    vm, sign = psi(normalize((G(1, 2), X(1))))
    assert vm == make_v_monomial(xpairs=((1, 2),)) and sign == 1
    # either endpoint letter produces the same image
    vm2, sign2 = psi(normalize((G(1, 2), X(2))))
    assert (vm2, sign2) == (vm, sign)


def test_psi_bare_g_dies():
    assert psi(normalize((G(1, 2), X(3)))) is None
    assert psi(normalize((G(1, 2),))) is None


def test_psi_well_defined_on_transport():
    rng = random.Random(5)
    n = 5
    pool = [G(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    pool += [X(i) for i in range(1, n + 1)] + [Y(i) for i in range(1, n + 1)]
    for _ in range(200):
        mu = normalize(tuple(rng.sample(pool, rng.randint(0, 4))))
        if mu is None:
            continue
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        left = multiply(Monomial((G(i, j), X(i)), 1), Element.from_monomial(mu))
        right = multiply(Monomial((G(i, j), X(j)), 1), Element.from_monomial(mu))
        assert psi_element(left) == psi_element(right)


def test_psi_annihilates_relation_multiples():
    rng = random.Random(13)
    n = 5
    pool = [G(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    pool += [X(i) for i in range(1, n + 1)] + [Y(i) for i in range(1, n + 1)]
    for _ in range(150):
        mu = normalize(tuple(rng.sample(pool, rng.randint(0, 4))))
        if mu in (None,):
            continue
        mu_el = Element.from_monomial(mu)
        i, j, k = rng.sample(range(1, n + 1), 3)
        assert not psi_element(
            multiply(Monomial((G(i, j),)), multiply(Monomial((G(j, k),)), mu_el))
        )
        assert not psi_element(
            multiply(Monomial((X(i),)), multiply(Monomial((Y(i),)), mu_el))
        )


def test_left_inverse():
    for n in (0, 2, 4):
        assert check_left_inverse(n) is None


# -- suite -------------------------------------------------------------------------


def test_run_selftest_n3_all_pass():
    results = run_selftest(3, include_arnold=False)
    names = {r["name"] for r in results}
    assert "cycle_vanishing" in names and "boundary_property" in names
    failed = [r for r in results if not r["passed"]]
    assert not failed, failed


# -- Layout's d on every free mask: d(G|L) = d(G).L --------------------------------


def _mask_off_d_of_g_times_letters(lay):
    """The first free mask G|L, G its g-part and L its letter set, whose
    ``differential_list`` is not d(G).L list for list, each term of d(G)
    multiplied by L with ``merge``; None when there is none.  The same check
    runs in CI at n = 5."""
    for g in range(lay.gfull + 1):
        terms = lay.differential_list(g)
        for letters in range(1 << 2 * lay.n):
            ls = letters << lay.xbit0
            want = []
            for t, c in terms:
                s, m = lay.merge(t, ls)
                if s:
                    want.append((m, c * s))
            if lay.differential_list(g | ls) != want:
                return g | ls
    return None


def test_differential_list_is_d_of_the_g_part_times_the_letters_on_every_free_mask():
    # the d∘d sweep asks d only of g-parts with y-letters; this covers every
    # free mask at n <= 4, those with x-letters included
    for n in range(5):
        assert _mask_off_d_of_g_times_letters(Layout(n)) is None, n


def test_d_of_g_times_letters_catches_x_letters_left_out_of_the_sign(monkeypatch):
    # a d that leaves the x-letters of the mask out of each term's Koszul
    # sign, on masks with two or more x-letters; the sweep asks d of no such
    # mask, so only the direct check sees it
    d_list = Layout.differential_list

    def fault(self, mask):
        xs = mask & ((1 << self.n) - 1) << self.xbit0
        terms = d_list(self, mask)
        if xs.bit_count() < 2:
            return terms
        out = []
        for m, c in terms:
            added = m & ~mask  # the term's two letters
            low, high = added & -added, 1 << added.bit_length() - 1
            between = (high - 1) & ~(2 * low - 1)
            out.append((m, -c if (xs & between).bit_count() & 1 else c))
        return out

    monkeypatch.setattr(Layout, "differential_list", fault)
    hits = ((lay, _mask_off_d_of_g_times_letters(lay)) for lay in map(Layout, range(5)))
    lay, mask = next((lay, mask) for lay, mask in hits if mask is not None)
    assert str(lay.decode(mask)) == "g12.x1.x3"


# -- negative controls for d_squared_zero: faults injected into the bitmask d ---


def _fault_d(monkeypatch, fault):
    """Apply ``fault(lay, mask, terms)`` to every ``Layout.differential_list``
    answer, the only d the sweep reads."""
    d_list = Layout.differential_list
    monkeypatch.setattr(
        Layout, "differential_list", lambda self, mask: fault(self, mask, d_list(self, mask))
    )


def _dd_zero_with(monkeypatch, fault):
    _fault_d(monkeypatch, fault)
    return _Suite(4).check_dd_zero()


def test_dd_zero_catches_sign_flip_on_x1(monkeypatch):
    # part (a) sees it first: d(d(g12.g13)) asks d of terms that carry x1
    def flip(lay, mask, terms):
        if mask >> lay.xbit0 & 1:
            return [(m, -c) for m, c in terms]
        return terms

    assert _dd_zero_with(monkeypatch, flip) == "g12.g13"


def test_dd_zero_catches_dropped_four_letter_terms(monkeypatch):
    def drop(lay, mask, terms):
        return [(m, c) for m, c in terms if (m & ~lay.gfull).bit_count() < 4]

    assert _dd_zero_with(monkeypatch, drop) == "g12.y1.y3"


def test_dd_zero_answers_each_key_once(monkeypatch):
    # part (b) asks d once of every key, a g-part G with y-letters Y, and part
    # (a) asks d(G) once more and d of each of its 2|G| terms, which carry
    # one x-letter: 2^C(n,2).(1 + C(n,2)) + 2^(C(n,2) + n) calls
    asked = Counter()
    d_list = Layout.differential_list

    def counted_list(self, mask):
        asked[self.n, mask] += 1
        return d_list(self, mask)

    monkeypatch.setattr(Layout, "differential_list", counted_list)
    assert _Suite(4).check_dd_zero() is None
    calls = Counter()
    for (n, _), k in asked.items():
        calls[n] += k
    assert calls == {2: 12, 3: 96, 4: 1472}
    # the masks without x-letters are the keys: each asked once, and each
    # pure g-part (Y empty) once more by part (a)
    lays = {n: Layout(n) for n in range(2, 5)}
    keys = {
        (n, g | b << lay.ybit0): 1 if b else 2
        for n, lay in lays.items() for g in range(lay.gfull + 1) for b in range(1 << n)
    }
    xs = {n: ((1 << n) - 1) << lay.xbit0 for n, lay in lays.items()}
    assert {(n, m): k for (n, m), k in asked.items() if not m & xs[n]} == keys


def test_dd_zero_catches_a_dropped_leibniz_sign_on_a_pure_g_part(monkeypatch):
    # the same fault on every mask: d(G|Y) = d(G).Y still holds, so only
    # part (a), d(d(G)) = 0 on the pure g-parts, can see it
    def unsigned(lay, mask, terms):
        out = []
        for m, c in terms:
            low = mask & ~m  # the g-bit this term replaced
            out.append((m, -c if (mask & (low - 1) & lay.gfull).bit_count() & 1 else c))
        return out

    assert _dd_zero_with(monkeypatch, unsigned) == "g12.g13"


def _add_terms_calls(monkeypatch, n):
    calls = []

    def counted(acc, terms):
        calls.append(1)
        return add_terms(acc, terms)

    monkeypatch.setattr(oracle, "add_terms", counted)
    assert oracle._dd_counterexample(Layout(n)) is None
    return len(calls)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_passing_dd_sweep_compares_whole_blocks(monkeypatch, n):
    # part (a) sums d(d(G)) once per pure g-part; part (b) compares the two
    # lists of each key whole, so a passing sweep never takes the per-key,
    # order-insensitive fallback
    assert _add_terms_calls(monkeypatch, n) == 2 ** comb(n, 2)


def test_dd_sweep_verdict_ignores_the_order_of_terms(monkeypatch):
    # reversing the term list of every mask with letters breaks the list
    # compare of each key with y-letters and two or more terms (none at
    # n = 2); the per-key fallback still passes every key
    def reversed_with_letters(lay, mask, terms):
        return terms[::-1] if mask & ~lay.gfull else terms

    _fault_d(monkeypatch, reversed_with_letters)
    fallbacks = [_add_terms_calls(monkeypatch, n) - 2 ** comb(n, 2) for n in (2, 3, 4)]
    assert fallbacks[0] == 0 and min(fallbacks[1:]) > 0, fallbacks


# -- negative controls for the symmetrizer and d identity checks ----------------


_RECORD_CHECKS = [
    ("d_squared_zero", "check_dd_zero"),
    ("equivariance_of_d", "check_equivariance"),
    ("cycle_vanishing", "check_cycle_vanishing"),
    ("tree_to_path", "check_tree_to_path"),
    ("symmetrizer_annihilation", "check_symmetrizer_annihilation"),
    ("path_annihilation", "check_path_annihilation"),
    ("canonical_spanning", "check_canonical_spanning"),
    ("symmetrizer_image_is_fixed_space", "check_fixed_space_agreement"),
    ("left_inverse_and_relation_annihilation", "check_rel6"),
    ("disjoint_pair_classes_nonzero", "check_rel7_nonvanishing"),
    ("canonical_kernel_dichotomy", "check_kernel_dichotomy"),
    ("boundary_property", "check_boundary_property"),
    ("differential_descends_to_quotient", "check_d_descends"),
    ("genus_zero_table", "check_arnold"),
]


@pytest.mark.parametrize("n_max", [3, 4])
def test_each_record_reports_its_own_check(monkeypatch, n_max):
    # every check fails with its own name, so a failed record names the
    # method that ran under it; below n = 4 tree_to_path is skipped
    for attr in dir(_Suite):
        if attr.startswith("check_"):
            monkeypatch.setattr(_Suite, attr, lambda self, attr=attr: attr)
    want = [
        (name, None if n_max < 4 and name == "tree_to_path" else check)
        for name, check in _RECORD_CHECKS
    ]
    assert [(r["name"], r.get("counterexample")) for r in _Suite(n_max).run()] == want
    assert {check for _, check in _RECORD_CHECKS} == {
        attr for attr in dir(_Suite) if attr.startswith("check_")
    }


def _ranges(monkeypatch, n_max):
    """The checks a run calls, in order, and each record's (n_range, detail)."""
    ran = []
    for attr in dir(_Suite):
        if attr.startswith("check_"):
            monkeypatch.setattr(_Suite, attr, lambda self, attr=attr: ran.append(attr))
    records = _Suite(n_max).run()
    return ran, {r["name"]: (r["n_range"], r.get("detail")) for r in records}


def test_records_below_every_range_pass_as_skipped(monkeypatch):
    # at n_max = 1 only the left inverse runs (from n = 0); every other
    # check is skipped, and names the range it would cover
    ran, records = _ranges(monkeypatch, 1)
    assert ran == ["check_rel6"]
    skipped = {
        "d_squared_zero": (2, 5), "equivariance_of_d": (2, 5),
        "cycle_vanishing": (2, 5), "tree_to_path": (4, 5),
        "symmetrizer_annihilation": (2, 5), "path_annihilation": (3, 5),
        "canonical_spanning": (2, 4), "symmetrizer_image_is_fixed_space": (2, 4),
        "disjoint_pair_classes_nonzero": (2, 5), "canonical_kernel_dichotomy": (2, 5),
        "boundary_property": (2, 5), "differential_descends_to_quotient": (2, 3),
        "genus_zero_table": (2, 7),
    }
    assert records == {
        name: (f"n={low}..{cap}", f"skipped below n={low}")
        for name, (low, cap) in skipped.items()
    } | {"left_inverse_and_relation_annihilation": ("n<=1", None)}


def test_records_above_every_cap_name_the_cap(monkeypatch):
    ran, records = _ranges(monkeypatch, 6)
    assert ran == [check for _, check in _RECORD_CHECKS]
    five = ("n<=5", None)
    assert records == {
        "d_squared_zero": five,
        "equivariance_of_d": five,
        "cycle_vanishing": ("2<=r<=n<=5", None),
        "tree_to_path": ("n<=5", "g(1,2)g(2,3)g(2,4) = g_{1,2,3,4} - g_{1,2,4,3}"),
        "symmetrizer_annihilation": five,
        "path_annihilation": ("r>=3, n<=5", None),
        "canonical_spanning": ("n<=4", None),
        "symmetrizer_image_is_fixed_space": ("n<=4", None),
        "left_inverse_and_relation_annihilation": five,
        "disjoint_pair_classes_nonzero": five,
        "canonical_kernel_dichotomy": five,
        "boundary_property": five,
        "differential_descends_to_quotient": ("n<=3", None),
        "genus_zero_table": ("2<=n<=6", None),
    }


def _verdicts(*checks):
    suite = _Suite(4)
    return {check.__name__: check(suite) is None for check in checks}


def test_zero_symmetrizer_fails_the_spanning_checks(monkeypatch):
    monkeypatch.setattr(oracle, "symmetrize", lambda e, n: Element())
    assert _verdicts(
        _Suite.check_canonical_spanning,
        _Suite.check_fixed_space_agreement,
        _Suite.check_rel7_nonvanishing,
    ) == {
        "check_canonical_spanning": False,
        "check_fixed_space_agreement": False,
        "check_rel7_nonvanishing": False,
    }


def test_doubled_differential_fails_the_d_checks(monkeypatch):
    original = oracle.differential
    monkeypatch.setattr(oracle, "differential", lambda e: original(e).scale(2))
    assert _verdicts(
        _Suite.check_kernel_dichotomy, _Suite.check_boundary_property
    ) == {"check_kernel_dichotomy": False, "check_boundary_property": False}


def test_identity_symmetrizer_fails_path_annihilation(monkeypatch):
    monkeypatch.setattr(oracle, "symmetrize", lambda e, n: e)
    assert _verdicts(_Suite.check_path_annihilation) == {
        "check_path_annihilation": False
    }


def _counterexample(n_max, check):
    cex = check(_Suite(n_max))
    assert cex is not None
    return cex


def _kinds(e):
    """The generator kinds, of "g", "x" and "y", that ``e`` holds."""
    return {gen.kind for gens in e.coeffs for gen in gens}


@pytest.mark.parametrize(
    "n_max, kind, want",
    [
        pytest.param(3, "x", "e(x1x2) != 0 at n=3", id="3-e(x1x2) != 0 at n=3"),
        pytest.param(4, "g", "e(g12g34) != 0 at n=4", id="4-e(g12g34) != 0 at n=4"),
    ],
)
def test_identity_symmetrizer_fails_symmetrizer_annihilation(monkeypatch, n_max, kind, want):
    # an identity at n = n_max only, on the elements holding a generator of
    # the given kind: x1x2 is checked from n = 2 and before g12g34, which is
    # checked from n = 4, so each case fails at its own element
    original = oracle.symmetrize
    monkeypatch.setattr(
        oracle, "symmetrize",
        lambda e, n: e if n == n_max and kind in _kinds(e) else original(e, n),
    )
    assert _counterexample(n_max, _Suite.check_symmetrizer_annihilation) == want


def test_identity_symmetrizer_leaves_a_class_not_closed(monkeypatch):
    # g12 y3 is closed only once symmetrized.  An identity on the elements
    # that mix a g and a letter leaves the (1, 0, 0) shapes intact: a bare
    # g12 and its letter-only image formula come before (1, 0, 1)
    original = oracle.symmetrize

    def identity_on_mixed(e, n):
        kinds = _kinds(e)
        return e if "g" in kinds and kinds != {"g"} else original(e, n)

    monkeypatch.setattr(oracle, "symmetrize", identity_on_mixed)
    assert (
        _counterexample(3, _Suite.check_kernel_dichotomy)
        == "n=3 (1, 0, 1) class not closed"
    )


def test_quotient_losing_g_degree_zero_closes_the_g_class(monkeypatch):
    # d(e(g12)) lands in q = 0, where this quotient sees nothing, while the
    # image formula still holds there (both sides reduce to zero)
    original = BidegreeSpace.reduce

    def blind_below_q1(self, e):
        return {} if self.q == 0 else original(self, e)

    monkeypatch.setattr(BidegreeSpace, "reduce", blind_below_q1)
    assert (
        _counterexample(2, _Suite.check_kernel_dichotomy)
        == "n=2 (1,0,0) class unexpectedly closed"
    )


@pytest.mark.parametrize("n_max", [2, 3])
def test_vanishing_differential_reports_the_closed_g_class_first(monkeypatch, n_max):
    # with d = 0 the (1, 0, 0) image formula fails too, but later
    monkeypatch.setattr(oracle, "differential", lambda e: Element())
    assert (
        _counterexample(n_max, _Suite.check_kernel_dichotomy)
        == "n=2 (1,0,0) class unexpectedly closed"
    )


# -- negative controls for the other identity checks ---------------------------


def test_differential_losing_x1_fails_equivariance_and_descent(monkeypatch):
    original = oracle.differential

    def without_x1(e):
        return Element(
            {gens: c for gens, c in original(e).coeffs.items() if X(1) not in gens}
        )

    monkeypatch.setattr(oracle, "differential", without_x1)
    assert _counterexample(2, _Suite.check_equivariance) == "sigma=(2, 1) m=g12.y2"
    assert (
        _counterexample(3, _Suite.check_d_descends)
        == "n=3 (p,q)=(0,2) row=g12.g13 - g12.g23 + g13.g23"
    )


def test_quotient_without_relations_fails_cycles_and_the_3_star(monkeypatch):
    # free coordinates: neither the circuit relation nor anything else holds
    monkeypatch.setattr(BidegreeSpace, "reduce", lambda self, e: dict(e.coeffs))
    assert _counterexample(3, _Suite.check_cycle_vanishing) == "n=3 r=3"
    assert _counterexample(4, _Suite.check_tree_to_path) == "3-star identity failed"


def test_path_products_missing_one_fail_the_path_span(monkeypatch):
    original = oracle._path_products
    monkeypatch.setattr(oracle, "_path_products", lambda n, q: original(n, q)[:-1])
    assert (
        _counterexample(4, _Suite.check_tree_to_path)
        == "path span deficient at n=2 q=1"
    )


def test_psi_keeping_what_it_should_kill_fails_the_relation_families(monkeypatch):
    # a dying monomial goes to the empty V-monomial 1, not to 0; no phi(m)
    # dies, so the left inverse still holds and the families fail at n = 3
    original = oracle.psi
    monkeypatch.setattr(oracle, "psi", lambda m: original(m) or (make_v_monomial(), 1))
    assert check_left_inverse(3) is None
    assert (
        _counterexample(3, _Suite.check_rel6)
        == "psi(relation family 1) != 0, n=3, mu=-g23.x2.y2"
    )


def test_psi_with_a_wrong_sign_on_g_fails_the_left_inverse(monkeypatch):
    original = oracle.psi

    def flipped(m):
        hit = original(m)
        if hit and any(gen.kind == "g" for gen in m.gens):
            return hit[0], -hit[1]
        return hit

    monkeypatch.setattr(oracle, "psi", flipped)
    # V(2) lists the index-disjoint letters before the pair symbols
    assert check_left_inverse(2) == "x12"
    assert _counterexample(2, _Suite.check_rel6) == "psi(phi(m)) != m at n=2: x12"
