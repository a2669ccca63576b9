"""Oracle structures: the genus-zero algebra, V(n), phi/psi and the suite."""

import ast
import random
import weakref
from collections import Counter
from itertools import combinations
from pathlib import Path

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
    return any(mask & t == t for t in alg.triangles)


def test_arnold_echelon_holds_no_zero_monomial():
    """Every relation row left in the echelon is free of zero monomials, so
    each degree splits into basis, zero monomials and pivots; and no basis
    monomial relabels into a zero monomial, so the coinvariant rows hold
    none either."""
    for n in range(1, 7):
        alg = ArnoldAlgebra(n)
        for q in range(alg.npairs + 1):
            deg = alg.degree(q)
            for row in deg.ech.rows.values():
                assert deg.zero.isdisjoint(row), (n, q)
            assert deg.zero.isdisjoint(deg.ech.rows), (n, q)
            for table in alg._perm_tables:
                for mask in deg.basis:
                    assert alg._relabel(table, mask)[1] not in deg.zero, (n, q, mask)
            free = sum(
                1
                for sel in combinations(range(alg.npairs), q)
                if not _holds_triangle(alg, sum(1 << b for b in sel))
            )
            assert deg.dim + len(deg.zero) + len(deg.ech.rows) == free, (n, q)


@pytest.mark.parametrize("n", range(1, 7))
def test_arnold_walk_visits_each_triangle_free_mask_once(n):
    """The walk meets every triangle-free mask of q edges once and nothing
    else, and its closing mask is every edge outside the mask that would
    complete a triangle."""
    alg = ArnoldAlgebra(n)
    by_size = {}
    for mask in range(1 << alg.npairs):
        if not _holds_triangle(alg, mask):
            by_size.setdefault(mask.bit_count(), set()).add(mask)
    for q in range(alg.npairs + 1):
        seen = []
        alg._walk(q, lambda mask, closing: seen.append((mask, closing)))
        masks = [mask for mask, _ in seen]
        assert len(set(masks)) == len(masks), (n, q)
        assert set(masks) == by_size.get(q, set()), (n, q)
        for mask, closing in seen:
            brute = 0
            for e in range(alg.npairs):
                if not mask >> e & 1 and _holds_triangle(alg, mask | 1 << e):
                    brute |= 1 << e
            assert closing == brute, (n, q, mask)


def test_arnold_oracle_uses_nothing_from_gcalg():
    """ArnoldAlgebra and arnold_conf_betti, with every module-level helper
    they reach, name nothing that oracle.py imports from gcalg, so the
    genus-zero check does not lean on the engine it checks."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    from_gcalg = {"gcalg"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "gcalg":
            from_gcalg.update(alias.asname or alias.name for alias in node.names)
    assert {"Layout", "BidegreeSpace", "normalize"} <= from_gcalg
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    todo, reached, used = ["ArnoldAlgebra", "arnold_conf_betti"], set(), set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                used.add(node.id)
                if node.id in defs:
                    todo.append(node.id)
    assert {"_Degree", "_bits"} <= reached
    assert not used & from_gcalg, sorted(used & from_gcalg)


def test_arnold_dies_at_degree_n():
    alg = ArnoldAlgebra(4)
    assert alg.quotient_dim(3) > 0
    assert alg.quotient_dim(4) == 0


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


def _bit_list(mask):
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def _inversion_sign(seq):
    """(-1) to the number of pairs of ``seq`` out of increasing order."""
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def _first_relation_sign_error(alg, monkeypatch):
    """The first row ``degree(q)`` sends to its echelon that differs from
    the row built by hand, or None.  By hand: for every triangle-free mu of
    q - 2 edges and every triangle T that meets neither mu nor its closing
    mask, the terms t of r_T whose product is not a zero monomial, each
    with its coefficient times the inversion sign of bits(mu) + bits(t);
    rows that keep no term are not sent."""
    sent = []

    class Recording(oracle.SparseEchelon):
        def add_row(self, row):
            sent.append(dict(row))
            return super().add_row(row)

    monkeypatch.setattr(oracle, "SparseEchelon", Recording)
    for q in range(2, alg.npairs + 1):
        sent.clear()
        zero = alg.degree(q).zero
        multipliers = []
        alg._walk(q - 2, lambda mu, closing: multipliers.append((mu, closing)))
        k = 0
        for mu, closing in multipliers:
            for tri, terms in alg._relations:
                if tri & (mu | closing):
                    continue
                want = {}
                for t, c, *_ in terms:
                    if mu | t not in zero:
                        want[mu | t] = c * _inversion_sign(_bit_list(mu) + _bit_list(t))
                if not want:
                    continue
                got = sent[k] if k < len(sent) else {}
                k += 1
                for prod, sign in want.items():
                    if got.get(prod) != sign:
                        return (
                            f"n={alg.n} q={q} mu={_bit_list(mu)} "
                            f"t={_bit_list(prod ^ mu)}: wrote {got.get(prod)}, want {sign}"
                        )
                if got.keys() != want.keys():
                    return f"n={alg.n} q={q} mu={_bit_list(mu)}: row {got} not {want}"
        if k != len(sent):
            return f"n={alg.n} q={q}: {len(sent)} rows sent, {k} expected"
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
    masks = []
    for q in range(alg.npairs + 1):
        alg._walk(q, lambda mask, closing: masks.append(mask))
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
    lose every term (900 of them, at q = 6 and 7), which are not sent."""
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


# -- negative controls for d_squared_zero: faults injected into the bitmask d ---


def _dd_zero_with(monkeypatch, fault):
    original = Layout.differential_mask
    monkeypatch.setattr(
        Layout, "differential_mask", lambda self, mask: fault(self, mask, original(self, mask))
    )
    return _Suite(4).check_dd_zero()


def test_dd_zero_catches_sign_flip_on_x1(monkeypatch):
    def flip(lay, mask, terms):
        if mask >> lay.xbit0 & 1:
            return [(m, -c) for m, c in terms]
        return terms

    assert _dd_zero_with(monkeypatch, flip)


def test_dd_zero_catches_dropped_four_letter_terms(monkeypatch):
    def drop(lay, mask, terms):
        return [(m, c) for m, c in terms if (m & ~lay.gfull).bit_count() < 4]

    assert _dd_zero_with(monkeypatch, drop)


def test_dd_zero_calls_differential_mask_once_per_free_mask(monkeypatch):
    # part (b) takes every free mask once; part (a) adds d(G) and d of each
    # of its terms for every pure g-part G
    seen = Counter()
    original = Layout.differential_mask

    def counted(self, mask):
        seen[self.n, mask] += 1
        return original(self, mask)

    monkeypatch.setattr(Layout, "differential_mask", counted)
    assert _Suite(4).check_dd_zero() is None
    for n in range(2, 5):
        lay = Layout(n)
        masks = {mask for nn, mask in seen if nn == n}
        assert masks == set(range(1 << lay.nbits))
        calls = sum(seen[n, mask] for mask in masks)
        assert calls == (1 << lay.nbits) + (1 << lay.npairs) * (1 + lay.npairs)


def test_dd_zero_catches_a_dropped_leibniz_sign_on_a_pure_g_part(monkeypatch):
    # the same fault on every mask: d(G|L) = d(G).L still holds, so only
    # part (a), d(d(G)) = 0 on the pure g-parts, can see it
    def unsigned(lay, mask, terms):
        out = []
        for m, c in terms:
            low = mask & ~m  # the g-bit this term replaced
            out.append((m, -c if (mask & (low - 1) & lay.gfull).bit_count() & 1 else c))
        return out

    cex = _dd_zero_with(monkeypatch, unsigned)
    assert cex and not set(cex) & set("xy"), cex


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
