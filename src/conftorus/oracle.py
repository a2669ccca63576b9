"""Independent verification structures.

Three auxiliary algebras triangulate the main engine:

* :class:`ArnoldAlgebra` -- the algebra on the g_ij alone with the circuit
  relation, i.e. the cohomology of ordered points on a line; its invariant
  dimensions must reproduce the classical table (1, 1, 0, ...).
* ``V(n)`` -- the graded-commutative algebra on x_i, y_i (degree 1) and
  formal pair symbols x_ij, y_ij (degree 2), modulo all monomials with a
  repeated index.  Its basis is combinatorially explicit: index-disjoint
  monomials.
* ``W(n)`` -- the quotient of the main algebra by all products of two
  adjacent g's.

The algebra map ``phi: V -> W`` (x_ij -> g_ij x_i) together with the linear
classifier ``psi: W -> V`` built below satisfy ``psi(phi(m)) = m``, which
proves the disjoint-pair classes linearly independent; the engine's rank
computations are cross-checked against this.

:func:`run_selftest` executes the whole identity suite and returns a
JSON-ready summary.  Every check returns its first counterexample, or None,
and :func:`conftorus.series.check_result` builds every record of
``conftorus selftest``.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import NamedTuple

from .gcalg import (
    BidegreeSpace,
    Element,
    G,
    Layout,
    Monomial,
    X,
    Y,
    differential,
    multiply,
    normalize,
    relation_span,
    sn_act,
    symmetrize,
)
from .linalg import (
    SparseEchelon,
    add_terms,
    rank_of_rows,
)
from .series import check_result

__all__ = [
    "ArnoldAlgebra",
    "arnold_conf_betti",
    "VMonomial",
    "make_v_monomial",
    "v_basis",
    "phi",
    "psi",
    "psi_element",
    "check_left_inverse",
    "run_selftest",
]


# ---------------------------------------------------------------------------
# the genus-zero algebra
# ---------------------------------------------------------------------------


class _Degree(NamedTuple):
    dim: int
    basis: tuple
    zero: set
    ech: SparseEchelon


class ArnoldAlgebra:
    """Exterior algebra on the g_ij modulo the circuit relation, graded by
    the number of g factors.  Quotients are computed degree by degree; once
    a degree dies the algebra is zero above it (it is generated in degree
    one), and the top nonzero degree is checked to be at most n - 1.

    The relations of degree q are the multiples mu * r of the triangle
    relations r = g_ij g_ik - g_ij g_jk + g_ik g_jk, with mu a product of
    q - 2 other g's.  A monomial holding a whole triangle is zero, so only
    triangle-free monomials are enumerated: :meth:`_walk` adds edges in
    increasing order and carries the closing mask, the edges that would
    close a triangle on two edges already chosen.  A multiplier mu holding
    a triangle kills every term of mu * r and is never visited.

    For a triangle-free mu disjoint from the triangle T, a term t of
    mu * r_T holds a triangle exactly when t meets closing(mu): a triangle
    with one edge in t has its other two in mu, and the only triangle with
    two edges in t is T, whose third edge mu misses.  Each edge of T lies
    in two of the three terms, so a row keeps 3, 1 or 0 terms.  The
    multipliers are walked twice.  The first walk puts the monomial of
    every 1-term row in the set ``zero``; the second sends every 3-term
    row, stripped of its zero monomials, to one ``SparseEchelon``, so no
    echelon row holds a zero monomial; a row stripped of every term is not
    sent.  A walk at degree q then reads the basis: every triangle-free
    monomial that is neither zero nor a pivot.

    A degree is cached until :meth:`invariant_dim` reads it, then dropped,
    so :func:`arnold_conf_betti` holds one degree at a time and no
    caller that reads every quotient dimension first builds one twice.

    At n = 7 the degrees q = 2..7 send 142,345 rows for a total rank of
    47,065, 63,000 of them at the empty degree 7 (13,860 more multiples
    there lose every term).  Built, the n = 7 degrees hold 19.5 MB together
    (tracemalloc), degree 6 the most at 7.1 MB.  On a 2-vCPU Linux
    container (CPython 3.11) ``arnold_conf_betti(n)`` for n = 2..7 takes
    2.0-2.5 s, of which degree 7 takes 0.55-0.95 s."""

    def __init__(self, n):
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        self.n = n
        self.pairs = [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ]
        self.bit = {p: b for b, p in enumerate(self.pairs)}
        self.npairs = len(self.pairs)
        self.triangles = []
        # the terms (t, c, lo, hi) of r_T, lo and hi the positions just past
        # the two bits of t; and per edge e the wedges (f, g) as bits: f < e
        # shares a vertex with e and g closes the triangle on e and f
        self._relations = []
        self._wedges = [[] for _ in self.pairs]
        for i, j, k in combinations(range(1, n + 1), 3):
            eij, eik, ejk = (1 << self.bit[p] for p in ((i, j), (i, k), (j, k)))
            tri = eij | eik | ejk
            self.triangles.append(tri)
            terms = ((eij | eik, 1), (eij | ejk, -1), (eik | ejk, 1))
            self._relations.append(
                (tri, tuple((t, c, (t & -t).bit_length(), t.bit_length()) for t, c in terms))
            )
            self._wedges[self.bit[(i, k)]].append((eij, ejk))
            self._wedges[self.bit[(j, k)]] += [(eij, eik), (eik, eij)]
        self._degrees = {}
        # bit tables for (1 2) and the n-cycle, which generate S_n
        perms = []
        if n >= 2:
            perms.append((2, 1, *range(3, n + 1)))
        if n > 2:
            perms.append((*range(2, n + 1), 1))
        self._perm_tables = [
            [
                self.bit[tuple(sorted((sigma[i - 1], sigma[j - 1])))]
                for i, j in self.pairs
            ]
            for sigma in perms
        ]

    def _walk(self, q, visit):
        """Call ``visit(mask, closing)`` once on every triangle-free mask of
        q edges; ``closing`` holds the edges that would close a triangle on
        two edges of ``mask``."""
        if q < 0:
            return
        wedges, top = self._wedges, self.npairs

        def grow(start, mask, closing, left):
            if not left:
                visit(mask, closing)
                return
            for e in range(start, top - left + 1):
                if closing >> e & 1:
                    continue
                grown = closing
                for f, g in wedges[e]:
                    if mask & f:
                        grown |= g
                grow(e + 1, mask | 1 << e, grown, left - 1)

        # grow reaches itself through its closure cell, and through visit the
        # caller's sets; emptying the cell frees them by reference counting
        try:
            grow(0, 0, 0, q)
        finally:
            del grow

    def degree(self, q) -> _Degree:
        if q in self._degrees:
            return self._degrees[q]
        zero, ech, basis = set(), SparseEchelon(), []
        relations = self._relations

        def find_zero(mu, closing):
            for tri, _ in relations:
                hit = tri & closing
                # one edge of T closed: only the term without it survives
                if hit and not hit & (hit - 1) and not tri & mu:
                    zero.add(mu | tri ^ hit)

        add_row = ech.add_row

        def eliminate(mu, closing):
            blocked = mu | closing
            for tri, terms in relations:
                if tri & blocked:
                    continue
                row = {}
                for t, c, lo, hi in terms:
                    prod = mu | t
                    if prod not in zero:
                        # sorting mu . t moves each bit of t past the bits
                        # of mu above it
                        parity = ((mu >> lo).bit_count() + (mu >> hi).bit_count()) & 1
                        row[prod] = -c if parity else c
                if row:
                    add_row(row)

        def read_basis(mask, closing):
            if mask not in zero and mask not in ech.rows:
                basis.append(mask)

        self._walk(q - 2, find_zero)
        self._walk(q - 2, eliminate)
        self._walk(q, read_basis)
        deg = _Degree(len(basis), tuple(sorted(basis)), zero, ech)
        self._degrees[q] = deg
        return deg

    def quotient_dim(self, q):
        return self.degree(q).dim

    def _relabel(self, table, mask):
        """sigma . mask as (sign, mask), for the bit table of sigma: the
        images of the edges of mask multiplied in increasing order, each
        moved past the images already placed above it."""
        inv, out = 0, 0
        for b in _bits(mask):
            img = table[b]
            inv += (out >> img).bit_count()
            out |= 1 << img
        return (-1 if inv & 1 else 1), out

    def invariant_dim(self, q):
        """Dimension of the S_n-coinvariants of degree q: the basis masks m
        modulo the rows sigma . m - m, for sigma in {(1 2), n-cycle}, which
        generate S_n.  In characteristic zero averaging maps the fixed space
        isomorphically onto the coinvariants, so this is also the dimension
        of the fixed space.  The rows are reduced against the degree's own
        echelon, and the rank they add to it is the codimension of the
        coinvariants in the quotient.  The degree is dropped once read."""
        deg = self.degree(q)
        del self._degrees[q]
        rows = []
        for mask in deg.basis:
            for table in self._perm_tables:
                # sigma is an automorphism, so sigma . m is never a zero monomial
                sign, img = self._relabel(table, mask)
                row = {img: sign}
                row[mask] = row.get(mask, 0) - 1
                rows.append(row)
        return deg.dim - rank_of_rows(rows, deg.ech.rows)


def _bits(mask):
    out = []
    while mask:
        b = (mask & -mask).bit_length() - 1
        out.append(b)
        mask &= mask - 1
    return out


def arnold_conf_betti(n):
    """Invariant dimensions per degree: the Betti numbers of n unordered
    points on the affine line."""
    alg = ArnoldAlgebra(n)
    dims = []
    q = 0
    while q <= alg.npairs:
        d = alg.quotient_dim(q)
        if d == 0:
            break
        dims.append(alg.invariant_dim(q))
        q += 1
    # the quotient algebra is generated in degree one, so the first dead
    # degree kills everything above it
    if n >= 1 and len(dims) > n:
        raise AssertionError(f"nonzero piece above degree n-1 at n={n}")
    return dims


# ---------------------------------------------------------------------------
# V(n), phi and psi
# ---------------------------------------------------------------------------


class VMonomial(NamedTuple):
    """Basis monomial of V(n): index-disjoint product of singles and pairs."""

    xs: tuple
    ys: tuple
    xpairs: tuple
    ypairs: tuple

    def __str__(self):
        bits = (
            [f"x{i}" for i in self.xs]
            + [f"y{i}" for i in self.ys]
            + [f"x{i}{j}" for i, j in self.xpairs]
            + [f"y{i}{j}" for i, j in self.ypairs]
        )
        return ".".join(bits) if bits else "1"


def make_v_monomial(xs=(), ys=(), xpairs=(), ypairs=()):
    xs = tuple(sorted(xs))
    ys = tuple(sorted(ys))
    xpairs = tuple(sorted(tuple(sorted(p)) for p in xpairs))
    ypairs = tuple(sorted(tuple(sorted(p)) for p in ypairs))
    vm = VMonomial(xs, ys, xpairs, ypairs)
    used = list(vm.xs) + list(vm.ys)
    for i, j in vm.xpairs + vm.ypairs:
        used += [i, j]
    if len(set(used)) != len(used):
        raise ValueError(f"repeated index in {vm}")
    return vm


def v_basis(n):
    """All index-disjoint monomials on {1..n}, every degree."""
    out = []

    def grow(free, xs, ys, xpairs, ypairs):
        if not free:
            out.append(VMonomial(xs, ys, xpairs, ypairs))
            return
        # each call decides the fate of the smallest free index, so every
        # monomial is reached by exactly one path, with its tuples sorted
        head, tail = free[0], free[1:]
        grow(tail, xs, ys, xpairs, ypairs)  # unused
        grow(tail, xs + (head,), ys, xpairs, ypairs)
        grow(tail, xs, ys + (head,), xpairs, ypairs)
        for t, partner in enumerate(tail):
            remaining = tail[:t] + tail[t + 1 :]
            grow(remaining, xs, ys, xpairs + ((head, partner),), ypairs)
            grow(remaining, xs, ys, xpairs, ypairs + ((head, partner),))

    try:
        grow(tuple(range(1, n + 1)), (), (), (), ())
    finally:
        del grow  # the cell that lets grow recurse would hold it in a cycle
    return out


def phi(vm: VMonomial) -> Element:
    """Algebra map into the main algebra: x_ij -> g_ij x_i, y_ij -> g_ij y_i."""
    gens = []
    for i in vm.xs:
        gens.append(X(i))
    for i in vm.ys:
        gens.append(Y(i))
    for i, j in vm.xpairs:
        gens += [G(i, j), X(i)]
    for i, j in vm.ypairs:
        gens += [G(i, j), Y(i)]
    return Element.from_monomial(normalize(tuple(gens)))


def psi(m: Monomial):
    """Classifier sending a free monomial to a signed V(n) monomial or None.

    Rules, in order: monomials with adjacent g's, an x_i y_i pair, or a
    g_ij carrying two letters at its endpoints die (type A); a leftover
    bare g kills the monomial (type B); otherwise every g is paired with
    its unique endpoint letter and the result is the evident V(n) monomial
    (type C), with the Koszul sign of the regrouping.
    """
    gpairs = [g for g in m.gens if g.kind == "g"]
    xs = [g for g in m.gens if g.kind == "x"]
    ys = [g for g in m.gens if g.kind == "y"]
    index_use = {}
    for g in gpairs:
        for i in (g.i, g.j):
            index_use[i] = index_use.get(i, 0) + 1
    # type A
    if any(v >= 2 for v in index_use.values()):
        return None
    xset, yset = {g.i for g in xs}, {g.i for g in ys}
    if xset & yset:
        return None
    attached = {}
    for g in gpairs:
        letters = [X(i) for i in (g.i, g.j) if i in xset]
        letters += [Y(i) for i in (g.i, g.j) if i in yset]
        if len(letters) >= 2:
            return None
        if letters:
            attached[g] = letters[0]
    # type B
    if len(attached) < len(gpairs):
        return None
    # type C: regroup as [free x][free y][(g,x) pairs][(g,y) pairs]
    taken = {v for v in attached.values()}
    free_x = [g for g in xs if g not in taken]
    free_y = [g for g in ys if g not in taken]
    xp = sorted((g for g in gpairs if attached[g].kind == "x"),
                key=lambda g: (g.i, g.j))
    yp = sorted((g for g in gpairs if attached[g].kind == "y"),
                key=lambda g: (g.i, g.j))
    target = list(free_x) + list(free_y)
    for g in xp:
        target += [g, attached[g]]
    for g in yp:
        target += [g, attached[g]]
    pos = {gen: k for k, gen in enumerate(m.gens)}
    seq = [pos[gen] for gen in target]
    inv = sum(
        1
        for s in range(len(seq))
        for t in range(s + 1, len(seq))
        if seq[s] > seq[t]
    )
    sign = m.sign * (-1 if inv % 2 else 1)
    vm = VMonomial(
        tuple(g.i for g in free_x),
        tuple(g.i for g in free_y),
        tuple((g.i, g.j) for g in xp),
        tuple((g.i, g.j) for g in yp),
    )
    return vm, sign


def psi_element(e: Element):
    """Linear extension of :func:`psi`; returns {VMonomial: int}."""
    hits = ((psi(Monomial(gens)), c) for gens, c in e.coeffs.items())
    return add_terms({}, ((hit[0], c * hit[1]) for hit, c in hits if hit is not None))


def check_left_inverse(n):
    """The first V(n) basis monomial m with psi(phi(m)) != m, as a string,
    or None when psi(phi(m)) == m for all of them."""
    for vm in v_basis(n):
        if psi_element(phi(vm)) != {vm: 1}:
            return str(vm)
    return None


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


def _g_times_phi(gpair, vm):
    """g_{gpair} phi(vm), or phi(vm) when gpair is None."""
    e = phi(vm)
    return multiply(Monomial((G(*gpair),)), e) if gpair else e


def _canonical_shapes(n):
    """One representative per shape of the canonical invariant generators
    g^r x^{s1} y^{s2} x_{J_1}..x_{J_b} y_{K_1}..y_{K_c} on {1..n}: the
    V(n) monomial ``vm`` of the letters and pair symbols, its image
    ``element`` under phi, times g on the two lowest indices when r = 1."""
    shapes = []
    for r in (0, 1):
        for s1 in (0, 1):
            for s2 in (0, 1):
                base = 2 * r + s1 + s2
                for b in range((n - base) // 2 + 1):
                    for c in range((n - base - 2 * b) // 2 + 1):
                        idx = iter(range(1, n + 1))
                        gpair = (next(idx), next(idx)) if r else None
                        xs = (next(idx),) if s1 else ()
                        ys = (next(idx),) if s2 else ()
                        xpairs = tuple((next(idx), next(idx)) for _ in range(b))
                        ypairs = tuple((next(idx), next(idx)) for _ in range(c))
                        vm = VMonomial(xs, ys, xpairs, ypairs)
                        shapes.append(
                            {
                                "r": r,
                                "s1": s1,
                                "s2": s2,
                                "b": b,
                                "c": c,
                                "gpair": gpair,
                                "vm": vm,
                                "element": _g_times_phi(gpair, vm),
                                "bidegree": (s1 + s2 + b + c, r + b + c),
                            }
                        )
    return shapes


def _dd_counterexample(lay):
    """The first free mask failing part (a) or (b) of
    :meth:`_Suite.check_dd_zero` in this layout, or None."""
    dmask = lay.differential_mask
    lmasks = [letters << lay.xbit0 for letters in range(1 << (2 * lay.n))]
    # a term c.T of d(G) is its g-part times two letters a, all g-bits below
    # every letter, so its product with L has the coefficient c times the
    # sign of a.L (0 if they meet); cols[a, c][k] is that coefficient for
    # the k-th letter set
    cols = {}
    for g in range(lay.gfull + 1):
        terms = dmask(g)
        dd = ((m3, c2 * c3) for m2, c2 in terms for m3, c3 in dmask(m2))
        if add_terms({}, dd):
            return g
        split = []
        for t, c in terms:
            key = (t & ~lay.gfull, c)
            if key not in cols:
                cols[key] = [c * lay.merge(key[0], lmask)[0] for lmask in lmasks]
            split.append((t, cols[key]))
        # the y-letters are the high bits of k: a term whose y-letter is in
        # L drops out of the 2^n letter sets that share L's y-letters
        for ky in range(0, len(lmasks), 1 << lay.n):
            alive = [(t, col) for t, col in split if not t & lmasks[ky]]
            for k in range(ky, ky + (1 << lay.n)):
                lmask = lmasks[k]
                want = [(t | lmask, c) for t, col in alive if (c := col[k])]
                got = dmask(g | lmask)
                if got != want and add_terms({}, got) != dict(want):
                    return g | lmask
    return None


class _Suite:
    """The identity suite.  Each ``check_*`` returns its first
    counterexample, in its own iteration order, as a string, or None when
    the identity holds; :meth:`run` turns them into result records."""

    def __init__(self, n_max):
        self.n_max = n_max
        self._engines = {}

    def engine(self, n):
        from .specseq import SpectralEngine

        if n not in self._engines:
            self._engines[n] = SpectralEngine(n)
        return self._engines[n]

    # -- individual checks ---------------------------------------------------

    def check_dd_zero(self):
        """d(d(m)) = 0 for every free mask m = G|L with n <= min(n_max, 5),
        where G is the g-part and L the letter set, at the cost of one
        ``differential_mask`` call per mask.

        (a) d(d(G)) = 0 for every pure g-part G, two levels deep.
        (b) differential_mask(G|L) = d(G).L for every free mask, the right
            side multiplying each term of d(G) by L with ``Layout.merge``.

        Together they give, for every free mask:
            d(d(G|L)) = d(d(G).L)      by (b) for G|L,
                      = d(d(G)).L      by (b) for each term of d(G),
                      = 0              by (a).
        """
        for n in range(2, min(self.n_max, 5) + 1):
            lay = Layout(n)
            mask = _dd_counterexample(lay)
            if mask is not None:
                return str(lay.decode(mask))
        return None

    def check_equivariance(self):
        rng = random.Random(20210405)
        for n in range(2, min(self.n_max, 5) + 1):
            gens = [G(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            gens += [X(i) for i in range(1, n + 1)]
            gens += [Y(i) for i in range(1, n + 1)]
            for _ in range(40):
                k = rng.randint(1, min(6, len(gens)))
                m = normalize(tuple(rng.sample(gens, k)))
                e = Element.from_monomial(m)
                sigma = list(range(1, n + 1))
                rng.shuffle(sigma)
                sigma = tuple(sigma)
                if sn_act(sigma, differential(e)) != differential(sn_act(sigma, e)):
                    return f"sigma={sigma} m={m}"
        return None

    def check_cycle_vanishing(self):
        for n in range(2, min(self.n_max, 5) + 1):
            lay = Layout(n)
            for r in range(2, n + 1):
                gens = tuple(G(i, i + 1) for i in range(1, r)) + (G(r, 1),)
                m = normalize(gens)
                if m is None:
                    continue
                sp = BidegreeSpace(n, 0, r, layout=lay)
                if sp.reduce(Element.from_monomial(m)):
                    return f"n={n} r={r}"
        return None

    def check_tree_to_path(self):
        """The 3-star identity at n = 4, so n_max >= 4, then the path span."""
        sp = BidegreeSpace(4, 0, 3)
        lhs = Element.from_monomial(normalize((G(1, 2), G(2, 3), G(2, 4))))
        p1 = Element.from_monomial(normalize((G(1, 2), G(2, 3), G(3, 4))))
        p2 = Element.from_monomial(normalize((G(1, 2), G(2, 4), G(4, 3))))
        if sp.reduce(lhs - (p1 - p2)):
            return "3-star identity failed"
        # spanning-rank equality: path products span every pure-g bidegree
        for nn in range(2, min(self.n_max, 5) + 1):
            lay = Layout(nn)
            for q in range(1, lay.npairs + 1):
                sp = BidegreeSpace(nn, 0, q, layout=lay)
                vecs = [
                    sp.reduce(Element.from_monomial(m))
                    for m in _path_products(nn, q)
                ]
                if rank_of_rows(vecs) != sp.dim:
                    return f"path span deficient at n={nn} q={q}"
        return None

    def check_symmetrizer_annihilation(self):
        for n in range(2, min(self.n_max, 5) + 1):
            if symmetrize(Element.from_generators(X(1), X(2)), n):
                return f"e(x1x2) != 0 at n={n}"
            if n >= 4 and symmetrize(Element.from_generators(G(1, 2), G(3, 4)), n):
                return f"e(g12g34) != 0 at n={n}"
        return None

    def check_path_annihilation(self):
        for n in range(3, min(self.n_max, 5) + 1):
            lay = Layout(n)
            for r in range(3, n + 1):
                sp = BidegreeSpace(n, 0, r - 1, layout=lay)
                for tup in permutations(range(1, n + 1), r):
                    if tup[0] > tup[-1]:
                        continue  # reversed path gives the same monomial
                    gens = tuple(G(tup[t], tup[t + 1]) for t in range(r - 1))
                    m = normalize(gens)
                    e = symmetrize(Element.from_monomial(m), n)
                    if sp.reduce(e):
                        return f"n={n} path={tup}"
        return None

    def _first_deficient_bidegree(self, elements):
        """The first invariant space of the engine, n <= min(n_max, 4), that
        the symmetrized ``elements(inv)`` do not span, or None."""
        for n in range(2, min(self.n_max, 4) + 1):
            eng = self.engine(n)
            for q in range(eng.layout.npairs + 1):
                for p in range(2 * n + 1):
                    inv = eng.invariants(p, q)
                    vecs = [inv.space.reduce(symmetrize(e, n)) for e in elements(inv)]
                    if rank_of_rows(vecs) != inv.dim:
                        return f"n={n} (p,q)=({p},{q})"
        return None

    def check_canonical_spanning(self):
        by_bidegree = {}
        for n in range(2, min(self.n_max, 4) + 1):
            for shape in _canonical_shapes(n):
                by_bidegree.setdefault((n, shape["bidegree"]), []).append(
                    shape["element"]
                )
        return self._first_deficient_bidegree(
            lambda inv: by_bidegree.get((inv.n, (inv.p, inv.q)), [])
        )

    def check_fixed_space_agreement(self):
        return self._first_deficient_bidegree(
            lambda inv: [
                Element.from_monomial(inv.space.layout.decode(mask))
                for mask in inv.space.quotient_basis
            ]
        )

    def check_rel6(self):
        rng = random.Random(997)
        for n in range(0, min(self.n_max, 5) + 1):
            cex = check_left_inverse(n)
            if cex is not None:
                return f"psi(phi(m)) != m at n={n}: {cex}"
            if n < 3:
                continue
            gens = [G(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            gens += [X(i) for i in range(1, n + 1)]
            gens += [Y(i) for i in range(1, n + 1)]
            for _ in range(60):
                k = rng.randint(0, min(5, len(gens) - 2))
                mu = normalize(tuple(rng.sample(gens, k)))
                mu_el = Element.from_monomial(mu)
                i, j, k2 = rng.sample(range(1, n + 1), 3)
                fams = [
                    multiply(Monomial((G(i, j),)), multiply(Monomial((G(j, k2),)), mu_el)),
                    multiply(Monomial((G(i, j),)),
                             multiply(Monomial((X(i),)), mu_el))
                    - multiply(Monomial((G(i, j),)),
                               multiply(Monomial((X(j),)), mu_el)),
                    multiply(Monomial((G(i, j),)),
                             multiply(Monomial((Y(i),)), mu_el))
                    - multiply(Monomial((G(i, j),)),
                               multiply(Monomial((Y(j),)), mu_el)),
                    multiply(Monomial((X(i),)), multiply(Monomial((Y(i),)), mu_el)),
                ]
                for fam_no, e in enumerate(fams):
                    if psi_element(e):
                        return f"psi(relation family {fam_no}) != 0, n={n}, mu={mu}"
        return None

    def check_rel7_nonvanishing(self):
        for n in range(2, min(self.n_max, 5) + 1):
            eng = self.engine(n)
            for shape in _canonical_shapes(n):
                if (shape["r"], shape["s1"], shape["s2"]) != (0, 1, 1):
                    continue
                total = symmetrize(shape["element"], n)
                p, q = shape["bidegree"]
                sp = eng.space(p, q)
                engine_nonzero = bool(sp.reduce(total))
                oracle_nonzero = bool(psi_element(total))
                if not (engine_nonzero and oracle_nonzero):
                    return (
                        f"n={n} shape b={shape['b']} c={shape['c']}: "
                        f"engine={engine_nonzero} oracle={oracle_nonzero}"
                    )
        return None

    def check_kernel_dichotomy(self):
        for n in range(2, min(self.n_max, 5) + 1):
            eng = self.engine(n)
            for shape in _canonical_shapes(n):
                p, q = shape["bidegree"]
                if q == 0:
                    continue  # d vanishes identically without g factors
                e = symmetrize(shape["element"], n)
                target = eng.space(p + 2, q - 1)
                img = target.reduce(differential(e))
                is_zero = not img
                key = (shape["r"], shape["s1"], shape["s2"])
                if key == (1, 0, 0):
                    if is_zero and eng.space(p, q).reduce(e):
                        return f"n={n} (1,0,0) class unexpectedly closed"
                    # d(e(alpha)) = -2 e(x_i1 y_i2 * rest)
                    i1, i2 = shape["gpair"]
                    rest = phi(shape["vm"]._replace(xs=(i1,), ys=(i2,)))
                    cmp = symmetrize(rest, n).scale(-2)
                    if img != target.reduce(cmp):
                        return f"n={n} (1,0,0) image formula failed"
                elif not is_zero:
                    return f"n={n} {key} class not closed"
        return None

    def check_boundary_property(self):
        for n in range(2, min(self.n_max, 5) + 1):
            eng = self.engine(n)
            for shape in _canonical_shapes(n):
                if (shape["r"], shape["s1"], shape["s2"]) != (0, 1, 1):
                    continue
                p, q = shape["bidegree"]
                e = symmetrize(shape["element"], n)
                # the preimage puts g on the single indices: x_j y_k -> g_{jk}
                vm = shape["vm"]
                pre = _g_times_phi(vm.xs + vm.ys, vm._replace(xs=(), ys=()))
                pre = symmetrize(pre, n)
                sp = eng.space(p, q)
                # e = -d(pre)/2, doubled to stay in the integers
                if sp.reduce(e.scale(-2)) != sp.reduce(differential(pre)):
                    return f"n={n} b={shape['b']} c={shape['c']}"
        return None

    def check_d_descends(self):
        for n in range(2, min(self.n_max, 3) + 1):
            lay = Layout(n)
            for q in range(lay.npairs + 1):
                for p in range(2 * n + 1):
                    target = BidegreeSpace(n, p + 2, q - 1, layout=lay)
                    for row in relation_span(n, p, q, layout=lay):
                        de = differential(row)
                        if not de:
                            continue
                        if target.reduce(de):
                            return f"n={n} (p,q)=({p},{q}) row={row}"
        return None

    def check_arnold(self):
        for n in range(2, min(self.n_max, 7) + 1):
            try:
                dims = arnold_conf_betti(n)
            except AssertionError as err:
                return str(err)
            expected = [1, 1] + [0] * (len(dims) - 2)
            if dims != expected:
                return f"n={n}: {dims}"
        return None

    def run(self, include_arnold=True):
        """The result records, in this order.  The 3-star identity lives at
        n = 4, so below that tree_to_path passes as skipped."""
        n_max = self.n_max
        if n_max >= 4:
            tree = ("n<=5", self.check_tree_to_path,
                    "g(1,2)g(2,3)g(2,4) = g_{1,2,3,4} - g_{1,2,4,3}")
        else:
            tree = ("n=4..5", lambda: None, "skipped below n=4")
        checks = [
            ("d_squared_zero", f"n<=min({n_max},5)", self.check_dd_zero),
            ("equivariance_of_d", "n<=5", self.check_equivariance),
            ("cycle_vanishing", "2<=r<=n<=5", self.check_cycle_vanishing),
            ("tree_to_path", *tree),
            ("symmetrizer_annihilation", "n<=5", self.check_symmetrizer_annihilation),
            ("path_annihilation", "r>=3, n<=5", self.check_path_annihilation),
            ("canonical_spanning", "n<=4", self.check_canonical_spanning),
            ("symmetrizer_image_is_fixed_space", "n<=4",
             self.check_fixed_space_agreement),
            ("left_inverse_and_relation_annihilation", "n<=5", self.check_rel6),
            ("disjoint_pair_classes_nonzero", "n<=5", self.check_rel7_nonvanishing),
            ("canonical_kernel_dichotomy", "n<=5", self.check_kernel_dichotomy),
            ("boundary_property", "n<=5", self.check_boundary_property),
            ("differential_descends_to_quotient", "n<=3", self.check_d_descends),
        ]
        if include_arnold:
            checks.append(
                ("genus_zero_table", f"2<=n<={min(n_max, 7)}", self.check_arnold)
            )
        return [
            check_result(name, n_range, check(), *detail)
            for name, n_range, check, *detail in checks
        ]


def _path_products(n, q):
    """Products of path monomials g_{I_1}..g_{I_r} over disjoint ordered
    tuples, with q edges in total."""
    out = []

    def paths_on(indices, q_left, acc_gens):
        if q_left == 0:
            out.append(normalize(tuple(acc_gens)))
            return
        if not indices:
            return
        head = indices[0]
        # head unused
        paths_on(indices[1:], q_left, acc_gens)
        # head starts a path of length r edges (r <= q_left)
        rest = indices[1:]
        for r in range(1, q_left + 1):
            for others in permutations(rest, r):
                tup = (head,) + others
                gens = [G(tup[t], tup[t + 1]) for t in range(r)]
                remaining = [i for i in rest if i not in others]
                paths_on(remaining, q_left - r, acc_gens + gens)

    try:
        paths_on(list(range(1, n + 1)), q, [])
    finally:
        del paths_on  # the cell that lets paths_on recurse would hold it in a cycle
    return out


def run_selftest(n_max, include_arnold=True):
    """Execute the identity suite; returns a JSON-ready list of results, one
    :func:`conftorus.series.check_result` record per check.  A failing check stops at its
    first counterexample and names it."""
    suite = _Suite(n_max)
    return suite.run(include_arnold=include_arnold)
