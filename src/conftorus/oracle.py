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
from array import array
from functools import partial
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
    check_int,
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
    nf: dict  # lead -> its normal form, a flat (key, coeff, ...) tuple
    extra: SparseEchelon


class ArnoldAlgebra:
    """Exterior algebra on the g_ij modulo the circuit relation, graded by
    the number of g factors.  Quotients are computed degree by degree; once
    a degree dies the algebra is zero above it (it is generated in degree
    one), and the top nonzero degree is checked to be at most n - 1.

    The relations of degree q are the multiples mu * r of the triangle
    relations r = g_ij g_ik - g_ij g_jk + g_ik g_jk, with mu a product of
    q - 2 other g's.  A monomial holding a whole triangle is zero, so only
    triangle-free monomials are enumerated: the generator :meth:`_walk`
    adds edges in increasing order from an explicit stack and yields each
    mask with its closing mask, the edges that would close a triangle on
    two edges already chosen.  A multiplier mu holding a triangle kills
    every term of mu * r and is never yielded.

    For a triangle-free mu disjoint from the triangle T, a term t of
    mu * r_T holds a triangle exactly when t meets closing(mu): a triangle
    with one edge in t has its other two in mu, and the only triangle with
    two edges in t is T, whose third edge mu misses.  Each edge of T lies
    in two of the three terms, so a row keeps 3, 1 or 0 terms.  One walk
    over the multipliers puts the monomial of every 1-term row in the set
    ``zero`` and stores every 3-term row as a code mu * R + k, R the number
    of triangles and T the k-th, in an unsigned 64-bit array (a list past
    n = 11, where the codes outgrow 64 bits).  The terms of r_T rise, so
    once ``zero`` is whole, the lead of a row, its last term that is not a
    zero monomial, is read from its code without building the row; a row
    stripped of every term has no lead and is never built.  The first row
    with each lead is kept and the others are deferred;
    :func:`_eliminate` turns the kept rows into normal forms, smallest lead
    first, and reduces every deferred row by them, as in Faugere's F4: one
    fixed set of reducers, computed once, and no chain of echelon steps.
    What a deferred row leaves goes to the echelon ``extra``.  No row is
    assumed to reduce to zero: every remainder is computed (for n <= 7 each
    is empty, so ``extra`` stays empty).  The basis is every triangle-free
    monomial that is neither zero, nor a lead, nor a pivot of ``extra``.

    A degree is cached until :meth:`invariant_dim` reads it, then dropped,
    so :func:`arnold_conf_betti` holds one degree at a time and no
    caller that reads every quotient dimension first builds one twice.

    At n = 7 the degrees q = 2..7 build 142,345 rows, 63,000 of them at
    the empty degree 7 (13,860 more multiples there lose every term).  The
    47,065 kept rows are the whole rank; each of the other 95,280 reads at
    most three normal forms and leaves no remainder.  Built, the n = 7
    degrees hold 13.0 MB together (tracemalloc), degree 6 the most at
    5.3 MB, 6.8 MB at its peak while it is built.  On a 2-vCPU Linux
    container (CPython 3.11) ``arnold_conf_betti(n)`` for n = 2..7 takes
    1.3-1.9 s, of which degree 7 takes 0.35-0.45 s; for n = 8 it takes
    36 s at 185 MB peak RSS."""

    def __init__(self, n):
        check_int(n, "n")
        self.n = n
        self.pairs = [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ]
        self.bit = {p: b for b, p in enumerate(self.pairs)}
        self.npairs = len(self.pairs)
        # the terms (t, c, lo, hi) of r_T, lo and hi the positions just past
        # the two bits of t; and per edge e the wedges (f, g) as bits: f < e
        # shares a vertex with e and g closes the triangle on e and f
        self._relations = []
        self._wedges = [[] for _ in self.pairs]
        for i, j, k in combinations(range(1, n + 1), 3):
            eij, eik, ejk = (1 << self.bit[p] for p in ((i, j), (i, k), (j, k)))
            tri = eij | eik | ejk
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

    def _walk(self, q):
        """Yield ``(mask, closing)`` once for every triangle-free mask of q
        edges, in lexicographic order of their edge lists; ``closing`` holds
        the edges that would close a triangle on two edges of ``mask``."""
        if q < 0:
            return
        wedges, top = self._wedges, self.npairs
        # (first edge to try, mask, closing, edges left); the children of a
        # mask are pushed highest edge first, so the lowest is popped first
        stack = [(0, 0, 0, q)]
        while stack:
            start, mask, closing, left = stack.pop()
            if not left:
                yield mask, closing
                continue
            for e in range(top - left, start - 1, -1):
                if closing >> e & 1:
                    continue
                grown = closing
                for f, g in wedges[e]:
                    if mask & f:
                        grown |= g
                stack.append((e + 1, mask | 1 << e, grown, left - 1))

    def degree(self, q) -> _Degree:
        check_int(q, "q", negative_ok=True)
        if q in self._degrees:
            return self._degrees[q]
        relations = self._relations
        nrel = len(relations)
        # mu * nrel + k names the row mu * r_T of the k-th triangle T; codes
        # fit 64 bits up to n = 11, and a list holds them past it
        zero, codes = set(), array("Q") if nrel << self.npairs <= 1 << 64 else []
        for mu, closing in self._walk(q - 2):
            blocked, base = mu | closing, mu * nrel
            for k, (tri, _) in enumerate(relations):
                if not tri & blocked:
                    codes.append(base + k)
                    continue
                hit = tri & closing
                # one edge of T closed: only the term without it survives
                if hit and not hit & (hit - 1) and not tri & mu:
                    zero.add(mu | tri ^ hit)
        # the terms of r_T rise, and mu misses T, so the lead of mu * r_T
        # is its last term that is not a zero monomial
        tops = [[t for t, *_ in reversed(terms)] for _, terms in relations]
        kept, deferred = {}, codes[:0]
        for code in codes:
            mu, k = divmod(code, nrel)
            for t in tops[k]:
                lead = mu | t
                if lead not in zero:
                    if lead in kept:
                        deferred.append(code)
                    else:
                        kept[lead] = code
                    break
        del codes  # before the normal forms are built, to lower the peak
        extra = SparseEchelon()
        nf = _eliminate(kept, deferred, partial(self._row, zero), extra)
        basis = [
            mask for mask, _ in self._walk(q)
            if mask not in zero and mask not in nf and mask not in extra.rows
        ]
        deg = _Degree(len(basis), tuple(sorted(basis)), zero, nf, extra)
        self._degrees[q] = deg
        return deg

    def _row(self, zero, code):
        """The row mu * r_T named by ``code``, stripped of its zero
        monomials, as (monomial, coefficient) pairs in increasing order."""
        relations = self._relations
        mu, k = divmod(code, len(relations))
        row = []
        for t, c, lo, hi in relations[k][1]:
            prod = mu | t
            if prod not in zero:
                # sorting mu . t moves each bit of t past the bits of mu
                # above it
                parity = ((mu >> lo).bit_count() + (mu >> hi).bit_count()) & 1
                row.append((prod, -c if parity else c))
        return row

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
        of the fixed space.  Each row is written as sign * NF(sigma . m) - m
        with the degree's normal forms, and the rank the rows add to its
        ``extra`` is the codimension of the coinvariants in the quotient.
        The degree is dropped once read."""
        deg = self.degree(q)
        del self._degrees[q]
        rows = []
        for mask in deg.basis:
            for table in self._perm_tables:
                # sigma is an automorphism, so sigma . m is never a zero monomial
                sign, img = self._relabel(table, mask)
                rows.append(_reduce(deg.nf, ((img, sign), (mask, -1))))
        return deg.dim - rank_of_rows(rows, deg.extra.rows)


def _reduce(forms, pairs):
    """The sum of v * NF(c) over the ``(c, v)`` pairs, as a row that holds
    no zero.  NF(c) is ``forms[c]``, a flat ``(key, coeff, key, coeff,
    ...)`` tuple, where ``forms`` holds c, and c itself where it does not."""
    acc = {}
    get, fget = acc.get, forms.get
    for c, v in pairs:
        form = fget(c)
        if form is None:
            acc[c] = get(c, 0) + v
        else:
            it = iter(form)
            for k, w in zip(it, it):
                acc[k] = get(k, 0) + v * w
    return {k: w for k, w in acc.items() if w}


def _eliminate(kept, deferred, row_of, extra):
    """Reduce every row against one fixed set of reducers, the kept rows,
    as in Faugere's F4; returns their normal forms, {lead: NF(lead)}.

    ``kept`` maps a lead to the first row with it and ``deferred`` lists
    the others, each row as a handle that ``row_of`` builds into its
    (key, coefficient) pairs in increasing order, the lead last, its entry
    s = +-1.  The kept row with lead p gives NF(p) = -s * sum v * NF(c)
    over its other terms v * c: exact, with no division.  Leads are taken
    smallest first, so every NF(c) it reads is final and no key of a
    normal form is a lead.  Each deferred row is built and summed over the
    normal forms of its terms; what is left goes to the echelon ``extra``."""
    forms = {}
    for p in sorted(kept):
        *rest, (_, s) = row_of(kept[p])
        form = []
        for key, v in _reduce(forms, rest).items():
            form += (key, -s * v)
        forms[p] = tuple(form)
    for handle in deferred:
        remainder = _reduce(forms, row_of(handle))
        if remainder:
            extra.add_row(remainder)
    return forms


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


def _v_monomials(free, xs, ys, xpairs, ypairs):
    """The V(n) monomials that extend xs, ys, xpairs and ypairs by a choice
    for every index in ``free``.  Each step decides the fate of the smallest
    free index, so every monomial is reached by exactly one path, with its
    tuples sorted."""
    if not free:
        yield VMonomial(xs, ys, xpairs, ypairs)
        return
    head, tail = free[0], free[1:]
    yield from _v_monomials(tail, xs, ys, xpairs, ypairs)  # unused
    yield from _v_monomials(tail, xs + (head,), ys, xpairs, ypairs)
    yield from _v_monomials(tail, xs, ys + (head,), xpairs, ypairs)
    for t, partner in enumerate(tail):
        remaining = tail[:t] + tail[t + 1 :]
        yield from _v_monomials(remaining, xs, ys, xpairs + ((head, partner),), ypairs)
        yield from _v_monomials(remaining, xs, ys, xpairs, ypairs + ((head, partner),))


def v_basis(n):
    """All index-disjoint monomials on {1..n}, every degree."""
    check_int(n, "n")
    return list(_v_monomials(tuple(range(1, n + 1)), (), (), (), ()))


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
    """The first key failing part (a) or (b) of
    :meth:`_Suite.check_dd_zero` in this layout, or None."""
    dlist = lay.differential_list
    ysets = [b << lay.ybit0 for b in range(1 << lay.n)]
    # a term c.T of d(G) is its g-part times letters a, all g-bits below
    # every letter, so its product with Y is c times the sign of a.Y (0 if
    # they meet); cols[a, c] lists that coefficient for each Y in ysets
    cols = {}
    for g in range(lay.gfull + 1):
        terms = dlist(g)
        dd = ((m3, c2 * c3) for m2, c2 in terms for m3, c3 in dlist(m2))
        if add_terms({}, dd):
            return g
        split = []
        for t, c in terms:
            a = t & ~lay.gfull
            if (a, c) not in cols:
                cols[a, c] = [c * lay.merge(a, ys)[0] for ys in ysets]
            split.append((t, cols[a, c]))
        for b, ys in enumerate(ysets):
            want = [(t | ys, col[b]) for t, col in split if col[b]]
            # d(G|Y) lists its terms in the order of d(G), so a passing key
            # matches list for list; the fallback forgives only the order
            got = dlist(g | ys)
            if got != want and add_terms({}, got) != dict(want):
                return g | ys
    return None


class _Suite:
    """The identity suite.  Each ``check_*`` returns its first
    counterexample, in its own iteration order, as a string, or None when
    the identity holds; :meth:`run` turns them into result records.

    ``CHECKS`` lists the records in their order: the record's name, its
    check, the smallest and the largest n the check runs at (its cap), its
    ``n_range`` with ``{}`` for the largest n it checks, min(n_max, cap),
    and the detail of a pass, if it has one."""

    CHECKS = (
        ("d_squared_zero", "check_dd_zero", 2, 5, "n<={}"),
        ("equivariance_of_d", "check_equivariance", 2, 5, "n<={}"),
        ("cycle_vanishing", "check_cycle_vanishing", 2, 5, "2<=r<=n<={}"),
        # the 3-star identity lives at n = 4
        ("tree_to_path", "check_tree_to_path", 4, 5, "n<={}",
         "g(1,2)g(2,3)g(2,4) = g_{1,2,3,4} - g_{1,2,4,3}"),
        ("symmetrizer_annihilation", "check_symmetrizer_annihilation", 2, 5, "n<={}"),
        ("path_annihilation", "check_path_annihilation", 3, 5, "r>=3, n<={}"),
        ("canonical_spanning", "check_canonical_spanning", 2, 4, "n<={}"),
        ("symmetrizer_image_is_fixed_space", "check_fixed_space_agreement", 2, 4,
         "n<={}"),
        ("left_inverse_and_relation_annihilation", "check_rel6", 0, 5, "n<={}"),
        ("disjoint_pair_classes_nonzero", "check_rel7_nonvanishing", 2, 5, "n<={}"),
        ("canonical_kernel_dichotomy", "check_kernel_dichotomy", 2, 5, "n<={}"),
        ("boundary_property", "check_boundary_property", 2, 5, "n<={}"),
        ("differential_descends_to_quotient", "check_d_descends", 2, 3, "n<={}"),
        ("genus_zero_table", "check_arnold", 2, 7, "2<=n<={}"),
    )
    _SPANS = {check: (low, cap) for _, check, low, cap, *_ in CHECKS}

    def __init__(self, n_max):
        check_int(n_max, "n_max")
        self.n_max = n_max
        self._engines = {}

    def engine(self, n):
        from .specseq import SpectralEngine

        if n not in self._engines:
            self._engines[n] = SpectralEngine(n)
        return self._engines[n]

    def ns(self, check):
        """The n that the check named ``check`` runs at, from its smallest
        n to min(n_max, its cap); empty when n_max is below its smallest."""
        low, cap = self._SPANS[check]
        return range(low, min(self.n_max, cap) + 1)

    # -- individual checks ---------------------------------------------------

    def check_dd_zero(self):
        """d(d(m)) = 0 on the keys of each n of its range: a key is a
        g-part G times a set Y of y-letters, and each key is asked of
        ``Layout.differential_list`` once.

        (a) d(d(G)) = 0 for every pure g-part G, two levels deep.
        (b) d(G|Y) = d(G).Y for every key, the right side multiplying each
            term of d(G) by Y with ``Layout.merge``.  d(G|Y) lists its terms
            in the order of d(G), so the lists are compared whole, and only
            a key whose lists differ is compared up to the order of terms.

        The same identity d(G|L) = d(G).L for a letter set L that holds
        x-letters is checked on every free mask by comparing
        ``differential_list`` with ``merge`` directly, in tier-1 for n <= 4
        and in CI for n = 5.  With it, for every free mask:
            d(d(G|L)) = d(d(G).L)      for G|L,
                      = d(d(G)).L      for each term of d(G),
                      = 0              by (a).
        """
        for n in self.ns("check_dd_zero"):
            lay = Layout(n)
            mask = _dd_counterexample(lay)
            if mask is not None:
                return str(lay.decode(mask))
        return None

    def check_equivariance(self):
        rng = random.Random(20210405)
        for n in self.ns("check_equivariance"):
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
        for n in self.ns("check_cycle_vanishing"):
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
        """The 3-star identity at n = 4, then the path span from n = 2."""
        sp = BidegreeSpace(4, 0, 3)
        lhs = Element.from_monomial(normalize((G(1, 2), G(2, 3), G(2, 4))))
        p1 = Element.from_monomial(normalize((G(1, 2), G(2, 3), G(3, 4))))
        p2 = Element.from_monomial(normalize((G(1, 2), G(2, 4), G(4, 3))))
        if sp.reduce(lhs - (p1 - p2)):
            return "3-star identity failed"
        # spanning-rank equality: path products span every pure-g bidegree
        for nn in range(2, self.ns("check_tree_to_path").stop):
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
        for n in self.ns("check_symmetrizer_annihilation"):
            if symmetrize(Element.from_generators(X(1), X(2)), n):
                return f"e(x1x2) != 0 at n={n}"
            if n >= 4 and symmetrize(Element.from_generators(G(1, 2), G(3, 4)), n):
                return f"e(g12g34) != 0 at n={n}"
        return None

    def check_path_annihilation(self):
        for n in self.ns("check_path_annihilation"):
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

    def _first_deficient_bidegree(self, ns, elements):
        """The first invariant space of the engine, for n in ``ns``, that
        the symmetrized ``elements(inv)`` do not span, or None."""
        for n in ns:
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
        for n in self.ns("check_canonical_spanning"):
            for shape in _canonical_shapes(n):
                by_bidegree.setdefault((n, shape["bidegree"]), []).append(
                    shape["element"]
                )
        return self._first_deficient_bidegree(
            self.ns("check_canonical_spanning"),
            lambda inv: by_bidegree.get((inv.n, (inv.p, inv.q)), []),
        )

    def check_fixed_space_agreement(self):
        return self._first_deficient_bidegree(
            self.ns("check_fixed_space_agreement"),
            lambda inv: [
                Element.from_monomial(inv.space.layout.decode(mask))
                for mask in inv.space.quotient_basis
            ]
        )

    def check_rel6(self):
        rng = random.Random(997)
        for n in self.ns("check_rel6"):
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
        for n in self.ns("check_rel7_nonvanishing"):
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
        for n in self.ns("check_kernel_dichotomy"):
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
        for n in self.ns("check_boundary_property"):
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
        for n in self.ns("check_d_descends"):
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
        for n in self.ns("check_arnold"):
            try:
                dims = arnold_conf_betti(n)
            except AssertionError as err:
                return str(err)
            expected = [1, 1] + [0] * (len(dims) - 2)
            if dims != expected:
                return f"n={n}: {dims}"
        return None

    def run(self, include_arnold=True):
        """The result records, in the order of ``CHECKS``.  A check whose
        range is empty passes as skipped, with the range it would cover."""
        records = []
        for name, check, low, cap, n_range, *detail in self.CHECKS:
            if check == "check_arnold" and not include_arnold:
                continue
            ns = self.ns(check)
            if ns:
                record = check_result(name, n_range.format(ns[-1]),
                                      getattr(self, check)(), *detail)
            else:
                record = check_result(name, f"n={low}..{cap}", None,
                                      f"skipped below n={low}")
            records.append(record)
        return records


def _paths_on(indices, q_left, acc_gens):
    """The products of ``acc_gens`` with paths on disjoint ordered tuples
    of ``indices``, q_left edges in all, each normalized."""
    if q_left == 0:
        yield normalize(tuple(acc_gens))
        return
    if not indices:
        return
    head, rest = indices[0], indices[1:]
    yield from _paths_on(rest, q_left, acc_gens)  # head unused
    # head starts a path of length r edges (r <= q_left)
    for r in range(1, q_left + 1):
        for others in permutations(rest, r):
            tup = (head,) + others
            gens = [G(tup[t], tup[t + 1]) for t in range(r)]
            remaining = [i for i in rest if i not in others]
            yield from _paths_on(remaining, q_left - r, acc_gens + gens)


def _path_products(n, q):
    """Products of path monomials g_{I_1}..g_{I_r} over disjoint ordered
    tuples, with q edges in total."""
    return list(_paths_on(list(range(1, n + 1)), q, []))


def run_selftest(n_max, include_arnold=True):
    """Execute the identity suite; returns a JSON-ready list of results, one
    :func:`conftorus.series.check_result` record per check.  A failing check stops at its
    first counterexample and names it.  A negative ``n_max`` is a
    ``ValueError``: every check would pass on an empty range; one that is
    not an ``int`` (a bool, a float, a string) is a ``TypeError``."""
    suite = _Suite(n_max)
    return suite.run(include_arnold=include_arnold)
