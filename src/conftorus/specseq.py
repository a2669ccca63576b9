"""Invariant spectral-sequence computation on top of :mod:`gcalg`.

The S_n-invariant part of the E2 page is read off through coinvariants.  In
characteristic zero the averaging map V^{S_n} -> V -> V_{S_n} is an
isomorphism of complexes, so invariants and coinvariants have the same
dimensions and the same d-ranks, and taking either commutes with
cohomology.  Relations, group action and differential all preserve the
Hodge bidegree (a, b) = (#x + #g, #y + #g), so the work runs per Hodge
block, and :func:`assemble_page` reads off the surviving dimensions

    e3(p, q) = dim ker(d: (p,q) -> (p+2,q-1)) - dim im(d: (p-2,q+1) -> (p,q)),

which assemble into the Betti numbers of the unordered configuration space
and its mixed Hodge table.  Three sources feed it, and the tests compare
them block by block:

* :class:`MatchingEngine`, behind :func:`e3_dims` and the command line,
  keeps one class per S_n-orbit of decorated matchings, the only basis
  masks with coinvariants: n^2 + n + 1 live classes at n.
* :class:`SpectralEngine` is its oracle.  It eliminates every basis mask
  of every Hodge block with a <= b (:meth:`SpectralEngine.coinvariants`,
  :meth:`SpectralEngine.d_rank`), so its work grows with the (n+2)!/2
  quotient, and its bases check the vanishing the matching engine rests
  on.
* The fixed space itself, as the kernel of the two generating
  permutations on quotient coordinates (:meth:`SpectralEngine.invariants`),
  is kept as a reference.  The identity suite's fixed-space checks read
  only its dimension and its space; callers of
  :meth:`SpectralEngine.invariant_d_rank` and :func:`invariant_basis` read
  its vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property

from . import series as series_mod
from .gcalg import BidegreeSpace, Layout
from .linalg import (
    SignedUnionFind,
    SparseEchelon,
    add_terms,
    check_int,
    kernel_of_columns,
    rank_of_rows,
)

__all__ = [
    "NegativeE3Error",
    "InvariantSpace",
    "SpectralReport",
    "SpectralEngine",
    "MatchingEngine",
    "matching_words",
    "assemble_page",
    "invariant_basis",
    "e3_dims",
    "purity_check",
    "betti_and_hodge",
    "hodge_json",
    "verify_against_series",
]


class NegativeE3Error(ArithmeticError):
    """The d-ranks into and out of a Hodge block exceed its E2 dimension:
    the engine is inconsistent, and no table can be read off."""


@dataclass
class InvariantSpace:
    """Fixed vectors of one bidegree, in quotient coordinates: the
    reference E2 source, from :meth:`SpectralEngine.invariants`.

    ``blocks`` maps a Hodge bidegree (a, b) to a list of basis vectors, each
    a dict {basis mask: int} over ``space.quotient_basis``, the format of
    :meth:`BidegreeSpace.reduce`.  Outside the algebra the space is empty
    and so is ``blocks``.
    """

    n: int
    p: int
    q: int
    space: BidegreeSpace
    blocks: dict

    @property
    def dim(self):
        return sum(len(v) for v in self.blocks.values())


def hodge_json(hodge):
    """A Hodge table {(i, a, b): dim} in its JSON shape: one
    {"i", "a", "b", "dim"} record per entry, in key order."""
    return [
        {"i": i, "a": a, "b": b, "dim": d} for (i, a, b), d in sorted(hodge.items())
    ]


@dataclass
class SpectralReport:
    n: int
    e2_inv: dict = field(default_factory=dict)
    e3_inv: dict = field(default_factory=dict)
    e3_hodge: dict = field(default_factory=dict)  # (p,q,a,b) -> dim
    betti: list = field(default_factory=list)
    hodge: dict = field(default_factory=dict)  # (i,a,b) -> dim
    purity_ok: bool = True
    violations: list = field(default_factory=list)
    series_match: bool | None = None

    def to_json_dict(self):
        doc = {
            "n": self.n,
            "e2_inv": {f"{p},{q}": d for (p, q), d in sorted(self.e2_inv.items()) if d},
            "e3_inv": {f"{p},{q}": d for (p, q), d in sorted(self.e3_inv.items()) if d},
            "betti": list(self.betti),
            "hodge": hodge_json(self.hodge),
            "purity": self.purity_ok,
            "violations": [list(v) for v in self.violations],
            "series_match": self.series_match,
        }
        return doc

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _check_report(report):
    """Refuse a ``report`` that is not a :class:`SpectralReport`, by name."""
    if not isinstance(report, SpectralReport):
        raise TypeError(f"report must be a SpectralReport, got {report!r}")


class SpectralEngine:
    """The coinvariant engine, the oracle of :class:`MatchingEngine`.
    Caches bidegree spaces, which hold counts only, the coinvariant bases
    and the invariant data for one n.

    :meth:`report` reads the page off the coinvariants
    (:meth:`coinvariants`, :meth:`d_rank`), which relabel bit by bit and
    share no relabelling code with the matching engine.  :meth:`invariants`
    and :meth:`invariant_d_rank` compute the same dimensions from the fixed
    space, by a kernel and its back-substitution; they are the reference
    the tests compare against, and they serve :func:`invariant_basis`.
    """

    def __init__(self, n):
        self.n = n
        self.layout = Layout(n)
        self._spaces = {}
        self._bases = {}  # (p, q, (a, b)) -> coinvariant basis masks
        # (p, q, (a, b)) -> (sign classes, echelon rows), dropped once read
        self._relations = {}
        self._invariants = {}
        # (n-1 n) and the (n-1)-cycle (1 2 ... n-1) generate S_n: conjugating
        # the transposition by powers of the cycle gives every (i n).  They
        # move the largest labels or fix n, so they send more basis masks to
        # basis masks than (1 2) and the n-cycle, and fewer images need
        # reduce_mask.  Both E2 sources relabel bit by bit through their bit
        # tables (Layout.apply_perm), not through the matching engine's
        # Layout.relabel.
        self.generators = []
        if n >= 2:
            self.generators.append((*range(1, n - 1), n, n - 1))
        if n > 2:
            self.generators.append((*range(2, n), 1, n))
        self._perm_tables = [self.layout.perm_table(sigma) for sigma in self.generators]

    # -- spaces --------------------------------------------------------------

    def space(self, p, q) -> BidegreeSpace:
        """The quotient in bidegree (p, q); empty (dim 0) outside the
        algebra."""
        key = (p, q)
        if key not in self._spaces:
            self._spaces[key] = BidegreeSpace(self.n, p, q, layout=self.layout)
        return self._spaces[key]

    # -- coinvariants: the report's E2 source -----------------------------------

    def _eliminate(self, p, q, ab):
        space = self.space(p, q)
        masks = space.block(ab)
        members = set(masks)
        classes = SignedUnionFind()
        rest = []
        for table in self._perm_tables:
            for mask in masks:
                s, img = Layout.apply_perm(table, mask)
                if img in members:
                    # a basis mask is its own normal form: sigma . m = m
                    # says nothing, sigma . m = -m makes m zero
                    if img != mask or s != 1:
                        classes.union(mask, img, s)
                    continue
                # img is off the basis: the row reduce(s * img) - mask
                row = add_terms(space.reduce_mask(img, s), ((mask, -1),))
                if len(row) == 2:
                    (a, ca), (b, cb) = row.items()
                    if ca * cb in (1, -1):
                        classes.union(a, b, -ca * cb)
                        continue
                if row:
                    rest.append(row)
        # shortest first keeps fill-in down; the pivot set, and so the
        # basis, does not depend on the order
        ech = SparseEchelon()
        for row in sorted((classes.project(row.items()) for row in rest), key=len):
            ech.add_row(row)
        self._bases[(p, q, ab)] = [
            mask for mask in masks
            if mask not in classes.parent and mask not in classes.zero
            and mask not in ech.rows
        ]
        self._relations[(p, q, ab)] = (classes, ech.rows)

    def _basis(self, p, q, ab):
        if (p, q, ab) not in self._bases:
            self._eliminate(p, q, ab)
        return self._bases[(p, q, ab)]

    def coinvariants(self, p, q):
        """Coinvariant basis of bidegree (p, q): {(a, b): basis masks}, a
        plain dict that eliminates every Hodge block not yet eliminated.
        Blocks with no coinvariant are left out.

        The coinvariants of a Hodge block are its quotient by the rows
        ``reduce(sigma . m) - m``, for every basis mask m and each
        generating permutation sigma.  A row that says ``m = +-m'`` (most
        of them: sigma . m is often a basis mask itself) goes to a signed
        union-find, whose classes are represented by their smallest mask; a
        class whose masks must equal their own negative is zero, and a mask
        that a generator fixes with sign +1 says nothing.  sigma . m is
        taken bit by bit (:meth:`Layout.apply_perm`).  The other rows,
        rewritten onto the representatives, go to one forward echelon.
        The live representatives that are not pivots span the quotient;
        they are the masks a single echelon of every row would leave, since
        the max-column pivot set depends only on the span of the rows."""
        keys = self.space(p, q).block_keys
        return {ab: basis for ab in keys if (basis := self._basis(p, q, ab))}

    def _block_relations(self, p, q, ab):
        if (p, q, ab) not in self._relations:
            self._eliminate(p, q, ab)
        return self._relations[(p, q, ab)]

    def d_rank(self, p, q, ab):
        """Rank of d on coinvariants, from block (p, q, ab) to (p+2, q-1, ab):
        the d-images of the source coinvariant basis, in target quotient
        coordinates and projected onto the target's class representatives,
        and the rank they add to the target block's echelon rows.  Only
        these two blocks are eliminated.

        An arrow whose target is outside the algebra, below q = 0 or with
        more letters than the n - q + 1 components of its forests, has rank
        0, and no space is built for its target."""
        if q < 1 or p + 2 > self.n - q + 1:
            return 0
        source = self._basis(p, q, ab)
        target = self.space(p + 2, q - 1)
        classes, rows = self._block_relations(p + 2, q - 1, ab)
        images = []
        for mask in source:
            img = classes.project(
                term
                for m2, c2 in self.layout.differential_list(mask)
                for term in target.reduce_mask(m2, c2).items()
            )
            if img:
                images.append(img)
        return rank_of_rows(images, rows)

    # -- invariants: the reference E2 source ------------------------------------

    def invariants(self, p, q) -> InvariantSpace:
        """The fixed space of bidegree (p, q), as the kernel of the two
        generating permutations on quotient coordinates."""
        key = (p, q)
        if key in self._invariants:
            return self._invariants[key]
        space = self.space(p, q)
        lay = self.layout
        blocks = {}
        for ab, cols in space.blocks.items():
            constraint_cols = []
            for mask in cols:
                col = {}
                for tno, table in enumerate(self._perm_tables):
                    s, img = lay.apply_perm(table, mask)
                    vec = space.reduce_mask(img, s)
                    vec[mask] = vec.get(mask, 0) - 1
                    for m, v in vec.items():
                        if v:
                            col[(tno, m)] = v
                constraint_cols.append(col)
            kernel = kernel_of_columns(constraint_cols, len(cols))
            blocks[ab] = [
                {cols[j]: v for j, v in vec.items()} for vec in kernel
            ]
        inv = InvariantSpace(self.n, p, q, space, blocks)
        self._invariants[key] = inv
        return inv

    def invariant_d_rank(self, p, q, ab):
        """Rank of d on the fixed space, from block (p, q, ab) to
        (p+2, q-1, ab): the rank of the images of the invariant basis, as
        integer rows over the target quotient coordinates."""
        target = self.space(p + 2, q - 1)
        rows = []
        dcache = {}
        for vec in self.invariants(p, q).blocks.get(ab, []):
            img = {}
            for mask, c in vec.items():
                if mask not in dcache:
                    acc = {}
                    for m2, c2 in self.layout.differential_list(mask):
                        add_terms(acc, target.reduce_mask(m2, c2).items())
                    dcache[mask] = acc
                add_terms(img, ((m3, c * v) for m3, v in dcache[mask].items()))
            rows.append(img)
        return rank_of_rows(rows)

    # -- the report ---------------------------------------------------------------

    def report(self) -> SpectralReport:
        """The page read off the coinvariants, through :func:`assemble_page`.

        Only the Hodge blocks with a <= b are eliminated and ranked; the
        E2 dimension and the d-rank of each (b, a) block are those of its
        (a, b) block.  Let tau swap x_i with y_i and send g_ij to -g_ij.
        tau preserves the relations and commutes with each relabelling, and
        it sends d(g_ij) = -x_j y_i - x_i y_j to -d(g_ij) = d(tau g_ij).
        So tau carries block (p, q, a, b) onto (p, q, b, a) as a complex of
        S_n-modules, and the two have the same E2 dimension and d-ranks.

        Only the bidegrees inside the algebra are visited: 0 <= q <= n - 1
        (q = 0 at n = 0) and 0 <= p <= n - q, where the quotient has
        c(n, n - q) C(n - q, p) 2^p basis masks; it is zero everywhere else.
        They are visited by falling q, so the source (p-2, q+1) of the
        arrow into (p, q) is known when (p, q) is eliminated.  A source block
        (a, b) of that arrow is also a block of (p, q), since a + b =
        p + 2q on both sides; its arrow is the only d-rank that reads the
        sign classes and echelon rows of block (p, q, a, b), which are
        dropped once it is taken.  The arrows that leave the algebra, out of
        q = 0 and out of p = n - q, are taken through :meth:`d_rank` as
        well, which gives them rank 0."""
        n = self.n
        e2, ranks = {}, {}  # the a <= b entries
        for q in range(max(n - 1, 0), -1, -1):
            for p in range(n - q + 1):
                arrows = [(p - 2, q + 1)]  # into (p, q)
                if q == 0 or p == n - q:
                    arrows.append((p, q))  # (p + 2, q - 1) is outside the algebra
                for ab in self.space(p, q).block_keys:
                    if ab[0] > ab[1]:
                        continue
                    basis = self._basis(p, q, ab)
                    if basis:
                        e2[(p, q, ab)] = len(basis)
                    for sp, sq in arrows:
                        if (sp, sq, ab) in e2:
                            ranks[(sp, sq, ab)] = self.d_rank(sp, sq, ab)
                    self._relations.pop((p, q, ab), None)
        e2 |= {(p, q, (b, a)): d for (p, q, (a, b)), d in e2.items()}
        return assemble_page(n, e2, lambda p, q, ab: ranks[(p, q, tuple(sorted(ab)))])


# The six kinds of component of a decorated matching, in word order: bare,
# x- and y-points, then bare, x- and y-pairs; kind k carries letter k % 3
# (none, x, y) on k // 3 + 1 vertices.  A representative places the pairs
# first, on the smallest vertices, then the points, each kind in this order.
_PLACED = (3, 4, 5, 0, 1, 2)


def matching_words(n, once=()):
    """Every word of weight n, the six kind counts, in lexicographic order;
    a kind in ``once`` occurs at most once.  The last kind, y-pairs, takes
    the weight the others leave."""
    check_int(n, "n")
    words = [((), n)]  # (the counts so far, the weight left)
    for k in range(5):
        size, most = k // 3 + 1, 1 if k in once else n
        words = [(w + (c,), left - c * size)
                 for w, left in words for c in range(min(left // size, most) + 1)]
    most = 1 if 5 in once else n
    return [w + (left // 2,) for w, left in words if not left % 2 and left // 2 <= most]


class MatchingEngine:
    """The page from the S_n-orbits of decorated matchings.

    The quotient splits S_n-equivariantly over the set partitions that the
    g-forest's components make.  A component of k vertices carries
    sgn (x) Lie_k, whose trivial part is zero for k >= 3 (Lehrer-Solomon
    1986; Reutenauer 1993), so only decorated matchings have coinvariants,
    and d, which removes an edge, keeps them.  S_n permutes their basis
    masks up to sign, so the coinvariants of one orbit are one class, zero
    when a stabiliser generator of its representative sends it to its
    negative.  A kind that :meth:`odd_kinds` finds odd occurs at most once
    in a live word, and only those words are walked.

    A word's components and representative are built once.  A move moves
    at most 4 vertices and costs O(n) to write sigma, then O(1) per set bit
    on them (:meth:`Layout.relabel`); an image on the representative
    itself, as every like swap gives, is its own normal form, not reduced.
    """

    def __init__(self, n):
        self.n = n
        self.layout = Layout(n)
        # reduce_mask reads only the layout, not the bidegree of its space
        self._reduce = BidegreeSpace(n, 0, 0, layout=self.layout).reduce_mask
        self._identity = tuple(range(1, n + 1))

    def components(self, word):
        """The (kind, 0-based vertices) components of the representative of
        ``word``, in placement order on the vertices 0, 1, 2, ..."""
        comps, v = [], 0
        for k in _PLACED:
            size = k // 3 + 1
            for _ in range(word[k]):
                comps.append((k, (v,) if size == 1 else (v, v + 1)))
                v += size
        return comps

    def _mask(self, comps):
        """The basis mask of components, each letter on the smaller vertex."""
        lay, mask = self.layout, 0
        for k, vs in comps:
            if len(vs) == 2:
                mask |= 1 << lay.pair_bit[(vs[0] + 1, vs[1] + 1)]
            if k % 3:
                mask |= 1 << (lay.xbit0 + (k % 3 - 1) * self.n + vs[0])
        return mask

    def _image(self, mask, swaps):
        """reduce(sigma . mask) of a basis mask, sigma the identity with
        the disjoint vertex transpositions ``swaps``; an image on the mask
        itself is its own normal form, and is not reduced."""
        sigma = list(self._identity)
        for u, v in swaps:
            sigma[u], sigma[v] = v + 1, u + 1
        s, img = self.layout.relabel(sigma, mask)
        return {img: s} if img == mask else self._reduce(img, s)

    def _live_rep(self, word):
        """The representative of ``word``, or None when a stabiliser
        generator, the flip of the first pair of a kind or the swap of the
        first two components of a kind, sends it to its negative; the first
        such move ends the test."""
        comps = self.components(word)
        rep = self._mask(comps)
        dead = {rep: -1}
        for i, (k, vs) in enumerate(comps):
            if i and comps[i - 1][0] == k:
                continue  # not the first of its kind
            if len(vs) == 2 and self._image(rep, (vs,)) == dead:
                return None
            if i + 1 < len(comps) and comps[i + 1][0] == k:
                if self._image(rep, tuple(zip(vs, comps[i + 1][1]))) == dead:
                    return None
        return rep

    def is_zero(self, word):
        """Whether the class of ``word`` is zero, by :meth:`_live_rep`."""
        return self._live_rep(word) is None

    @classmethod
    @cache
    def odd_kinds(cls):
        """The kinds two of whose components make a zero class, by the
        zero test at n = 2 (two points) and n = 4 (two pairs)."""
        return tuple(
            k for k in range(6)
            if cls(2 * (k // 3 + 1)).is_zero(tuple(2 * (j == k) for j in range(6)))
        )

    @cached_property
    def blocks(self):
        """{(p, q, (a, b)): live representatives}."""
        lay, out = self.layout, {}
        for word in matching_words(self.n, self.odd_kinds()):
            rep = self._live_rep(word)
            if rep is not None:
                q = (rep & lay.gfull).bit_count()
                key = (rep.bit_count() - q, q, lay.hodge_bidegree(rep))
                out.setdefault(key, []).append(rep)
        return out

    def onto_rep(self, mask):
        """``(sign, representative)`` of a basis decorated matching: it is
        relabelled so that its components, by placement order and then
        smallest vertex, land on those of its word's representative."""
        lay, n = self.layout, self.n
        xs, ys = mask >> lay.xbit0, mask >> lay.ybit0
        comps, paired = [], 0
        g = mask & lay.gfull
        while g:
            i, j = lay.pairs[(g & -g).bit_length() - 1]
            g &= g - 1
            letter = (xs >> i - 1 & 1) + 2 * (ys >> i - 1 & 1)
            comps.append((_PLACED.index(3 + letter), i - 1, j - 1))
            paired |= 1 << i - 1 | 1 << j - 1
        comps += [(_PLACED.index((xs >> v & 1) + 2 * (ys >> v & 1)), v)
                  for v in range(n) if not paired >> v & 1]
        sigma = [0] * n
        for image, v in enumerate(v for c in sorted(comps) for v in c[1:]):
            sigma[v] = image + 1
        return lay.relabel(sigma, mask)

    def d_rank(self, p, q, ab):
        """Rank of d on classes, from block (p, q, ab) to (p + 2, q - 1,
        ab): each live representative's d, reduced term by term and
        relabelled onto the live representatives; a dead class is zero."""
        live = set(self.blocks.get((p + 2, q - 1, ab), ()))
        if not live:
            return 0
        rows = []
        for rep in self.blocks.get((p, q, ab), ()):
            row = {}
            for m, c in self.layout.differential_list(rep):
                for basis, c2 in self._reduce(m, c).items():
                    s, target = self.onto_rep(basis)
                    if target in live:
                        add_terms(row, ((target, s * c2),))
            rows.append(row)
        return rank_of_rows(rows)

    def report(self) -> SpectralReport:
        """The page of the live classes, through :func:`assemble_page`."""
        e2 = {key: len(reps) for key, reps in self.blocks.items()}
        return assemble_page(self.n, e2, self.d_rank)


def assemble_page(n, e2, d_rank) -> SpectralReport:
    """The report of one n from its E2 page and its d-ranks.

    ``e2`` maps (p, q, (a, b)) to the nonzero E2 dimension of that Hodge
    block; ``d_rank(p, q, ab)`` is the rank of d out of a block of ``e2``,
    into (p + 2, q - 1, ab).  Per block, E3 = E2 - out - into; a negative
    value raises :class:`NegativeE3Error`.  Blocks are visited by q, then
    p, then (a, b), and the first negative one is named.
    """
    order = sorted(e2, key=lambda key: (key[1], key[0], key[2]))
    rank_out = {key: d_rank(*key) for key in order}
    rep = SpectralReport(n=n)
    for key in order:
        p, q, ab = key
        rep.e2_inv[(p, q)] = rep.e2_inv.get((p, q), 0) + e2[key]
        e3 = e2[key] - rank_out[key] - rank_out.get((p - 2, q + 1, ab), 0)
        if e3 < 0:
            raise NegativeE3Error(
                f"negative E3 dimension at n={n}, (p, q) = ({p}, {q}), "
                f"(a, b) = {ab}"
            )
        if e3:
            rep.e3_inv[(p, q)] = rep.e3_inv.get((p, q), 0) + e3
            rep.e3_hodge[key] = e3
    rep.purity_ok, rep.violations = purity_check(rep)
    rep.betti, rep.hodge = betti_and_hodge(rep)
    return rep


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def invariant_basis(n, p, q) -> InvariantSpace:
    """Fixed space of the two generating permutations in bidegree (p, q)."""
    return SpectralEngine(n).invariants(p, q)


def e3_dims(n) -> SpectralReport:
    """Full invariant spectral report for one n, from the matching
    engine."""
    return MatchingEngine(n).report()


def purity_check(report: SpectralReport):
    """``(ok, violations)``: the sorted surviving bidegrees (p, q) off the
    weight line.

    (p, q) is pure when p - q is 0 or 1, which is exactly p + 2q = w(p + q),
    and each of its Hodge blocks has a + b = w(p + q); every basis monomial
    has a + b = #x + #y + 2#g = p + 2q.  Purity also makes E3 the last page:
    a d_r arrow (r >= 3) changes p - q by 2r - 1 >= 5, so no arrow joins two
    pure entries.
    """
    _check_report(report)
    bad = {(p, q) for (p, q), d in report.e3_inv.items() if d and p - q not in (0, 1)}
    bad |= {
        (p, q)
        for (p, q, (a, b)), d in report.e3_hodge.items()
        if d and a + b != series_mod.w(p + q)
    }
    violations = sorted(bad)
    return (not violations, violations)


def betti_and_hodge(report: SpectralReport):
    """Aggregate E3 dimensions into Betti numbers and the Hodge table.

    Purity is not checked here; :func:`purity_check` reports it.
    """
    _check_report(report)
    betti_map = {}
    for (p, q), d in report.e3_inv.items():
        betti_map[p + q] = betti_map.get(p + q, 0) + d
    hodge = {}
    for (p, q, (a, b)), d in report.e3_hodge.items():
        i = p + q
        hodge[(i, a, b)] = hodge.get((i, a, b), 0) + d
    top = max(betti_map, default=0)
    betti = [betti_map.get(i, 0) for i in range(top + 1)]
    return betti, hodge


def verify_against_series(n, report: SpectralReport | None = None):
    """Exact comparison of the engine output with the series decoders.

    Returns a dict with ``match`` plus both sides; every mismatch is listed.
    A report of another n is a ``ValueError``, not a mismatch, and an n
    or a report of the wrong type a ``TypeError``.
    """
    check_int(n, "n")
    if report is None:
        report = e3_dims(n)
    _check_report(report)
    if report.n != n:
        raise ValueError(f"report of n={report.n} checked against the series of n={n}")
    series_betti = series_mod.decode_betti(series_mod.conf_series_betti(n)[n], n)
    series_hodge = series_mod.decode_hodge(series_mod.conf_series_hodge(n)[n], n)
    mismatches = []
    if list(report.betti) != series_betti:
        mismatches.append(
            {"what": "betti", "engine": list(report.betti), "series": series_betti}
        )
    keys = set(report.hodge) | set(series_hodge)
    for key in sorted(keys):
        a, b = report.hodge.get(key, 0), series_hodge.get(key, 0)
        if a != b:
            i, pa, qb = key
            mismatches.append(
                {"what": f"hodge i={i} a={pa} b={qb}", "engine": a, "series": b}
            )
    return {
        "n": n,
        "match": not mismatches,
        "mismatches": mismatches,
        "engine_betti": list(report.betti),
        "series_betti": series_betti,
    }
