"""The bigraded-commutative algebra of n labelled points on a punctured
torus, realized by exact quotient linear algebra per bidegree.

Generators, all odd of total degree 1:

    x_i, y_i  (1 <= i <= n)      bidegree (1, 0), Hodge type (1,0) / (0,1)
    g_ij      (1 <= i < j <= n)  bidegree (0, 1), Hodge type (1, 1)

A monomial is a squarefree product; its normal form lists generators in the
order g-block < x-block < y-block (lex inside blocks) with a Koszul sign.
The defining relations, imposed per bidegree as a linear subspace of the
free span:

    (R1)  g_ij g_ik - g_ij g_jk + g_ik g_jk = 0        for i < j < k
    (R2)  g_ij x_i = g_ij x_j   and   g_ij y_i = g_ij y_j
    (R3)  x_i y_i = 0

The sign pattern of (R1) is the unique one whose span is stable under
relabelling indices; it pins down the circuit relation of the braid
arrangement once products are Koszul-normalized.

The differential is the graded derivation with d(x_i) = d(y_i) = 0 and

    d(g_ij) = y_i x_j - x_i y_j = -(x_j y_i) - (x_i y_j)   in normal form,

of bidegree (+2, -1); the symmetric group acts by relabelling indices.

Monomials are encoded as bitmasks inside a :class:`BidegreeSpace`: pair bits
first (lex), then x bits, then y bits, matching the normal-form order, so
Koszul signs are popcount computations.

Quotient coordinates come from a direct normal form rather than from
eliminating relation multiples.  A monomial vanishes when its g-edges contain
a cycle, or when one component of the graph they span carries two letters
(after (R2) moves them to the same vertex, (R3) or an odd square kills
them).  Otherwise (R2) moves every letter to the smallest vertex of its
component, and (R1), read as

    g_ik g_jk = g_ij g_jk - g_ij g_ik        for i < j < k,

rewrites the forest until every vertex has at most one smaller neighbour.
Each step lowers the mask, so the rewriting ends, and every coefficient is
an integer.  The forests it ends in, with one letter from {1, x, y} on the
smallest vertex of each component, are the no-broken-circuit basis of the
braid arrangement (Orlik-Solomon 1980; Bjorner 1992): c(n, n-q) C(n-q, p) 2^p
of them in bidegree (p, q), where c is the unsigned Stirling number of the
first kind.  The test suite checks the normal form against a dense
elimination of every relation multiple for small n.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, permutations
from math import comb
from typing import NamedTuple, Optional

from .linalg import add_terms

__all__ = [
    "Generator",
    "G",
    "X",
    "Y",
    "Monomial",
    "Element",
    "normalize",
    "free_basis",
    "relation_span",
    "BidegreeSpace",
    "LazyBlocks",
    "differential",
    "sn_act",
    "symmetrize",
    "multiply",
    "Layout",
    "Relabelling",
]


class Generator(NamedTuple):
    """One odd generator; kind is 'g', 'x' or 'y' (their sort order)."""

    kind: str
    i: int
    j: int = 0

    def __str__(self):
        if self.kind == "g":
            sep = "_" if self.j > 9 else ""
            return f"g{self.i}{sep}{self.j}"
        return f"{self.kind}{self.i}"


def G(i, j):
    if i == j:
        raise ValueError("g_ii is not a generator")
    if i > j:
        i, j = j, i
    return Generator("g", i, j)


def X(i):
    return Generator("x", i)


def Y(i):
    return Generator("y", i)


@dataclass(frozen=True)
class Monomial:
    """Normal-form squarefree product of generators with a sign."""

    gens: tuple
    sign: int = 1

    @property
    def bidegree(self):
        q = sum(1 for g in self.gens if g.kind == "g")
        return (len(self.gens) - q, q)

    @property
    def hodge_bidegree(self):
        a = sum(1 for g in self.gens if g.kind in ("g", "x"))
        b = sum(1 for g in self.gens if g.kind in ("g", "y"))
        return (a, b)

    def __str__(self):
        body = ".".join(str(g) for g in self.gens) if self.gens else "1"
        return ("-" if self.sign < 0 else "") + body


def normalize(gens, sign=1) -> Optional[Monomial]:
    """Sort a generator sequence, tracking the Koszul sign.

    Returns None when a generator repeats (odd squares vanish).
    """
    seq = list(gens)
    for i in range(1, len(seq)):
        item = seq[i]
        j = i
        while j > 0 and seq[j - 1] > item:
            seq[j] = seq[j - 1]
            j -= 1
            sign = -sign
        seq[j] = item
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return None
    return Monomial(tuple(seq), sign)


def _exact(v):
    """``v`` itself when it is an ``int``; anything else, a ``Fraction``, a
    float or a ``bool``, is a ``TypeError``."""
    if type(v) is not int:
        raise TypeError(f"coefficient {v!r} is not an int")
    return v


class Element:
    """Sparse integer combination of normal-form monomials."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _exact(v)
                if v:
                    self.coeffs[k] = v

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_monomial(cls, m: Optional[Monomial], coeff=1):
        e = cls()
        if m is not None:
            c = _exact(coeff) * m.sign
            if c:
                e.coeffs[m.gens] = c
        return e

    @classmethod
    def from_generators(cls, *gens):
        return cls.from_monomial(normalize(gens))

    def terms(self):
        """Iterate (Monomial, coefficient) with positive monomial signs."""
        for gens, c in sorted(self.coeffs.items()):
            yield Monomial(gens), c

    def __add__(self, other):
        out = Element()
        out.coeffs = add_terms(dict(self.coeffs), other.coeffs.items())
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _exact(c)
        out = Element()
        if c:
            out.coeffs = {k: v * c for k, v in self.coeffs.items()}
        return out

    def __eq__(self, other):
        return isinstance(other, Element) and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def bidegree(self):
        degs = {Monomial(g).bidegree for g in self.coeffs}
        if len(degs) != 1:
            raise ValueError("element is zero or not homogeneous")
        return degs.pop()

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for m, c in self.terms():
            if c == 1:
                bits.append(str(m))
            elif c == -1:
                bits.append("-" + str(m))
            else:
                bits.append(f"{c}*{m}")
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


def multiply(m: Monomial, e: Element) -> Element:
    """Left product of a monomial with an element."""
    out = Element()
    prods = ((normalize(m.gens + gens, m.sign), c) for gens, c in e.coeffs.items())
    add_terms(out.coeffs, ((p.gens, c * p.sign) for p, c in prods if p is not None))
    return out


def differential(e: Element) -> Element:
    """Graded derivation: d(g_ij) = y_i x_j - x_i y_j, d(x)=d(y)=0.

    Leibniz is applied left to right: d(ab) = d(a) b + (-1)^{deg a} a d(b).
    """
    out = Element()
    for gens, c in e.coeffs.items():
        for pos, gen in enumerate(gens):
            if gen.kind != "g":
                continue
            rest = gens[:pos] + gens[pos + 1 :]
            prefix_sign = -1 if pos % 2 else 1
            for repl, s in (
                ((X(gen.j), Y(gen.i)), -1),
                ((X(gen.i), Y(gen.j)), -1),
            ):
                prod = normalize(rest + repl)
                if prod is not None:
                    coeff = c * s * prefix_sign * prod.sign
                    add_terms(out.coeffs, [(prod.gens, coeff)])
    return out


def sn_act(sigma, e: Element) -> Element:
    """Relabel indices by the permutation ``sigma`` (tuple, sigma[i-1] image
    of i) and renormalize."""

    def relabel(gen):
        if gen.kind == "g":
            return G(sigma[gen.i - 1], sigma[gen.j - 1])
        return Generator(gen.kind, sigma[gen.i - 1])

    out = Element()
    images = (
        (normalize(tuple(relabel(g) for g in gens)), c) for gens, c in e.coeffs.items()
    )
    add_terms(out.coeffs, ((m.gens, c * m.sign) for m, c in images))
    return out


def symmetrize(e: Element, n: int) -> Element:
    """Sum of sigma . e over the permutations sigma of 1..n: n! times the
    averaging projector, so the coefficients stay integers."""
    total = Element()
    for perm in permutations(range(1, n + 1)):
        add_terms(total.coeffs, sn_act(perm, e).coeffs.items())
    return total


# ---------------------------------------------------------------------------
# bitmask layout and the bidegree quotient spaces
# ---------------------------------------------------------------------------


_SIGN = (-1, 1)  # coefficient of a d-term by the parity of its sign count


class Layout:
    """Bit layout for monomial masks at a fixed n.

    Bits 0..G-1: pairs (i<j) in lex order; then n x-bits; then n y-bits.
    Bit order coincides with monomial normal form, so Koszul signs of
    products are popcount parities of bit interleavings.
    """

    def __init__(self, n):
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        self.n = n
        self.pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        self.npairs = len(self.pairs)
        self.pair_bit = {p: b for b, p in enumerate(self.pairs)}
        self.xbit0 = self.npairs
        self.ybit0 = self.npairs + n
        self.nbits = self.npairs + 2 * n
        self.gfull = (1 << self.npairs) - 1  # all pair bits
        self._forms = {}  # g-part -> forest_form(g-part)
        # per pair bit of g_ij: the letter masks of x_j y_i and of x_i y_j,
        # each paired with the mask of the bits strictly between its letters
        self._d_terms = {}
        for b, (i, j) in enumerate(self.pairs):
            self._d_terms[1 << b] = [
                ((1 << bx) | (1 << by), (1 << by) - (2 << bx))
                for bx, by in ((self.xbit0 + j - 1, self.ybit0 + i - 1),
                               (self.xbit0 + i - 1, self.ybit0 + j - 1))
            ]
        self._gy = self.gfull | (((1 << n) - 1) << self.ybit0)  # g- and y-bits
        self._d_last = (-1, [])  # (g- and y-bits of a mask, their d-terms)
        self._forests = (None, [])  # (q, increasing_forests(q)) last built

    # -- encoding ----------------------------------------------------------

    def gen_bit(self, gen: Generator):
        if gen.kind == "g":
            return self.pair_bit[(gen.i, gen.j)]
        if gen.kind == "x":
            return self.xbit0 + gen.i - 1
        return self.ybit0 + gen.i - 1

    def bit_gen(self, b):
        if b < self.npairs:
            i, j = self.pairs[b]
            return G(i, j)
        if b < self.ybit0:
            return X(b - self.xbit0 + 1)
        return Y(b - self.ybit0 + 1)

    def encode(self, m: Monomial):
        mask = 0
        for gen in m.gens:
            mask |= 1 << self.gen_bit(gen)
        return mask

    def decode(self, mask, sign=1):
        gens = []
        while mask:
            b = (mask & -mask).bit_length() - 1
            gens.append(self.bit_gen(b))
            mask &= mask - 1
        return Monomial(tuple(gens), sign)

    # -- arithmetic on masks -------------------------------------------------

    @staticmethod
    def merge(m1, m2):
        """Product of two normal-form masks: (sign, mask) or (0, None)."""
        if m1 & m2:
            return 0, None
        inv = 0
        m = m2
        while m:
            b = (m & -m).bit_length() - 1
            inv += (m1 >> (b + 1)).bit_count()
            m &= m - 1
        return (-1 if inv & 1 else 1), m1 | m2

    def hodge_bidegree(self, mask):
        q = (mask & self.gfull).bit_count()
        x = (mask >> self.xbit0) & ((1 << self.n) - 1)
        y = mask >> self.ybit0
        return (x.bit_count() + q, y.bit_count() + q)

    def perm_table(self, sigma):
        """Bit image table of a relabelling permutation."""
        table = [0] * self.nbits
        for b in range(self.nbits):
            gen = self.bit_gen(b)
            if gen.kind == "g":
                pair = tuple(sorted((sigma[gen.i - 1], sigma[gen.j - 1])))
                table[b] = self.pair_bit[pair]
            elif gen.kind == "x":
                table[b] = self.xbit0 + sigma[gen.i - 1] - 1
            else:
                table[b] = self.ybit0 + sigma[gen.i - 1] - 1
        return table

    @staticmethod
    def sort_bits(bits):
        """Koszul sort of distinct bit positions: ``(sign, mask)``, where
        ``sign`` is the sign of the permutation that orders ``bits``.

        One pass: each position adds the number of earlier positions above
        it, read off the mask of the earlier ones.  The positions must be
        distinct (a repeat would be lost in the mask); every caller
        (``apply_perm``, the letter table of :class:`Relabelling` and
        ``BidegreeSpace.reduce_mask``) passes distinct ones."""
        inv = mask = 0
        for b in bits:
            inv += (mask >> b).bit_count()
            mask |= 1 << b
        return (-1 if inv & 1 else 1), mask

    @staticmethod
    def apply_perm(table, mask):
        """Relabel a mask bit by bit; returns (sign, mask').  The reference
        for :class:`Relabelling`, which fills its g-part memo with it."""
        imgs = []
        m = mask
        while m:
            b = (m & -m).bit_length() - 1
            imgs.append(table[b])
            m &= m - 1
        return Layout.sort_bits(imgs)

    def differential_mask(self, mask):
        """d of a normal-form mask as a list of (mask', int coeff).

        The g-bit of g_ij is replaced by -(x_j y_i) and by -(x_i y_j).  Each
        term carries the Leibniz sign (-1)^(g-bits of the mask below it) and
        the Koszul sign of moving its two letters into place, (-1)^(letters
        of the mask strictly between them).  Distinct (g-bit, term) pairs
        give distinct masks, so no two terms combine.

        The terms of the mask's g-part and y-letters (term mask without the
        x-letters, its letters, the bits between them, the sign parity of
        the g-bits below and the y-letters between) are kept for the last
        such pair only.  A sweep over one g-part's letter sets with the
        x-letters varying fastest reuses them, and the memo never grows.
        """
        key = mask & self._gy
        if self._d_last[0] != key:
            g = mask & self.gfull
            ys = key ^ g
            terms = []
            pos = 0  # parity of the g-bits below the current one
            m = g
            while m:
                low = m & -m
                m ^= low
                for add, between in self._d_terms[low]:
                    if not ys & add:
                        par = pos + (ys & between).bit_count()
                        terms.append((key ^ low | add, add, between, par))
                pos ^= 1
            self._d_last = (key, terms)
        xs = mask ^ key
        return [
            (t | xs, _SIGN[(par + (xs & between).bit_count()) & 1])
            for t, add, between, par in self._d_last[1]
            if not xs & add
        ]

    def enumerate_masks(self, p, q):
        """All free-basis masks of bidegree (p, q) in lex enumeration order."""
        if p < 0 or q < 0 or q > self.npairs or p > 2 * self.n:
            return
        letters = list(range(self.xbit0, self.nbits))
        for gsel in combinations(range(self.npairs), q):
            gmask = 0
            for b in gsel:
                gmask |= 1 << b
            for lsel in combinations(letters, p):
                mask = gmask
                for b in lsel:
                    mask |= 1 << b
                yield mask

    # -- the no-broken-circuit normal form ------------------------------------

    def forest_form(self, g):
        """Normal form of a g-part (pair bits only), memoised per layout.

        None when the edges contain a cycle.  Otherwise ``(root, terms)``:
        ``root[v]`` is the smallest vertex of the component of vertex v
        (0-based), and ``terms`` maps each forest in which every vertex has
        at most one smaller neighbour to its integer coefficient.  The
        memoised value is returned itself, so callers must not mutate it.
        """
        if g in self._forms:
            return self._forms[g]
        root = list(range(self.n))
        lower = [[] for _ in range(self.n)]  # smaller neighbours, ascending
        m = g
        while m:
            b = (m & -m).bit_length() - 1
            m &= m - 1
            i, j = self.pairs[b]
            ri, rj = root[i - 1], root[j - 1]
            if ri == rj:
                self._forms[g] = None
                return None
            lo, hi = min(ri, rj), max(ri, rj)
            root = [lo if r == hi else r for r in root]
            lower[j - 1].append(i)
        k = next((k for k, below in enumerate(lower, 1) if len(below) > 1), None)
        if k is None:
            terms = {g: 1}
        else:
            # g_ik g_jk = g_ij g_jk - g_ij g_ik; both terms have smaller masks
            i, j = lower[k - 1][:2]
            eik = 1 << self.pair_bit[(i, k)]
            ejk = 1 << self.pair_bit[(j, k)]
            eij = 1 << self.pair_bit[(i, j)]
            rest = g & ~(eik | ejk)
            s0, _ = self.merge(eik | ejk, rest)
            terms = {}
            for pair, c in ((eij | ejk, s0), (eij | eik, -s0)):
                s, sub = self.merge(pair, rest)
                sub_terms = self.forest_form(sub)[1]
                add_terms(terms, ((h, c * s * t) for h, t in sub_terms.items()))
        form = (tuple(root), terms)
        self._forms[g] = form
        return form

    def increasing_forests(self, q):
        """Every forest with q edges in which each vertex has at most one
        smaller neighbour, as (g-mask, component minima, 0-based).

        The list of the last q is kept and returned again, so callers must
        not mutate it; the engine's report asks by falling q, for every p,
        and so builds each q once."""
        if self._forests[0] == q:
            return self._forests[1]
        n = self.n
        forests = [(0, ())]
        for v in range(n):
            grown = []
            for g, roots in forests:
                edges = v - len(roots)
                if edges + n - v - 1 >= q:
                    grown.append((g, roots + (v,)))
                if edges < q:
                    grown.extend(
                        (g | 1 << self.pair_bit[(u + 1, v + 1)], roots)
                        for u in range(v)
                    )
            forests = grown
        self._forests = (q, forests)
        return forests


class Relabelling:
    """A permutation ``sigma`` of 1..n acting on the masks of a layout.

    ``table`` is its bit image table, for :meth:`Layout.apply_perm`.
    Calling the object gives the same ``(sign, sigma . mask)`` from three
    lookups.  sigma sends pair bits to pair bits and each letter to a letter
    of its own kind, and the blocks are ordered g < x < y, so no two blocks
    interleave: the image is the OR of the three block images, and the sign
    is the product of the three block signs.  The x- and y-blocks share one
    table of 2^n entries, a letter set to (sign, image).  The g-part comes
    from a memo filled by :meth:`Layout.apply_perm`.  It holds the g-parts
    of one edge count q at a time, as the engine's report visits q in
    falling order; those of basis masks are the c(n, n - q) increasing
    forests with q edges.
    """

    def __init__(self, layout, sigma):
        n = layout.n
        self.table = layout.perm_table(sigma)
        self._gfull, self._xbit0, self._ybit0 = layout.gfull, layout.xbit0, layout.ybit0
        self._low = (1 << n) - 1
        self._letters = [
            Layout.sort_bits([sigma[v] - 1 for v in range(n) if s >> v & 1])
            for s in range(1 << n)
        ]
        self._q, self._gparts = None, {}  # g-parts with q edges -> (sign, image)

    def __call__(self, mask):
        g = mask & self._gfull
        gpart = self._gparts.get(g)
        if gpart is None:
            if g.bit_count() != self._q:
                self._q = g.bit_count()
                self._gparts.clear()
            gpart = self._gparts[g] = Layout.apply_perm(self.table, g)
        sg, ig = gpart
        sx, ix = self._letters[mask >> self._xbit0 & self._low]
        sy, iy = self._letters[mask >> self._ybit0]
        return sg * sx * sy, ig | ix << self._xbit0 | iy << self._ybit0


def _basis_size(n, p, q):
    """c(n, n-q) * C(n-q, p) * 2^p decorated increasing forests in bidegree
    (p, q); c is the unsigned Stirling number of the first kind."""
    k = n - q
    if p < 0 or q < 0 or p > k:
        return 0
    stirling = [1]  # c(m, 0..m), starting at m = 0
    for m in range(n):
        stirling = [
            (stirling[j - 1] if j else 0) + m * (stirling[j] if j <= m else 0)
            for j in range(m + 2)
        ]
    return stirling[k] * comb(k, p) * 2**p


def _decorations(lay, roots, p, low):
    """The letter masks of p letters x or y on distinct vertices of
    ``roots``, as one list for each number of y-letters from ``low`` to p."""
    out = [[] for _ in range(low, p + 1)]
    for deco in combinations(roots, p):
        letters = sum(1 << v for v in deco)
        for ny in range(low, p + 1):
            for ysel in combinations(deco, ny):
                ys = sum(1 << v for v in ysel)
                out[ny - low].append((letters ^ ys) << lay.xbit0 | ys << lay.ybit0)
    return out


class LazyBlocks(Mapping):
    """{(a, b): basis(ab)} over the given Hodge blocks, each value computed
    (and cached by its source) when it is first read; blocks whose value is
    empty are left out."""

    def __init__(self, blocks, basis):
        self._blocks, self._basis = blocks, basis

    def __getitem__(self, ab):
        value = self._basis(ab) if ab in self._blocks else None
        if not value:
            raise KeyError(ab)
        return value

    def __iter__(self):
        return (ab for ab in self._blocks if self._basis(ab))

    def __len__(self):
        return sum(1 for _ in self)

    def __repr__(self):
        return repr(dict(self))


class BidegreeSpace:
    """Quotient of one free bidegree piece by the relation subspace.

    ``quotient_basis`` lists, in increasing mask order, the decorated
    increasing forests of bidegree (p, q): q g-edges in which every vertex
    has at most one smaller neighbour, and p letters x or y, each on the
    smallest vertex of its own component.  ``blocks`` holds the same masks
    by Hodge bidegree, {(a, b): masks in increasing order} with
    (a, b) = (#x + q, #y + q), as a read-only mapping; ``block_keys``
    lists its keys, by increasing a and each with a nonempty block, without
    building a block.  Only the blocks with a <= b (#x <= #y) are built
    with the space.  An a > b block is the x<->y mirror of its (b, a)
    block: swapping the two letter bit ranges of a decorated forest gives a
    decorated forest, so the mirror of a basis mask is a basis mask.  It is
    built, and sorted, when the block is first read; ``quotient_basis`` is
    merged from every block when first read.
    :meth:`reduce_mask` and
    :meth:`reduce` give exact quotient coordinates over this basis through
    the normal form described in the module docstring, as a dict
    {basis mask: coefficient} without zeros; ``layout.decode(mask)`` names
    a coordinate.  ``relation_rank`` is ``free_dim - dim``.  A bidegree
    outside the algebra (a negative degree, or more generators than exist)
    gives an empty space, of dim 0.
    """

    def __init__(self, n, p, q, layout=None):
        self.n, self.p, self.q = n, p, q
        self.layout = layout or Layout(n)
        lay = self.layout
        self.free_dim = comb(lay.npairs, q) * comb(2 * n, p) if p >= 0 and q >= 0 else 0
        low = (p + 1) // 2  # the fewest y-letters with #x <= #y
        by_y = [[] for _ in range(p + 1)] if self.free_dim else []  # masks by #y
        if by_y:
            decorations = {}  # root tuple -> its letter masks, shared by its forests
            for g, roots in lay.increasing_forests(q):
                if roots not in decorations:
                    decorations[roots] = _decorations(lay, roots, p, low)
                for ny, masks in enumerate(decorations[roots], low):
                    by_y[ny] += [g | m for m in masks]
        # (a, b) -> masks: the a <= b blocks, and each mirror once it is read
        self._built = {}
        for ny in reversed(range(low, len(by_y))):
            if by_y[ny]:
                by_y[ny].sort()
                self._built[(p - ny + q, ny + q)] = by_y[ny]
        upper = list(self._built)
        self.block_keys = tuple(upper + [(b, a) for a, b in reversed(upper) if a < b])
        # an a < b block counts for its mirror too
        self.dim = sum(len(m) * (1 if a == b else 2) for (a, b), m in self._built.items())
        if self.dim != _basis_size(n, p, q):
            raise AssertionError(
                f"{self.dim} basis forests at n={n} ({p},{q}), "
                f"expected {_basis_size(n, p, q)}"
            )
        self.relation_rank = self.free_dim - self.dim

    @property
    def blocks(self):
        # a new mapping per read: one kept on the space would hold the space
        # through ``self._block``, a cycle only the collector frees
        return LazyBlocks(self.block_keys, self._block)

    def _block(self, ab):
        """The masks of Hodge block ``ab``, a key of ``blocks``; an a > b
        block is mirrored from its (b, a) block on first read."""
        if ab not in self._built:
            lay = self.layout
            xs = (1 << self.n) - 1  # the x-letters, shifted down to bit 0
            self._built[ab] = sorted(
                m & lay.gfull | (m >> lay.ybit0) << lay.xbit0 | (m >> lay.xbit0 & xs) << lay.ybit0
                for m in self._built[ab[::-1]]
            )
        return self._built[ab]

    @cached_property
    def quotient_basis(self):
        # merged on first read, mirrors included, so a space read only by its
        # a <= b blocks (the engine's report) holds each of their masks in
        # one list and builds no other
        return sorted(chain.from_iterable(self.blocks.values()))

    # -- quotient coordinates ------------------------------------------------

    def reduce_mask(self, mask, coeff=1):
        """Quotient coordinates {basis mask: coefficient} of ``coeff`` times
        one monomial, as a new dict of integers."""
        lay = self.layout
        form = lay.forest_form(mask & lay.gfull)
        if form is None:
            return {}
        root, terms = form
        n = self.n
        used = 0  # components that already carry a letter
        moved = []  # letter bits (x block, then y block) after transport
        m = mask >> lay.xbit0
        while m:
            b = (m & -m).bit_length() - 1
            m &= m - 1
            v = b % n
            r = root[v]
            if (used >> r) & 1:
                return {}
            used |= 1 << r
            moved.append(lay.xbit0 + b - v + r)
        s, letters = lay.sort_bits(moved)
        c = coeff if s > 0 else -coeff
        return {h | letters: c * t for h, t in terms.items()}

    def reduce(self, e: Element):
        """Quotient coordinates {basis mask: coefficient} of a homogeneous
        element, in the format of :meth:`reduce_mask`; zero coefficients
        are left out, so the zero class reduces to ``{}``."""
        lay = self.layout
        acc = {}
        for gens, c in e.coeffs.items():
            m = Monomial(gens)
            if m.bidegree != (self.p, self.q):
                raise ValueError(
                    f"element of bidegree {m.bidegree} in space "
                    f"({self.p},{self.q})"
                )
            add_terms(acc, self.reduce_mask(lay.encode(m), c).items())
        return acc


# ---------------------------------------------------------------------------
# public per-operation API
# ---------------------------------------------------------------------------


def free_basis(n, p, q):
    """All sign-+1 monomials of bidegree (p, q); size C(#pairs,q)*C(2n,p)."""
    if p < 0 or q < 0:
        raise ValueError("bidegree must be nonnegative")
    lay = Layout(n)
    return [lay.decode(m) for m in lay.enumerate_masks(p, q)]


def relation_span(n, p, q, layout=None):
    """An echelonized basis of the relation subspace in bidegree (p, q).

    One row ``m - reduce(m)`` per free monomial ``m`` outside the quotient
    basis.  Every term of ``reduce(m)`` is a smaller mask than ``m``, so the
    rows have distinct leading monomials.
    """
    space = BidegreeSpace(n, p, q, layout=layout)
    lay = space.layout
    basis = set(space.quotient_basis)
    rows = []
    for mask in lay.enumerate_masks(p, q):
        if mask in basis:
            continue
        coeffs = {lay.decode(m).gens: -c for m, c in space.reduce_mask(mask).items()}
        coeffs[lay.decode(mask).gens] = 1
        rows.append(Element(coeffs))
    if len(rows) != space.relation_rank:
        raise AssertionError(
            f"{len(rows)} relation rows at n={n} ({p},{q}), "
            f"expected {space.relation_rank}"
        )
    return rows

