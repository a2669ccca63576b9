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

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import NamedTuple, Optional

from .linalg import add_terms, check_int

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
    "differential",
    "sn_act",
    "symmetrize",
    "multiply",
    "Layout",
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


def _label(name, i):
    """The point label ``i``, refused by ``name`` unless an int >= 1."""
    check_int(i, name, negative_ok=True)
    if i < 1:
        raise ValueError(f"{name} must be positive, got {i}")
    return i


def G(i, j):
    """g_ij of labels i != j, ints >= 1 refused by name; ``G(j, i)`` is ``G(i, j)``."""
    i, j = _label("i", i), _label("j", j)
    if i == j:
        raise ValueError("g_ii is not a generator")
    if i > j:
        i, j = j, i
    return Generator("g", i, j)


def X(i):
    """x_i of the label i, an int >= 1, refused by name otherwise."""
    return Generator("x", _label("i", i))


def Y(i):
    """y_i of the label i, an int >= 1, refused by name otherwise."""
    return Generator("y", _label("i", i))


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
    In normal form d(g_ij) = -(x_j y_i) - (x_i y_j), so the g-generator at
    position pos of a monomial is replaced by the letter pairs (x_j, y_i)
    and (x_i, y_j), each with the sign -(-1)^pos.  Each g-generator's two
    pairs are built once per call, on its first occurrence."""
    out = Element()
    acc = out.coeffs
    repls = {}  # g-generator -> its two replacement letter pairs
    for gens, c in e.coeffs.items():
        for pos, gen in enumerate(gens):
            if gen.kind != "g":
                continue
            pairs = repls.get(gen)
            if pairs is None:
                pairs = repls[gen] = ((X(gen.j), Y(gen.i)), (X(gen.i), Y(gen.j)))
            rest = gens[:pos] + gens[pos + 1 :]
            lead = c if pos % 2 else -c
            for pair in pairs:
                prod = normalize(rest + pair)
                if prod is not None:
                    add_terms(acc, ((prod.gens, lead * prod.sign),))
    return out


def sn_act(sigma, e: Element) -> Element:
    """Relabel indices by the permutation ``sigma`` (tuple, sigma[i-1] image
    of i) and renormalize, the Koszul sign read off the new tuple order.

    Each generator's image is built once per call, on its first occurrence,
    and kept in a dict for the terms after.  ``sigma`` must be a tuple of
    ints that permutes 1..k (a ``TypeError`` or ``ValueError`` naming it
    otherwise), and every generator of ``e`` must have its indices in 1..k
    (a ``ValueError`` naming the generator and sigma)."""
    if type(sigma) is not tuple or any(type(v) is not int for v in sigma):
        raise TypeError(f"sigma must be a tuple of ints, got {sigma!r}")
    k = len(sigma)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{k}, got {sigma!r}")
    out = Element()
    acc = out.coeffs
    images = {}  # generator -> its image under sigma
    for gens, c in e.coeffs.items():
        relabelled = []
        for gen in gens:
            image = images.get(gen)
            if image is None:
                if not 0 < gen.i <= k or gen.j > k:
                    raise ValueError(
                        f"generator {gen} has an index outside 1..{k}, "
                        f"the domain of sigma {sigma!r}"
                    )
                if gen.kind == "g":
                    image = Generator("g", *sorted((sigma[gen.i - 1], sigma[gen.j - 1])))
                else:
                    image = Generator(gen.kind, sigma[gen.i - 1])
                images[gen] = image
            relabelled.append(image)
        m = normalize(relabelled)
        add_terms(acc, ((m.gens, c * m.sign),))
    return out


def symmetrize(e: Element, n: int) -> Element:
    """Sum of sigma . e over the permutations sigma of 1..n: n! times the
    averaging projector, so the coefficients stay integers.

    The sum runs by cosets.  Every sigma in S_k is (i k) tau for exactly
    one i <= k and one tau in S_(k-1), the permutations fixing k, with
    (k k) the identity.  So if T is the sum of tau . e over S_(k-1), the
    sum over S_k is T plus (i k) . T for i = 1..k-1: starting from the
    identity's term, each k = 2..n takes k - 1 relabellings of the running
    sum, n(n-1)/2 in all after the identity's, against n! single terms.

    ``n`` must be an int >= 0 (a ``TypeError`` or ``ValueError`` naming it
    otherwise), and every index of ``e`` at most n, as :func:`sn_act`
    requires."""
    check_int(n, "n")
    ids = range(1, n + 1)
    total = sn_act(tuple(ids), e)
    for k in ids[1:]:
        cosets = [
            sn_act(tuple(k if v == i else i if v == k else v for v in ids), total)
            for i in range(1, k)
        ]
        for coset in cosets:
            add_terms(total.coeffs, coset.coeffs.items())
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

    :meth:`bit_gen` states the encoding.  ``gen_masks``, its inverse table
    {Generator: 1 << bit} that :meth:`encode`, :meth:`gen_bit` and
    ``BidegreeSpace.reduce`` read, is built from it on first use, so the
    engines' layouts, which never encode, never build it.
    """

    def __init__(self, n):
        check_int(n, "n")
        self.n = n
        self.pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        self.npairs = len(self.pairs)
        self.pair_bit = {p: b for b, p in enumerate(self.pairs)}
        self.xbit0 = self.npairs
        self.ybit0 = self.npairs + n
        self.nbits = self.npairs + 2 * n
        self.gfull = (1 << self.npairs) - 1  # all pair bits
        self._forms = {}  # g-part -> forest_form(g-part)
        # per vertex (0-based): the bits of its pairs and of its two letters
        self._vertex_bits = [(1 << self.xbit0 | 1 << self.ybit0) << v for v in range(n)]
        # per pair bit of g_ij: the letter masks of x_j y_i and of x_i y_j,
        # each paired with the mask of the bits strictly between its letters
        self._d_terms = {}
        for b, (i, j) in enumerate(self.pairs):
            self._vertex_bits[i - 1] |= 1 << b
            self._vertex_bits[j - 1] |= 1 << b
            self._d_terms[1 << b] = [
                ((1 << bx) | (1 << by), (1 << by) - (2 << bx))
                for bx, by in ((self.xbit0 + j - 1, self.ybit0 + i - 1),
                               (self.xbit0 + i - 1, self.ybit0 + j - 1))
            ]

    # -- encoding ----------------------------------------------------------

    @cached_property
    def gen_masks(self):
        """{Generator: 1 << bit} over every bit, the inverse of
        :meth:`bit_gen`, built from it on first use."""
        return {self.bit_gen(b): 1 << b for b in range(self.nbits)}

    def gen_bit(self, gen: Generator):
        return self.gen_masks[gen].bit_length() - 1

    def bit_gen(self, b):
        # no label check: decode calls this per bit, on labels 1..n
        if b < self.npairs:
            return Generator("g", *self.pairs[b])
        if b < self.ybit0:
            return Generator("x", b - self.xbit0 + 1)
        return Generator("y", b - self.ybit0 + 1)

    def encode(self, m: Monomial):
        table = self.gen_masks
        mask = 0
        for gen in m.gens:
            mask |= table[gen]
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
        distinct (a repeat would be lost in the mask); both callers
        (``apply_perm`` and ``BidegreeSpace.reduce_mask``) pass distinct
        ones."""
        inv = mask = 0
        for b in bits:
            inv += (mask >> b).bit_count()
            mask |= 1 << b
        return (-1 if inv & 1 else 1), mask

    @staticmethod
    def apply_perm(table, mask):
        """Relabel a mask bit by bit; returns (sign, mask').  The reference
        for :meth:`relabel`, and the relabelling of the coinvariant oracle
        and the kernel reference, which share no code with the matching
        engine's."""
        imgs = []
        m = mask
        while m:
            b = (m & -m).bit_length() - 1
            imgs.append(table[b])
            m &= m - 1
        return Layout.sort_bits(imgs)

    def relabel(self, sigma, mask):
        """``apply_perm(perm_table(sigma), mask)``, visiting only the set bits
        on the vertices sigma moves: O(n) to find them, then O(1) per bit.
        The sign counts the inversions among the moved images, as
        :meth:`sort_bits` does, and per moved bit the staying bits strictly
        between it and its image."""
        touched = 0
        for v, image in enumerate(sigma):
            if image != v + 1:
                touched |= self._vertex_bits[v]
        fixed, m = mask & ~touched, mask & touched
        pairs, pair_bit, npairs = self.pairs, self.pair_bit, self.npairs
        inv = moved = 0
        while m:
            b = (m & -m).bit_length() - 1
            m &= m - 1
            if b < npairs:
                i, j = pairs[b]
                i, j = sigma[i - 1], sigma[j - 1]
                c = pair_bit[(i, j) if i < j else (j, i)]
            else:
                v = (b - self.xbit0) % self.n
                c = b - v + sigma[v] - 1
            inv += (moved >> c).bit_count()
            if c != b:
                lo, hi = (b, c) if b < c else (c, b)
                inv += (fixed & ((1 << hi) - (2 << lo))).bit_count()
            moved |= 1 << c
        return (-1 if inv & 1 else 1), fixed | moved

    def differential_list(self, mask):
        """d of a normal-form mask as a new list of (mask', int coeff).

        The g-bit of g_ij is replaced by -(x_j y_i) and by -(x_i y_j), in
        that order, the g-bits taken from the lowest.  Each term carries the
        Leibniz sign (-1)^(g-bits of the mask below it) and the Koszul sign
        of moving its two letters into place, (-1)^(letters of the mask
        strictly between them).  Distinct (g-bit, term) pairs give distinct
        masks, so no two terms combine.  Each call builds its list from
        ``_d_terms`` alone, with no memo."""
        out = []
        pos = 0  # parity of the g-bits below the current one
        m = mask & self.gfull
        while m:
            low = m & -m
            m ^= low
            (add1, between1), (add2, between2) = self._d_terms[low]
            rest = mask ^ low
            if not mask & add1:
                out.append((rest | add1, _SIGN[(pos + (mask & between1).bit_count()) & 1]))
            if not mask & add2:
                out.append((rest | add2, _SIGN[(pos + (mask & between2).bit_count()) & 1]))
            pos ^= 1
        return out

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
        smaller neighbour, as (g-mask, component minima, 0-based), in a new
        list on every call."""
        n = self.n
        # q edges need 0 <= q <= n - 1; at n = 0 only the empty forest, q = 0
        forests = [(0, ())] if 0 <= q < max(n, 1) else []
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
        return forests


def _stirling(n, k):
    """The unsigned Stirling number of the first kind c(n, k): the number of
    increasing forests on n vertices with k components; 0 outside 0..n."""
    row = [1]  # c(m, 0..m), starting at m = 0
    for m in range(n):
        row = [
            (row[j - 1] if j else 0) + m * (row[j] if j <= m else 0) for j in range(m + 2)
        ]
    return row[k] if 0 <= k <= n else 0


def _decorations(lay, roots, p, ny):
    """The letter masks of p letters on distinct vertices of ``roots``, ny
    of them y and the others x."""
    out = []
    for deco in combinations(roots, p):
        letters = sum(1 << v for v in deco)
        for ysel in combinations(deco, ny):
            ys = sum(1 << v for v in ysel)
            out.append((letters ^ ys) << lay.xbit0 | ys << lay.ybit0)
    return out


class BidegreeSpace:
    """Quotient of one free bidegree piece by the relation subspace.

    Its basis is the decorated increasing forests of bidegree (p, q): q
    g-edges in which every vertex has at most one smaller neighbour, and p
    letters x or y, each on the smallest vertex of its own component.  There
    are ``dim`` = c(n, n-q) C(n-q, p) 2^p of them, and ``relation_rank`` is
    ``free_dim - dim``; both are counted, so constructing a space enumerates
    nothing.  :meth:`block` lists, in increasing mask order, those of Hodge
    bidegree (a, b) = (#x + q, #y + q), built from ``layout.increasing_forests``
    on every read and checked against its count c(n, n-q) C(n-q, p)
    C(p, b-q); a space keeps no mask, only its counts, ``block_keys`` and
    its layout.  ``block_keys`` lists the keys of the nonempty blocks, by
    increasing a, ``blocks`` is the dict {(a, b): masks} over them, and
    ``quotient_basis`` is every block merged in increasing order.
    :meth:`reduce_mask` and :meth:`reduce` give exact quotient coordinates
    over this basis through the normal form described in the module
    docstring, as a dict {basis mask: coefficient} without zeros, and read
    no block; ``layout.decode(mask)`` names a coordinate.  A bidegree
    outside the algebra (a negative degree, or more generators than exist)
    gives an empty space, of dim 0.
    """

    def __init__(self, n, p, q, layout=None):
        check_int(n, "n")
        check_int(p, "p", negative_ok=True)
        check_int(q, "q", negative_ok=True)
        if layout is not None and layout.n != n:
            raise ValueError(f"layout is for n={layout.n}, not n={n}")
        self.n, self.p, self.q = n, p, q
        self.layout = lay = layout or Layout(n)
        self.free_dim = comb(lay.npairs, q) * comb(2 * n, p) if p >= 0 and q >= 0 else 0
        k = n - q  # components of a forest with q edges
        self.dim = _stirling(n, k) * comb(k, p) * 2**p if 0 <= p <= k else 0
        self.relation_rank = self.free_dim - self.dim
        # every split of the p letters into #x and #y is a nonempty block
        ys = range(p, -1, -1) if self.dim else ()
        self.block_keys = tuple((p - ny + q, ny + q) for ny in ys)

    @property
    def blocks(self):
        return {ab: self.block(ab) for ab in self.block_keys}

    def block(self, ab):
        """The masks of Hodge block ``ab``, in increasing order, as a new
        list built on every read; empty, and nothing built, for a key
        outside ``block_keys``."""
        if ab not in self.block_keys:
            return ()
        n, p, q = self.n, self.p, self.q
        ny = ab[1] - q
        decorations = {}  # root tuple -> its letter masks, shared by its forests
        masks = []
        for g, roots in self.layout.increasing_forests(q):
            if roots not in decorations:
                decorations[roots] = _decorations(self.layout, roots, p, ny)
            masks += [g | m for m in decorations[roots]]
        want = _stirling(n, n - q) * comb(n - q, p) * comb(p, ny)
        if len(masks) != want:
            raise AssertionError(
                f"{len(masks)} basis forests at n={n} ({p},{q}) {ab}, expected {want}"
            )
        masks.sort()
        return masks

    @property
    def quotient_basis(self):
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
        table, gfull = lay.gen_masks, lay.gfull
        acc = {}
        for gens, c in e.coeffs.items():
            mask = 0
            for gen in gens:
                mask |= table[gen]
            q = (mask & gfull).bit_count()
            if mask.bit_count() - q != self.p or q != self.q:
                raise ValueError(
                    f"element of bidegree {(mask.bit_count() - q, q)} in space "
                    f"({self.p},{self.q})"
                )
            add_terms(acc, self.reduce_mask(mask, c).items())
        return acc


# ---------------------------------------------------------------------------
# public per-operation API
# ---------------------------------------------------------------------------


def free_basis(n, p, q):
    """All sign-+1 monomials of bidegree (p, q); size C(#pairs,q)*C(2n,p)."""
    check_int(p, "p")
    check_int(q, "q")
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

