"""Sparse exact linear algebra over the integers.

Rows are dicts mapping a column key to a nonzero coefficient.  Columns are
integers (bitmask-encoded monomials) so keys are totally ordered.

``SignedUnionFind`` absorbs the rows that only identify two columns up to
sign (``a = +-b``) in near-linear time, with path compression; a class
whose members must equal their own negative is zero.  The root of a class
is its smallest key, so :meth:`SignedUnionFind.project` rewrites a row
onto the small monomials, as the echelon's pivots would.  It serves the
spectral engine's coinvariant blocks, where most rows (86% at n = 6) are
such identifications.

``SparseEchelon`` is a forward-only integer echelon form; it serves the
rows of the coinvariant blocks the union-find cannot absorb, the reference
invariant kernels and the differential ranks.  The genus-zero oracle
(:class:`conftorus.oracle.ArnoldAlgebra`) reduces its relation rows by
normal forms of its own and sends an echelon only what they leave of a
row (nothing, for n <= 7) and its coinvariant rows.  Pivot = largest
column key of the row, so the surviving coset representatives are the
small monomials.  Elimination is fraction-free: a row is reduced against a
pivot entry 1 in place, and is scaled by the pivot entry and divided by
its content (gcd) only when that entry is not 1.  Every installed row is
divided by its content and has a positive pivot entry, so it is the same
row however it was reached.

The echelon reduces no vector to a normal form.  ``rank_of_rows(rows,
base)`` seeds an echelon with the rows of another one and counts the rank
the new rows add; it serves the engine's d-ranks, modulo a target block's
relations, and the genus-zero oracle's S_n-coinvariants, modulo what a
degree's relation rows left in its echelon.

``kernel_of_columns`` eliminates its equations shortest first (most have
two terms) and back-substitutes sparsely: each column is indexed to the
pivot rows that hold it, and a kernel vector visits only the rows it can
reach, in increasing pivot order.

``add_terms`` is the one sparse accumulate (add, drop zeros) the engine and
the oracles share.  Every value is an ``int``: a kernel vector is scaled
to integers as it is back-substituted, so no rational number is formed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def check_int(value, name, negative_ok=False):
    """The engine side's one argument check, naming ``name``: a TypeError unless
    ``value`` is an int (a bool is none), a ValueError if negative and not ``negative_ok``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 0 and not negative_ok:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def add_terms(acc, pairs):
    """Add each ``(key, value)`` pair into the dict ``acc``, deleting a key
    whose sum is zero, so ``acc`` never holds a zero; returns ``acc``."""
    for k, v in pairs:
        w = acc.get(k, 0) + v
        if w:
            acc[k] = w
        elif k in acc:
            del acc[k]
    return acc


class SignedUnionFind:
    """Union-find on column keys where each union carries a sign.

    ``union(a, b, s)`` records ``a = s * b`` with ``s`` in {+1, -1}.  The
    root of a class is its smallest key.  A class is zero when a union
    closes a cycle whose signs say a member equals its own negative, or
    when it is merged with a zero class.  ``parent`` holds the keys that
    are not roots; a key it does not hold is the root of its own class.
    """

    def __init__(self):
        self.parent = {}  # key -> (parent, sign) with key == sign * parent
        self.zero = set()  # roots of the zero classes

    def find(self, k):
        """``(root, sign)`` with ``k == sign * root``.  A root, or a key
        whose parent is a root, is answered at once, with no path built
        (at n = 7, 30% of the finds are on roots and 55% on their
        children); a longer path is compressed, each key on it pointed at
        the root."""
        parent = self.parent
        up = parent.get(k)
        if up is None:
            return k, 1
        if up[0] not in parent:
            return up
        path = []
        cur, sign = k, 1
        while cur in parent:
            nxt, s = parent[cur]
            path.append((cur, sign))
            sign *= s
            cur = nxt
        for node, pref in path:
            parent[node] = (cur, pref * sign)
        return cur, sign

    def union(self, a, b, s):
        """Impose ``a = s * b``."""
        ra, sa = self.find(a)
        rb, sb = self.find(b)
        rel = sa * s * sb  # ra = rel * rb
        if ra == rb:
            if rel != 1:
                self.zero.add(ra)
            return
        if rb < ra:
            ra, rb = rb, ra
        # the larger root goes under the smaller one, and so does its zero
        self.parent[rb] = (ra, rel)
        if rb in self.zero:
            self.zero.discard(rb)
            self.zero.add(ra)

    def project(self, pairs):
        """The ``(key, value)`` pairs summed onto the roots of their
        classes, as a new row: a key in a zero class drops out, any other
        counts ``sign * value`` on its root."""
        found = (self.find(k) + (v,) for k, v in pairs)
        return add_terms({}, ((r, s * v) for r, s, v in found if r not in self.zero))


class SparseEchelon:
    """Incremental echelon form with integer rows and max-column pivots.

    ``rows`` seeds it with the rows of another echelon ({pivot: row}); the
    dict is copied, the rows are shared, since no installed row is ever
    changed."""

    def __init__(self, rows=()):
        self.rows = dict(rows)  # pivot column -> normalized row (dict col -> int)

    @staticmethod
    def _normalize(row):
        g = 0
        for v in row.values():
            g = gcd(g, abs(v))
        p = max(row)
        if row[p] < 0:
            g = -g
        if g not in (0, 1):
            return {c: v // g for c, v in row.items()}
        return row

    def add_row(self, row):
        """Reduce ``row`` against the echelon; install it if independent.

        Returns True when the rank grew.  ``row`` is a dict col -> int; it
        is copied, and neither it nor an installed row is ever changed.  A
        step against a pivot entry 1 subtracts in place and leaves the
        content alone; a step against any other pivot entry scales the row
        by it and divides out the content.  The content is always divided
        out on install, so the installed row does not depend on which steps
        led to it.
        """
        row = {c: v for c, v in row.items() if v}
        while row:
            p = max(row)
            other = self.rows.get(p)
            if other is None:
                self.rows[p] = self._normalize(row)
                return True
            a, b = other[p], row[p]
            if a != 1:
                row = {c: v * a for c, v in row.items()}
            # the elimination hot loop: inlined, not add_terms, for speed;
            # b != 0, so a zero sum means c was already in row
            for c, v in other.items():
                w = row.get(c, 0) - v * b
                if w:
                    row[c] = w
                else:
                    del row[c]
            if a != 1 and row:
                row = self._normalize(row)
        return False


def rank_of_rows(rows, base=()):
    """Rank of an iterable of integer rows; with ``base``, the echelon rows
    {pivot: row} of another echelon, the rank they add to it.  ``base`` and
    the rows are left as they were."""
    ech = SparseEchelon(base)
    r = 0
    for row in rows:
        if ech.add_row(row):
            r += 1
    return r


def kernel_of_columns(columns, dim):
    """Kernel of the linear map sending basis vector ``j`` to ``columns[j]``.

    ``columns`` is a list of integer columns, dicts (row index -> int); the
    result is a list of integer dicts over ``range(dim)`` spanning the
    kernel, one per free column: positive there and 0 on the other free
    columns, with keys in the order free column, then pivots ascending
    (zeros left out).

    The equations are eliminated shortest first, which keeps the rows short
    while they are reduced.  The pivot set of a max-column echelon does not
    depend on the order of its rows, so neither does the basis.
    Back-substitution visits, in increasing pivot order, only the pivot rows
    that hold a column the vector already holds, and scales the vector by
    the least factor that lets a row's pivot entry divide it.
    """
    # Equations: for every row index r, sum_j columns[j][r] * v_j = 0.
    equations = {}
    for j, col in enumerate(columns):
        for r, v in col.items():
            if v:
                equations.setdefault(r, {})[j] = v
    ech = SparseEchelon()
    for row in sorted(equations.values(), key=len):
        ech.add_row(row)
    rows = ech.rows
    holders = {}  # column -> pivots of the rows that hold it off the pivot
    for p, row in rows.items():
        for c in row:
            if c != p:
                holders.setdefault(c, []).append(p)
    basis = []
    for free in range(dim):
        if free in rows:
            continue
        vec = {free: 1}
        # a row's pivot is larger than its other columns, so every pivot
        # pushed is larger than the one popped: each row is reached after
        # all the entries of vec it reads are final
        heap = list(holders.get(free, ()))
        heapify(heap)
        queued = set(heap)
        while heap:
            p = heappop(heap)
            row = rows[p]
            s = sum(v * vec[c] for c, v in row.items() if c in vec)
            if s:
                a = row[p]  # positive: installed rows have positive pivots
                k = a // gcd(a, s)
                if k != 1:
                    vec = {c: v * k for c, v in vec.items()}
                vec[p] = -s * k // a
                for h in holders.get(p, ()):
                    if h not in queued:
                        queued.add(h)
                        heappush(heap, h)
        basis.append(vec)
    return basis
