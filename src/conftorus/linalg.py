"""Sparse exact linear algebra over the rationals.

Rows are dicts mapping a column key to a nonzero coefficient.  Columns are
integers (bitmask-encoded monomials) so keys are totally ordered.
``SparseEchelon`` is a forward-only integer echelon form; it serves the
genus-zero oracle's quotient elimination
(:class:`conftorus.oracle.ArnoldAlgebra`), the invariant kernels and the
differential ranks.  Pivot = largest column key of the row, so the
surviving coset representatives are the small monomials.  Elimination is
fraction-free: a row is reduced against a pivot entry 1 in place, and is
scaled by the pivot entry and divided by its content (gcd) only when that
entry is not 1.  Every installed row is divided by its content and has a
positive pivot entry, so it is the same row however it was reached.

``add_terms`` is the one sparse accumulate (add, drop zeros) the engine and
the oracles share; ``integer_row`` clears the denominators of a row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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


class SparseEchelon:
    """Incremental echelon form with integer rows and max-column pivots."""

    def __init__(self):
        self.rows = {}  # pivot column -> normalized row (dict col -> int)

    @property
    def rank(self):
        return len(self.rows)

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

        Returns True when the rank grew.  ``row`` is a dict col -> int and
        may be consumed.  A step against a pivot entry 1 subtracts in place
        and leaves the content alone; a step against any other pivot entry
        scales the row by it and divides out the content.  The content is
        always divided out on install, so the installed row does not depend
        on which steps led to it.
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

    def reduce_vector(self, vec):
        """Return the normal form of a Fraction-valued vector mod the rows."""
        vec = {c: Fraction(v) for c, v in vec.items() if v}
        while True:
            hit = None
            for c in vec:
                if c in self.rows and (hit is None or c > hit):
                    hit = c
            if hit is None:
                return vec
            row = self.rows[hit]
            factor = vec[hit] / row[hit]
            add_terms(vec, ((c, -factor * v) for c, v in row.items()))


def rank_of_rows(rows):
    """Rank of an iterable of integer rows."""
    ech = SparseEchelon()
    r = 0
    for row in rows:
        if ech.add_row(dict(row)):
            r += 1
    return r


def kernel_of_columns(columns, dim):
    """Kernel of the linear map sending basis vector ``j`` to ``columns[j]``.

    ``columns`` is a list of dicts (row index -> coefficient); the result is
    a list of Fraction-valued dicts over ``range(dim)`` spanning the kernel.
    """
    # Equations: for every row index r, sum_j columns[j][r] * v_j = 0.
    equations = {}
    for j, col in enumerate(columns):
        for r, v in col.items():
            if v:
                equations.setdefault(r, {})[j] = v
    ech = SparseEchelon()
    for row in equations.values():
        ech.add_row(integer_row(row))
    pivot_rows = sorted(ech.rows.items())
    basis = []
    for free in range(dim):
        if free in ech.rows:
            continue
        vec = {free: Fraction(1)}
        for p, row in pivot_rows:
            # vec holds the free column and smaller pivots only, never p;
            # the columns it lacks would add zero products
            s = sum(v * vec[c] for c, v in row.items() if c in vec)
            if s:
                vec[p] = -s / row[p]
        basis.append(vec)
    return basis


def integer_row(row):
    """``row`` times the lcm of its denominators: an integer row with the
    zero entries left out.  An all-int row is returned without going
    through ``Fraction``."""
    if all(type(v) is int for v in row.values()):
        return {c: v for c, v in row.items() if v}
    denom = 1
    for v in row.values():
        d = Fraction(v).denominator
        denom = denom * d // gcd(denom, d)
    return {c: int(Fraction(v) * denom) for c, v in row.items() if v}
