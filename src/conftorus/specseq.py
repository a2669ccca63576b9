"""Invariant spectral-sequence computation on top of :mod:`gcalg`.

For each bidegree (p, q) the engine takes the subspace of the quotient fixed
by the whole symmetric group (kernel of the two generating permutations on
quotient coordinates), applies the differential inside the invariants, and
reads off the surviving dimensions

    e3(p, q) = dim ker(d: (p,q) -> (p+2,q-1)) - dim im(d: (p-2,q+1) -> (p,q)).

Taking invariants commutes with cohomology in characteristic zero, so these
are the invariant E3 dimensions, which assemble into the Betti numbers of
the unordered configuration space and, through the Hodge bigrading carried
by every basis vector, into its mixed Hodge table.

Everything splits along the Hodge bidegree (a, b) = (#x + #g, #y + #g): the
relations, the group action and the differential all preserve it, so the
whole computation runs blockwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import series as series_mod
from .gcalg import BidegreeSpace, Layout
from .linalg import add_terms, integer_row, kernel_of_columns, rank_of_rows

__all__ = [
    "NegativeE3Error",
    "InvariantSpace",
    "SpectralReport",
    "SpectralEngine",
    "invariant_basis",
    "e3_dims",
    "purity_check",
    "betti_and_hodge",
    "verify_against_series",
]


class NegativeE3Error(ArithmeticError):
    """The d-ranks into and out of a Hodge block exceed its E2 dimension:
    the engine is inconsistent, and no table can be read off."""


@dataclass
class InvariantSpace:
    """Fixed vectors of one bidegree, in quotient coordinates.

    ``blocks`` maps a Hodge bidegree (a, b) to a list of basis vectors, each
    a dict {basis mask: Fraction} over ``space.quotient_basis``, the format
    of :meth:`BidegreeSpace.reduce`.  Outside the algebra the space is
    empty and so is ``blocks``.
    """

    n: int
    p: int
    q: int
    space: BidegreeSpace
    blocks: dict

    @property
    def dim(self):
        return sum(len(v) for v in self.blocks.values())

    def vectors(self):
        for block in self.blocks.values():
            yield from block


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
            "hodge": [
                {"i": i, "a": a, "b": b, "dim": d}
                for (i, a, b), d in sorted(self.hodge.items())
            ],
            "purity": self.purity_ok,
            "violations": [list(v) for v in self.violations],
            "series_match": self.series_match,
        }
        return doc

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


class SpectralEngine:
    """Caches bidegree spaces and invariant data for one n."""

    def __init__(self, n):
        self.n = n
        self.layout = Layout(n)
        self._spaces = {}
        self._invariants = {}
        # bit tables for (1 2) and the n-cycle, which generate S_n
        perms = []
        if n >= 2:
            perms.append((2, 1, *range(3, n + 1)))
        if n > 2:
            perms.append((*range(2, n + 1), 1))
        self._perm_tables = [self.layout.perm_table(sigma) for sigma in perms]

    # -- spaces --------------------------------------------------------------

    def space(self, p, q) -> BidegreeSpace:
        """The quotient in bidegree (p, q); empty (dim 0) outside the
        algebra."""
        key = (p, q)
        if key not in self._spaces:
            self._spaces[key] = BidegreeSpace(self.n, p, q, layout=self.layout)
        return self._spaces[key]

    # -- invariants ------------------------------------------------------------

    def invariants(self, p, q) -> InvariantSpace:
        key = (p, q)
        if key in self._invariants:
            return self._invariants[key]
        space = self.space(p, q)
        lay = self.layout
        blocks_cols = {}
        for mask in space.quotient_basis:
            blocks_cols.setdefault(lay.hodge_bidegree(mask), []).append(mask)
        blocks = {}
        tables = self._perm_tables
        for ab, cols in sorted(blocks_cols.items()):
            if not tables:
                blocks[ab] = [{mask: Fraction(1)} for mask in cols]
                continue
            constraint_cols = []
            for mask in cols:
                col = {}
                for tno, table in enumerate(tables):
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

    # -- differential ranks -----------------------------------------------------

    def _d_image_rows(self, inv: InvariantSpace, ab):
        """Images of the (a,b)-block basis under d, as integer rows over the
        target quotient coordinates."""
        target = self.space(inv.p + 2, inv.q - 1)
        rows = []
        dcache = {}
        for vec in inv.blocks.get(ab, []):
            img = {}
            for mask, c in vec.items():
                if mask not in dcache:
                    acc = {}
                    for m2, c2 in self.layout.differential_mask(mask):
                        add_terms(acc, target.reduce_mask(m2, c2).items())
                    dcache[mask] = acc
                add_terms(img, ((m3, c * v) for m3, v in dcache[mask].items()))
            if img:
                rows.append(integer_row(img))
        return rows

    def d_rank(self, p, q, ab):
        rows = self._d_image_rows(self.invariants(p, q), ab)
        return rank_of_rows(rows) if rows else 0

    # -- the report ---------------------------------------------------------------

    def report(self) -> SpectralReport:
        n = self.n
        lay = self.layout
        rep = SpectralReport(n=n)
        bidegrees = [
            (p, q)
            for q in range(lay.npairs + 1)
            for p in range(2 * n + 1)
        ]
        rank_out = {}
        for p, q in bidegrees:
            for ab, vecs in self.invariants(p, q).blocks.items():
                if vecs:
                    rank_out[(p, q, ab)] = self.d_rank(p, q, ab)
        e2_inv, e3_inv, e3_hodge = {}, {}, {}
        for p, q in bidegrees:
            inv = self.invariants(p, q)
            if inv.dim == 0:
                continue
            e2_inv[(p, q)] = inv.dim
            for ab, vecs in inv.blocks.items():
                if not vecs:
                    continue
                out = rank_out.get((p, q, ab), 0)
                into = rank_out.get((p - 2, q + 1, ab), 0)
                e3 = len(vecs) - out - into
                if e3 < 0:
                    raise NegativeE3Error(
                        f"negative E3 dimension at n={n}, (p, q) = ({p}, {q}), "
                        f"(a, b) = {ab}"
                    )
                if e3:
                    e3_inv[(p, q)] = e3_inv.get((p, q), 0) + e3
                    e3_hodge[(p, q, ab)] = e3
        rep.e2_inv, rep.e3_inv, rep.e3_hodge = e2_inv, e3_inv, e3_hodge
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
    """Full invariant spectral report for one n."""
    return SpectralEngine(n).report()


def purity_check(report: SpectralReport):
    """``(ok, violations)``: the sorted surviving bidegrees (p, q) off the
    weight line.

    (p, q) is pure when p - q is 0 or 1, which is exactly p + 2q = w(p + q),
    and each of its Hodge blocks has a + b = w(p + q); every basis monomial
    has a + b = #x + #y + 2#g = p + 2q.  Purity also makes E3 the last page:
    a d_r arrow (r >= 3) changes p - q by 2r - 1 >= 5, so no arrow joins two
    pure entries.
    """
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
    """
    if report is None:
        report = e3_dims(n)
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
