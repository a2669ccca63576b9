"""Sparse exact elimination against a dense Fraction Gauss-Jordan oracle."""

import random
from fractions import Fraction
from math import gcd

from conftorus.linalg import (
    SignedUnionFind,
    SparseEchelon,
    kernel_of_columns,
    rank_of_rows,
)

SEEDS = range(40)


def random_matrix(rng):
    """Integer matrix with entries in -3..3, about a third of them zero, plus
    a few rows that are integer combinations of earlier ones."""
    ncols = rng.randint(1, 8)
    rows = [
        [rng.choice((0, 0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(ncols)]
        for _ in range(rng.randint(0, 7))
    ]
    for _ in range(rng.randint(0, 3)):
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows, ncols


def sparse(row):
    return {c: v for c, v in enumerate(row) if v}


def dense_rref(rows, ncols):
    """Reduced row echelon form over Fraction, pivoting on the largest column
    first (the echelon's convention); returns {pivot column: row}."""
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = {}
    for col in reversed(range(ncols)):
        hit = next((r for r in work if r[col]), None)
        if hit is None:
            continue
        work.remove(hit)
        hit = [v / hit[col] for v in hit]
        for r in work:
            if r[col]:
                f = r[col]
                r[:] = [x - f * y for x, y in zip(r, hit)]
        for p, r in pivots.items():
            if r[col]:
                f = r[col]
                pivots[p] = [x - f * y for x, y in zip(r, hit)]
        pivots[col] = hit
    return pivots


def dense_kernel(rows, ncols):
    """Kernel basis with a 1 on one free column and 0 on the others."""
    pivots = dense_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for p, r in pivots.items():
            if r[free]:
                vec[p] = -r[free]
        basis.append(vec)
    return basis


def test_rank_and_kernel_match_dense_oracle():
    for seed in SEEDS:
        rows, ncols = random_matrix(random.Random(seed))
        pivots = dense_rref(rows, ncols)
        assert rank_of_rows([sparse(r) for r in rows]) == len(pivots), seed
        # seeded with the rows of an echelon of a prefix, the rank the rest
        # adds, and the seed rows are left as they were
        k = len(rows) // 2
        base = echelon(rows[:k]).rows
        kept = {p: dict(row) for p, row in base.items()}
        added = rank_of_rows([sparse(r) for r in rows[k:]], base)
        assert added == len(pivots) - len(dense_rref(rows[:k], ncols)), seed
        assert base == kept, seed
        columns = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]
        kernel = kernel_of_columns(columns, ncols)
        dense = dense_kernel(rows, ncols)
        assert len(kernel) == len(dense) == ncols - len(pivots), seed
        # each vector is the dense one times its own free-column entry
        for vec, want in zip(kernel, dense):
            free = next(iter(want))
            assert next(iter(vec)) == free and vec[free] > 0, seed
            assert all(type(v) is int for v in vec.values()), seed
            assert vec == {c: v * vec[free] for c, v in want.items()}, seed
        for vec in kernel:
            for r in rows:
                assert sum(r[c] * v for c, v in vec.items()) == 0, seed


def test_kernel_does_not_depend_on_the_order_of_row_keys():
    """Shuffling the row keys inside each column changes the order in which
    equations are met and tied; every vector keeps its values and its key
    order: the free column, then the pivots ascending."""
    for seed in SEEDS:
        rng = random.Random(seed)
        rows, ncols = random_matrix(rng)
        columns = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]
        want = [list(vec.items()) for vec in kernel_of_columns(columns, ncols)]
        for vec in want:
            keys = [c for c, _ in vec]
            assert keys[1:] == sorted(keys[1:]), seed
            assert keys[0] not in dense_rref(rows, ncols), seed
        for _ in range(3):
            shuffled = []
            for col in columns:
                items = list(col.items())
                rng.shuffle(items)
                shuffled.append(dict(items))
            got = kernel_of_columns(shuffled, ncols)
            assert [list(vec.items()) for vec in got] == want, seed


def echelon(rows):
    ech = SparseEchelon()
    for r in rows:
        ech.add_row(sparse(r))
    return ech


def test_installed_rows_are_content_free_with_positive_pivot():
    for seed in SEEDS:
        rng = random.Random(seed)
        rows, ncols = random_matrix(rng)
        ech = echelon(rows)
        assert set(ech.rows) == set(dense_rref(rows, ncols)), seed
        for p, row in ech.rows.items():
            assert p == max(row) and row[p] > 0, seed
            assert all(type(v) is int and v for v in row.values()), seed
            g = 0
            for v in row.values():
                g = gcd(g, v)
            assert g == 1, seed
        for _ in range(3):
            rng.shuffle(rows)
            assert set(echelon(rows).rows) == set(ech.rows), seed


def test_both_pivot_branches_run(monkeypatch):
    """Over the seeds, some installed pivot entry is 1 (rows meeting it are
    reduced in place) and some is larger, and rows are scaled and divided
    by their content after steps against it: more content divisions than
    installed rows."""
    calls = []
    normalize = SparseEchelon._normalize
    monkeypatch.setattr(
        SparseEchelon, "_normalize", staticmethod(lambda row: calls.append(1) or normalize(row))
    )
    leads, installed = set(), 0
    for seed in SEEDS:
        ech = echelon(random_matrix(random.Random(seed))[0])
        leads |= {row[p] for p, row in ech.rows.items()}
        installed += len(ech.rows)
    assert 1 in leads and max(leads) > 1
    assert len(calls) > installed


def test_reduction_against_unit_pivot_keeps_caller_row():
    ech = SparseEchelon()
    assert ech.add_row({3: 1, 1: 2})
    row = {3: 2, 2: 5, 1: 4}
    assert ech.add_row(row)
    assert row == {3: 2, 2: 5, 1: 4}
    assert ech.rows == {3: {3: 1, 1: 2}, 2: {2: 1}}
    assert not ech.add_row({3: -3, 2: 7, 1: -6})
    assert len(ech.rows) == 2


# -- signed union-find -------------------------------------------------------


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols))


def test_signed_union_find_matches_dense_rank():
    """Each union a = s * b is the row a - s * b over the keys.  The live
    roots are exactly the columns that are not max-column pivots of those
    rows, ``k = sign * root`` (or ``k = 0`` in a zero class) lies in their
    span, and a projected row differs from the row by the span.  The seeds
    close cycles with a sign conflict and merge zero classes into live
    ones."""
    conflicts = zero_merges = 0
    for seed in range(80):
        rng = random.Random(seed)
        keys = sorted(rng.sample(range(40), rng.randint(1, 10)))
        col = {k: i for i, k in enumerate(keys)}
        uf = SignedUnionFind()
        rows = []
        for _ in range(rng.randint(0, 12)):
            a, b, s = rng.choice(keys), rng.choice(keys), rng.choice((1, -1))
            (ra, _), (rb, _) = uf.find(a), uf.find(b)
            zero_before = {ra, rb} & uf.zero
            uf.union(a, b, s)
            if ra != rb and len(zero_before) == 1:
                zero_merges += 1
            row = [0] * len(keys)
            row[col[a]] += 1
            row[col[b]] -= s
            rows.append(row)
        conflicts += bool(uf.zero)
        ncols = len(keys)
        rank = dense_rank(rows, ncols)
        live = [k for k in keys if k not in uf.parent and k not in uf.zero]
        pivots = dense_rref(rows, ncols)
        assert live == [k for k in keys if col[k] not in pivots], seed
        for k in keys:
            root, sign = uf.find(k)
            assert root <= k, seed
            row = [0] * ncols
            row[col[k]] += 1
            if root not in uf.zero:
                row[col[root]] -= sign
            assert dense_rank(rows + [row], ncols) == rank, (seed, k)
        vec = {k: rng.randint(-3, 3) for k in keys}
        got = uf.project(vec.items())
        assert set(got) <= set(live), seed
        diff = [vec[k] - got.get(k, 0) for k in keys]
        assert dense_rank(rows + [diff], ncols) == rank, seed
    assert conflicts > 10 and zero_merges > 10


def test_signed_union_find_zero_class_merges_into_a_live_one():
    uf = SignedUnionFind()
    uf.union(5, 3, 1)
    uf.union(3, 5, -1)  # 3 = 5 = -3
    assert uf.zero == {3}
    uf.union(2, 1, -1)
    uf.union(7, 2, 1)
    assert uf.find(7) == (1, -1) and uf.zero == {3}
    uf.union(2, 5, 1)  # the zero class {3, 5} joins {1, 2, 7}
    assert uf.find(5)[0] == 1 and uf.zero == {1}
    assert uf.project({2: 4, 7: 1, 8: -2}.items()) == {8: -2}
