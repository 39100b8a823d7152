"""Exact linear algebra: rank, rref, nullspace, solve, determinant."""

import random
from fractions import Fraction

from pontcalc.linalg import (
    det,
    exact_rank,
    int_rank,
    nullspace,
    rref,
    solve_columns,
    solve_rows,
)


def rand_matrix(rng, nrows, ncols, bound=4):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_agreement_int_vs_fraction():
    rng = random.Random(0)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert int_rank(m) == len(rref(m)[0])


def test_rank_known_cases():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_rref_idempotent_and_pivots():
    rng = random.Random(1)
    for _ in range(20):
        m = rand_matrix(rng, 4, 5)
        red, pivots = rref(m)
        red2, pivots2 = rref(red)
        assert red == red2 and pivots == pivots2
        for i, c in enumerate(pivots):
            assert red[i][c] == 1
            assert all(red[r][c] == 0 for r in range(len(red)) if r != i)


def test_nullspace_annihilates():
    rng = random.Random(2)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, nrows, ncols)
        basis = nullspace(m, ncols)
        assert len(basis) == ncols - exact_rank(m)
        for vec in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_solve_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, nrows, ncols)
        x_true = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
        b = [sum(m[i][j] * x_true[j] for j in range(ncols)) for i in range(nrows)]
        x = solve_rows(m, b)
        assert x is not None
        # any exact solution is acceptable; verify the residual
        for i in range(nrows):
            assert sum(m[i][j] * x[j] for j in range(ncols)) == b[i]


def test_solve_detects_inconsistency():
    assert solve_rows([[1, 1], [1, 1]], [1, 2]) is None
    assert solve_columns([[1, 0], [0, 0]], [0, 5]) is None
    assert solve_columns([], [0, 0]) == []
    assert solve_columns([], [1]) is None


def test_solve_with_fraction_entries():
    cols = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    x = solve_columns(cols, [1, 2])
    assert x == [2, 6]


def test_det():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det([[0, 2], [Fraction(1, 3), 0]]) == Fraction(-2, 3)
    rng = random.Random(4)
    for _ in range(20):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        ab = [
            [sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert det(ab) == det(a) * det(b)


# ---------------------------------------------------------------------------
# differential test: every entry point against a textbook Fraction oracle
# ---------------------------------------------------------------------------


def oracle_gauss_jordan(rows):
    """Fraction Gauss-Jordan kept apart from the library's integer core:
    (RREF rows, pivot columns, determinant, meaningful for square input)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, d = [], Fraction(1)
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            d = Fraction(0)
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            d = -d
        d *= m[r][c]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots, d


def oracle_solve(columns, target):
    """Solution with free coefficients zero, columns taken sparsest-first."""
    ncols = len(columns)
    order = sorted(range(ncols), key=lambda j: (sum(1 for x in columns[j] if x != 0), j))
    augmented = [[columns[j][i] for j in order] + [target[i]] for i in range(len(target))]
    red, pivots, _ = oracle_gauss_jordan(augmented)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        x[order[p]] = row[ncols]
    return x


def awkward_matrix(rng, nrows, ncols, fractions):
    """Random matrix with, at random, a zero column, a dependent row and a
    zero leading entry that forces a row swap."""
    def entry():
        bound = rng.choice((2, 5, 60))
        if fractions:
            return Fraction(rng.randint(-bound, bound), rng.randint(1, 7))
        return rng.randint(-bound, bound)

    m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in m:
            row[c] = 0
    if nrows >= 3 and rng.random() < 0.4:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    if rng.random() < 0.4:
        m[0][0] = 0
    rng.shuffle(m)
    return m


def test_single_core_matches_fraction_oracle():
    rng = random.Random(2024)
    for trial in range(400):
        fractions = trial % 2 == 1
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = awkward_matrix(rng, nrows, ncols, fractions)
        red, pivots, _ = oracle_gauss_jordan(m)
        assert rref(m) == (red, pivots), m
        assert exact_rank(m) == len(pivots), m
        if not fractions:
            assert int_rank(m) == len(pivots), m
        kernel = nullspace(m)
        assert len(kernel) == ncols - len(pivots), m
        for vec in kernel:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m), m
        assert nullspace(red, ncols) == kernel, m

        n = rng.randint(1, 5)
        square = awkward_matrix(rng, n, n, fractions)
        assert det(square) == oracle_gauss_jordan(square)[2], square

        columns = [list(col) for col in zip(*m)]
        target = [
            sum(rng.randint(-2, 2) * x for x in row) if rng.random() < 0.7 else rng.randint(-3, 3)
            for row in m
        ]
        assert solve_columns(columns, target) == oracle_solve(columns, target), (m, target)

