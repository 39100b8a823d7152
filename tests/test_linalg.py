"""Exact linear algebra: rank, rref, nullspace, solve, determinant."""

import copy
import itertools
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, prod

import pytest

from pontcalc.linalg import (
    clear_denominators,
    det,
    exact_rank,
    int_rank,
    nullspace,
    rref,
    solve_columns,
)


def rand_matrix(rng, nrows, ncols, bound=4):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def integer_rows(rows):
    return [clear_denominators(row)[1] for row in rows]


def det_rational(rows):
    """det on rational input: each row cleared of its denominators, the
    determinant divided by the product of the row scales."""
    scales = [clear_denominators(row)[0] for row in rows]
    return Fraction(det(integer_rows(rows)), prod(scales))


def solve_rational(columns, target):
    """solve_columns on rational input: each column and the target cleared
    of denominators, the solution y scaled back as y_j * d_j / d_target."""
    scales = [clear_denominators(col)[0] for col in columns]
    t_scale, t = clear_denominators(target)
    y = solve_columns(integer_rows(columns), t)
    return None if y is None else [v * d / t_scale for v, d in zip(y, scales)]


def assert_primitive(rows, lead_columns):
    """Each row is a primitive integer row, positive in its lead column."""
    for row, c in zip(rows, lead_columns, strict=True):
        assert all(type(x) is int for x in row), row
        assert row[c] > 0 and gcd(*row) == 1, (row, c)


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


def test_clear_denominators_takes_only_ints_and_fractions():
    assert clear_denominators([Fraction(1, 2), 3, Fraction(-2, 3)]) == (6, [3, 18, -4])
    assert clear_denominators([]) == (1, [])
    for entry in (0.5, Decimal("1.5"), "1/2"):
        with pytest.raises(TypeError, match="ints or Fractions"):
            clear_denominators([1, entry])


def test_rref_idempotent_and_pivots():
    rng = random.Random(1)
    for _ in range(20):
        m = rand_matrix(rng, 4, 5)
        red, pivots = rref(m)
        red2, pivots2 = rref(red)
        assert red == red2 and pivots == pivots2
        assert_primitive(red, pivots)
        for i, c in enumerate(pivots):
            assert all(red[r][c] == 0 for r in range(len(red)) if r != i)


def test_nullspace_annihilates():
    rng = random.Random(2)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, nrows, ncols)
        basis = nullspace(m, ncols)
        assert len(basis) == ncols - exact_rank(m)
        free = [c for c in range(ncols) if c not in rref(m)[1]]
        assert_primitive(basis, free)
        for vec, fc in zip(basis, free):
            assert all(vec[c] == 0 for c in free if c != fc)
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
        x = solve_rational([list(col) for col in zip(*m)], b)
        assert x is not None
        # any exact solution is acceptable; verify the residual
        for i in range(nrows):
            assert sum(m[i][j] * x[j] for j in range(ncols)) == b[i]


def test_solve_detects_inconsistency():
    assert solve_columns([[1, 1], [1, 1]], [1, 2]) is None
    assert solve_columns([[1, 0], [0, 0]], [0, 5]) is None
    assert solve_columns([], [0, 0]) == []
    assert solve_columns([], [1]) is None


def test_solve_with_fraction_entries():
    # rational columns are cleared by the caller and the solution scaled back
    assert solve_columns([[1, 0], [0, 1]], [1, 2]) == [1, 2]
    assert solve_rational([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], [1, 2]) == [2, 6]
    assert solve_rational([[2, 0], [0, 3]], [Fraction(1, 2), 1]) == [Fraction(1, 4), Fraction(1, 3)]


def test_det():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det([[6, 4], [3, 8]]) == 36 and type(det([[6, 4], [3, 8]])) is int
    assert det_rational([[0, 2], [Fraction(1, 3), 0]]) == Fraction(-2, 3)
    with pytest.raises(ValueError, match="square"):
        det([[1, 2]])
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
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
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


def oracle_nullspace(red, pivots, ncols):
    """Kernel basis read off the oracle RREF: 1 at each free column."""
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


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


def tall_sparse_matrix(rng, fractions):
    """Matrix shaped like the window solve's Macaulay matrices: 20-60 rows,
    30-120 columns, at most 4 nonzeros per column, with repeated columns,
    scaled copies and sums of two columns among them."""
    nrows, ncols = rng.randint(20, 60), rng.randint(30, 120)

    def entry():
        value = rng.choice((1, 1, 2, 3, 60)) * rng.choice((-1, 1))
        return Fraction(value, rng.randint(1, 4)) if fractions else value

    columns = []
    while len(columns) < ncols:
        roll = rng.random()
        if columns and roll < 0.15:
            columns.append(list(rng.choice(columns)))
        elif columns and roll < 0.25:
            columns.append([entry() * x for x in rng.choice(columns)])
        elif len(columns) >= 2 and roll < 0.4:
            a, b = rng.sample(columns, 2)
            col = [x + y for x, y in zip(a, b)]
            if sum(1 for x in col if x) <= 4:
                columns.append(col)
        else:
            col = [0] * nrows
            for i in rng.sample(range(nrows), rng.randint(0, 4)):
                col[i] = entry()
            columns.append(col)
    return [list(row) for row in zip(*columns)]


def test_single_core_matches_fraction_oracle():
    rng = random.Random(2024)
    solved = {True: 0, False: 0}
    for trial in range(440):
        fractions = trial % 2 == 1
        tall = trial >= 400
        if tall:
            m = tall_sparse_matrix(rng, fractions)
        else:
            m = awkward_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), fractions)
        ncols = len(m[0])
        red, pivots, _ = oracle_gauss_jordan(m)
        # the integer routines see m with each row cleared of denominators
        ints = integer_rows(m)
        int_red = rref(ints)
        assert int_red == (integer_rows(red), pivots), m
        assert_primitive(int_red[0], pivots)
        assert exact_rank(m) == exact_rank(ints) == len(pivots), m
        assert int_rank(ints) == len(pivots), m
        kernel = nullspace(ints)
        assert kernel == integer_rows(oracle_nullspace(red, pivots, ncols)), m
        assert_primitive(kernel, [c for c in range(ncols) if c not in pivots])
        if not tall:  # on tall input the oracle kernel above pins it
            for vec in kernel:
                assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m), m
        assert nullspace(int_red[0], ncols) == kernel, m

        n = rng.randint(1, 5)
        square = awkward_matrix(rng, n, n, fractions)
        assert det_rational(square) == oracle_gauss_jordan(square)[2], square

        columns = [list(col) for col in zip(*m)]
        if tall:
            # M x for a sparse x, then one entry moved in half of the cases
            x = [rng.randint(-3, 3) if rng.random() < 0.2 else 0 for _ in columns]
            target = [sum(a * b for a, b in zip(row, x)) for row in m]
            if trial % 4 < 2:
                target[rng.randrange(len(target))] += 1
        else:
            target = [
                sum(rng.randint(-2, 2) * x for x in row) if rng.random() < 0.7 else rng.randint(-3, 3)
                for row in m
            ]
        expected = oracle_solve(columns, target)
        assert solve_rational(columns, target) == expected, (m, target)
        if tall:
            solved[expected is not None] += 1
    assert solved[True] and solved[False]


# ---------------------------------------------------------------------------
# rows skipped at earlier pivots that later become pivot rows
# ---------------------------------------------------------------------------


def block_diagonal_permuted(rng, square):
    """Random blocks, zeros allowed inside them, set on the diagonal with the
    rows shuffled: at each pivot the rows of the other blocks are skipped,
    and most of them become pivot rows later."""
    shapes = []
    for _ in range(rng.randint(2, 4)):
        n = rng.randint(1, 3)
        shapes.append((n, n if square else rng.randint(1, 3)))
    ncols = sum(w for _, w in shapes)
    m, col = [], 0
    for h, w in shapes:
        for _ in range(h):
            row = [0] * ncols
            row[col:col + w] = [rng.choice((0, 1, -2, 3, 7, -12)) for _ in range(w)]
            m.append(row)
        col += w
    rng.shuffle(m)
    return m


def assert_matches_oracle(m):
    red, pivots, oracle_det = oracle_gauss_jordan(m)
    ncols = len(m[0])
    assert rref(m) == (integer_rows(red), pivots), m
    assert int_rank(m) == exact_rank(m) == len(pivots), m
    assert nullspace(m) == integer_rows(oracle_nullspace(red, pivots, ncols)), m
    if len(m) == ncols:
        assert det(m) == oracle_det and det_rational(m) == oracle_det, m


def test_skipped_rows_that_become_pivots():
    # rows 1 and 2 are skipped at the pivot 2; row 2 is swapped up and is
    # the next pivot row, owing 2, and row 1 the last one, owing 2 * 5
    assert det([[2, 0, 1], [0, 0, 3], [0, 5, 1]]) == -30
    for m in (
        [[2, 0, 1], [0, 0, 3], [0, 5, 1]],
        [[3, 0, 0, 1], [0, 0, 4, 2], [0, 0, 0, 5], [0, 6, 1, 0]],
        [[0, 0, 7], [5, 0, 0], [0, 3, 0], [2, 0, 0]],
        [[4, 2, 0, 0], [0, 0, 6, 3], [2, 1, 0, 0], [0, 0, 0, 9]],
    ):
        assert_matches_oracle(m)
    rng = random.Random(27)
    for trial in range(300):
        assert_matches_oracle(block_diagonal_permuted(rng, square=trial % 2 == 0))


def test_det_of_permutation_matrices_is_their_sign():
    for n in (3, 4):
        for perm in itertools.permutations(range(n)):
            inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            m = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
            assert det(m) == (-1) ** inversions, perm


def test_inputs_are_not_mutated():
    rng = random.Random(28)
    matrices = [awkward_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), False) for _ in range(40)]
    matrices += [block_diagonal_permuted(rng, square=True) for _ in range(20)]
    for m in matrices:
        results = {}
        for kind, rows in (("lists", m), ("tuples", [tuple(row) for row in m])):
            before = copy.deepcopy(rows)
            results[kind] = [int_rank(rows), exact_rank(rows), rref(rows), nullspace(rows)]
            if len(rows) == len(rows[0]):
                results[kind].append(det(rows))
            assert rows == before, before
        assert results["lists"] == results["tuples"], m


def test_clear_denominators_int_path_returns_a_new_list():
    for vec in ([3, -1, 0], (3, -1, 0), []):
        den, out = clear_denominators(vec)
        assert (den, out) == (1, list(vec)) and type(out) is list
        out.append(7)
        assert 7 not in vec
    # an iterator is read once, on either path
    assert clear_denominators(x for x in [1, 2]) == (1, [1, 2])
    assert clear_denominators(x for x in [Fraction(1, 2), 2]) == (2, [1, 4])
    # bools are not ints here: they take the Fraction path and come out 1 and 0
    den, out = clear_denominators([True, False, 2])
    assert (den, out) == (1, [1, 0, 2])
    assert [type(x) for x in out] == [int, int, int]
