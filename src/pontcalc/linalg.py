"""Exact linear algebra over the rationals.

Small, dependency-free routines used by the certificate engine and the
tangent-space checkers: reduced row echelon form, rank, nullspace, linear
solves and determinants.  All of them run one fraction-free (Bareiss)
elimination over integer rows, ``_eliminate``.  Rational input (ints or
Fractions) is made integral at the boundary by clearing denominators per
row, or per column in ``solve_columns``; scaling a row or a column by a
nonzero constant leaves the rank, the pivot columns and the row space
unchanged.  Bareiss quotients are exact for any integer input, with any
row swaps and skipped columns (Bareiss 1968, Math. Comp. 22), so no
Fraction arithmetic happens inside the elimination.  Fractions appear only
in the outputs: RREF rows, nullspace vectors, determinants and solutions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def clear_denominators(vec) -> tuple[int, list[int]]:
    """(d, d * vec) with d the least common multiple of the denominators of
    the int or Fraction entries, so that d * vec is a list of ints.  A list
    of ints is returned itself, uncopied, with d = 1."""
    if type(vec) is list and all(type(x) is int for x in vec):
        return 1, vec
    d = lcm(*[x.denominator for x in vec])
    return d, [x.numerator * (d // x.denominator) for x in vec]


def _eliminate(m: list[list[int]], ncols: int, reduce: bool = False) -> tuple[list[int], int]:
    """Fraction-free elimination of the integer rows ``m`` over their first
    ``ncols`` columns; further columns (a right-hand side) are carried along.

    Returns (pivot columns, sign of the row permutation).  Afterwards row i
    of ``m`` has its pivot at column pivots[i], and rows past the pivot rows
    are zero in the first ``ncols`` columns.  Every entry is a minor of the
    input, so each ``// prev`` divides exactly; for a square matrix of full
    rank the last pivot is the determinant of the row-permuted input.  With
    ``reduce`` the rows above each pivot are eliminated as well (fraction-
    free Gauss-Jordan): every pivot row ends as d times its RREF row, with
    d the last pivot.

    ``m`` is reordered and its rows are replaced, never modified in place,
    so it may share row lists with the caller's input.
    """
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        piv = m[r][c]
        # below the pivot rows, columns before c are already zero
        start = 0 if reduce else c
        pivot_tail = m[r][start:]
        for i in range(0 if reduce else r + 1, len(m)):
            if i != r:
                row = m[i]
                f = row[c]
                m[i] = row[:start] + [(a * piv - f * b) // prev for a, b in zip(row[start:], pivot_tail)]
        prev = piv
        pivots.append(c)
    return pivots, sign


def _integer_rows(rows) -> list[list[int]]:
    return [clear_denominators(row)[1] for row in rows]


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = _integer_rows(rows)
    if not m:
        return [], []
    pivots, _ = _eliminate(m, len(m[0]), reduce=True)
    if not pivots:
        return [], []
    d = m[len(pivots) - 1][pivots[-1]]
    return [[Fraction(x, d) for x in row] for row in m[: len(pivots)]], pivots


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in rows]
    return len(_eliminate(m, len(m[0]))[0]) if m else 0


def exact_rank(rows) -> int:
    """Rank of a matrix of ints and Fractions."""
    m = _integer_rows(rows)
    return len(_eliminate(m, len(m[0]))[0]) if m else 0


def nullspace(rows, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of {x : M x = 0} as rows."""
    rows = list(rows)
    if not rows:
        if ncols is None:
            return []
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
            for i in range(ncols)
        ]
    if ncols is None:
        ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -red[ri][fc]
        basis.append(vec)
    return basis


def det(rows) -> Fraction:
    """Exact determinant: the last Bareiss pivot of the integral rows."""
    rows = list(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    scale, m = 1, []
    for row in rows:
        d, ints = clear_denominators(row)
        scale *= d
        m.append(ints)
    pivots, sign = _eliminate(m, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[-1][-1] if n else 1, scale)


def solve_columns(columns, target):
    """Exact solution x of  sum_j x_j * columns[j] == target, or None.

    ``columns`` is a list of column vectors (lists, all the same length).
    Columns are eliminated sparsest-first, which keeps certificate
    multipliers small, and free coefficients are set to zero.  Each column
    (and the target) is scaled to integers by the lcm of its denominators;
    the solution y of the scaled system gives x_j = y_j * d_j / d_target.
    """
    ncols = len(columns)
    if ncols == 0:
        return [] if all(x == 0 for x in target) else None
    order = sorted(range(ncols), key=lambda j: (len(columns[j]) - columns[j].count(0), j))
    scales, int_cols = zip(*[clear_denominators(columns[j]) for j in order])
    t_scale, t = clear_denominators(target)
    m = [list(row) for row in zip(*int_cols, t)]
    pivots, _ = _eliminate(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    y = _back_substitute(m, pivots, ncols)
    sol = [Fraction(0)] * ncols
    for pos, j in enumerate(order):
        if y[pos]:
            sol[j] = y[pos] * scales[pos] / t_scale
    return sol


def _back_substitute(m, piv_cols, ncols):
    x = [Fraction(0)] * ncols
    for ri in reversed(range(len(piv_cols))):
        c = piv_cols[ri]
        s = Fraction(m[ri][ncols])
        for j in range(c + 1, ncols):
            if x[j]:
                s -= m[ri][j] * x[j]
        x[c] = s / m[ri][c]
    return x


def solve_rows(rows, rhs):
    """Solve  M x = rhs  for row-major M; returns None if inconsistent."""
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    columns = [[row[j] for row in rows] for j in range(ncols)]
    return solve_columns(columns, list(rhs))
