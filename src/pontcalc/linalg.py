"""Exact linear algebra over the integers.

Small, dependency-free routines used by the tangent-space checkers (and,
for ``clear_denominators``, the cycle core and the series model): reduced
row echelon form, rank, nullspace, linear solves and determinants.  They
take integer rows and return integer rows; the only rational output is the
solution of ``solve_columns``.  Rationals are cleared where they enter, by
``clear_denominators``, which takes ints and Fractions only: scaling a
row by a nonzero constant leaves the rank, the pivot columns and the row
space unchanged.  All routines run one exact elimination over integer
rows, ``_eliminate``: Bareiss's fraction-free elimination, in which each
update is an integer combination of two rows divided exactly by an earlier
pivot, and rows with a zero in the pivot column are skipped.

``solve_columns``, ``_back_substitute`` and ``exact_rank`` have no caller
in the package.  They stay because the benchmark's tracer wraps
``solve_columns`` and ``exact_rank`` by name (a test checks that they
exist) and the window rule's test oracle solves through ``solve_columns``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(vec) -> tuple[int, list[int]]:
    """(d, d * vec) with d the least common multiple of the denominators of
    the int or Fraction entries, so that d * vec is a list of ints; any
    other entry, a float, a Decimal or a str, raises ``TypeError``.  An
    all-int ``vec`` (bools are not ints here) is returned as a new list
    with d = 1."""
    vec = list(vec)  # read once: ``vec`` may be an iterator
    if {*map(type, vec)} <= {int}:
        return 1, vec
    for x in vec:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"entries must be ints or Fractions, got {x!r}")
    d = lcm(*[x.denominator for x in vec])
    return d, [x.numerator * (d // x.denominator) for x in vec]


def _eliminate(m: list[list[int]], ncols: int, reduce: bool = False) -> tuple[list[int], int]:
    """Bareiss elimination of the integer rows ``m`` over their first
    ``ncols`` columns; further columns (a right-hand side) are carried along.

    At each pivot ``piv`` (the first nonzero entry at or below the current
    row, columns in order) every other row with a nonzero ``f`` in the pivot
    column becomes ``[(piv*x - f*y) // d_i for x, y in zip(row, pivot_row)]``,
    where ``d_i`` is the pivot that last divided row i (1 at the start); the
    row then records ``piv`` as its ``d_i``, and so does the pivot row.
    ``piv != 0``, so the row space is kept.  Rows with a zero in the pivot
    column are skipped, so the cost follows the nonzeros of sparse input.
    Plain Bareiss would multiply a skipped row by ``piv / prev`` at every
    pivot; the row owes the product instead, ``prev / d_i`` with ``prev``
    the last pivot, applied in one pass, ``x * prev // d_i``, only if the
    row becomes the pivot row.  An update settles the debt by itself, as it
    divides by the row's own ``d_i``.

    Every division is exact, because every stored entry is a minor of the
    input (Sylvester's identity).  After the pivots p_1..p_k on rows
    R_1..R_k and columns c_1..c_k, a row i below them with ``d_i == p_k``
    holds in column j the determinant on rows R_1..R_k, i and columns
    c_1..c_k, j; with ``reduce``, a row above with ``d_i == p_k``,
    the pivot row included, holds p_k times its reduced row, whose entries
    are minors by Cramer's rule.  A row skipped since ``d_i`` holds these
    minors as of ``d_i``; times ``prev / d_i`` they are the minors as of
    ``prev``, and ``(piv*x - f*y) // d_i`` is the Bareiss step from those,
    so both results are minors, hence integers.

    Returns (pivot columns, sign of the row swaps).  Afterwards row i of
    ``m`` has its pivot at column pivots[i], and rows past the pivot rows
    are zero in the first ``ncols`` columns.  With ``reduce`` the rows above
    each pivot are eliminated as well, and each pivot row is its RREF row
    times the pivot it records, not one common multiple.  For square input
    of full rank the last diagonal entry is the last pivot: the
    determinant of the input with its rows swapped, i.e. sign times
    det(input).

    ``m`` is reordered and its rows are replaced, never modified in place,
    so it may share rows, lists or tuples, with the caller's input.
    """
    pivots: list[int] = []
    sign, prev = 1, 1
    d = [1] * len(m)
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        for pr in range(r, len(m)):
            if m[pr][c]:
                break
        else:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            d[r], d[pr] = d[pr], d[r]
            sign = -sign
        pivot_row = m[r]
        if d[r] != prev:
            pivot_row = m[r] = [x * prev // d[r] for x in pivot_row]
        piv = pivot_row[c]
        for i in range(0 if reduce else r + 1, len(m)):
            row = m[i]
            f = row[c]
            if f and i != r:
                di = d[i]
                m[i] = [(piv * x - f * y) // di for x, y in zip(row, pivot_row)]
                d[i] = piv
        d[r] = prev = piv
        pivots.append(c)
    return pivots, sign


def _primitive(row: list[int], c: int) -> list[int]:
    """``row`` divided by its content, signed to make ``row[c]`` positive."""
    g = gcd(*row) if row[c] > 0 else -gcd(*row)
    return [x // g for x in row]


def rref(rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows; returns (rows, pivot
    column indices).  Each row is its RREF row scaled to the primitive
    integer row with a positive pivot, a canonical form of the row space."""
    m = list(rows)
    if not m:
        return [], []
    pivots, _ = _eliminate(m, len(m[0]), reduce=True)
    return [_primitive(row, c) for row, c in zip(m, pivots)], pivots


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = list(rows)
    return len(_eliminate(m, len(m[0]))[0]) if m else 0


def exact_rank(rows) -> int:
    """Rank of a matrix of ints and Fractions; each row is cleared of its
    denominators first."""
    m = [clear_denominators(row)[1] for row in rows]
    return len(_eliminate(m, len(m[0]))[0]) if m else 0


def nullspace(rows, ncols: int | None = None) -> list[list[int]]:
    """Basis of {x : M x = 0} for integer rows M, one row per free column:
    the primitive integer vector that is positive at its free column, zero
    at the other free columns and solves M x = 0."""
    rows = list(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows)
    scale = lcm(*[row[c] for row, c in zip(red, pivots)])
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(_primitive(vec, fc))
    return basis


def det(rows) -> int:
    """Exact determinant of a square integer matrix: Bareiss elimination
    leaves the determinant of the row-swapped matrix in the last diagonal
    entry, so it is that entry times the swap sign at full rank, else 0."""
    m = list(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if not m:
        return 1
    pivots, sign = _eliminate(m, n)
    return sign * m[-1][-1] if len(pivots) == n else 0


def solve_columns(columns, target):
    """Exact solution x of  sum_j x_j * columns[j] == target, or None.

    ``columns`` is a list of integer column vectors (lists, all the same
    length) and ``target`` an integer vector.  Columns are eliminated
    sparsest-first, which keeps certificate multipliers small, and free
    coefficients are set to zero.  The solution is a list of Fractions.
    """
    ncols = len(columns)
    order = sorted(range(ncols), key=lambda j: (len(columns[j]) - columns[j].count(0), j))
    m = [list(row) for row in zip(*[columns[j] for j in order], target)]
    pivots, _ = _eliminate(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for pos, v in _back_substitute(m, pivots, ncols).items():
        sol[order[pos]] = v
    return sol


def _back_substitute(m, piv_cols, ncols) -> dict[int, Fraction]:
    """The nonzero entries of the solution with free coefficients zero.
    Pivot rows are solved bottom-up, each over the entries found so far,
    which all lie right of its pivot."""
    x: dict[int, Fraction] = {}
    for ri in reversed(range(len(piv_cols))):
        row = m[ri]
        s = Fraction(row[ncols])
        for j, v in x.items():
            if row[j]:
                s -= row[j] * v
        if s:
            x[piv_cols[ri]] = s / row[piv_cols[ri]]
    return x
