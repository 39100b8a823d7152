"""Exact linear algebra over the integers.

Small, dependency-free routines used by the tangent-space checkers (and,
for ``clear_denominators``, the cycle core): reduced row echelon form,
rank, nullspace, linear solves and determinants.  They take integer rows
and return integer rows; the only rational output is the solution of
``solve_columns``.  Rationals are cleared where they enter, by
``clear_denominators``, which takes ints and Fractions only: scaling a
row by a nonzero constant leaves the rank, the pivot columns and the row
space unchanged.  All routines run one exact elimination over integer
rows, ``_eliminate``.  Each of its updates is an integer combination of
two rows by gcd-reduced factors, followed by division by the row's
content, so every step is exact in the integers and every updated row is
primitive; rows with a zero in the pivot column are skipped.

``solve_columns``, ``_back_substitute`` and ``exact_rank`` have no caller
in the package.  They stay because the benchmark's tracer wraps
``solve_columns`` and ``exact_rank`` by name (a test checks that they
exist) and the window rule's test oracle solves through ``solve_columns``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod


def clear_denominators(vec) -> tuple[int, list[int]]:
    """(d, d * vec) with d the least common multiple of the denominators of
    the int or Fraction entries, so that d * vec is a list of ints; any
    other entry, a float, a Decimal or a str, raises ``TypeError``."""
    for x in vec:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"entries must be ints or Fractions, got {x!r}")
    d = lcm(*[x.denominator for x in vec])
    return d, [x.numerator * (d // x.denominator) for x in vec]


def _eliminate(m: list[list[int]], ncols: int, reduce: bool = False) -> tuple[list[int], int, int]:
    """Exact elimination of the integer rows ``m`` over their first
    ``ncols`` columns; further columns (a right-hand side) are carried along.

    At each pivot ``piv`` (the first nonzero entry at or below the current
    row, columns in order) every other row with a nonzero ``f`` in the pivot
    column becomes ``(piv//g)*row - (f//g)*pivot_row``, ``g = gcd(piv, f)``,
    divided by its content (the gcd of its entries).  Every update is exact
    in the integers: both factors are integers, the pivot-column entry
    becomes ``(piv*f - f*piv)//g == 0`` and the content divides each entry;
    ``piv//g != 0`` keeps the row space.  Rows with a zero in the pivot
    column are skipped, so the cost follows the nonzeros of sparse input.

    Returns (pivot columns, num, den).  Afterwards row i of ``m`` has its
    pivot at column pivots[i], and rows past the pivot rows are zero in the
    first ``ncols`` columns.  With ``reduce`` the rows above each pivot are
    eliminated as well, and each pivot row is its RREF row times its own
    pivot, not one common d times its RREF row.  For square input,
    det(input) is num / den times the product of the diagonal of the
    result: num is the swap sign times the contents divided out, den the
    product of the ``piv//g`` factors.

    ``m`` is reordered and its rows are replaced, never modified in place,
    so it may share row lists with the caller's input.
    """
    pivots: list[int] = []
    num, den = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            num = -num
        piv = m[r][c]
        # below the pivot rows, columns before c are already zero
        start = 0 if reduce else c
        pivot_tail = m[r][start:]
        for i in range(0 if reduce else r + 1, len(m)):
            row = m[i]
            f = row[c]
            if not f or i == r:
                continue
            g = gcd(piv, f)
            a, b = piv // g, f // g
            tail = [a * x - b * y for x, y in zip(row[start:], pivot_tail)]
            content = gcd(*tail)
            if content > 1:
                tail = [x // content for x in tail]
                num *= content
            m[i] = row[:start] + tail
            den *= a
        pivots.append(c)
    return pivots, num, den


def _primitive(row: list[int], c: int) -> list[int]:
    """``row`` divided by its content, signed to make ``row[c]`` positive."""
    g = gcd(*row) if row[c] > 0 else -gcd(*row)
    return [x // g for x in row]


def rref(rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows; returns (rows, pivot
    column indices).  Each row is its RREF row scaled to the primitive
    integer row with a positive pivot, a canonical form of the row space."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    pivots, _, _ = _eliminate(m, len(m[0]), reduce=True)
    return [_primitive(row, c) for row, c in zip(m, pivots)], pivots


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in rows]
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
    """Exact determinant of a square integer matrix: the product of the
    eliminated diagonal times num / den as ``_eliminate`` reports them."""
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    pivots, num, den = _eliminate(m, n)
    if len(pivots) < n:
        return 0
    return prod(row[i] for i, row in enumerate(m)) * num // den


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
    pivots, _, _ = _eliminate(m, ncols)
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
