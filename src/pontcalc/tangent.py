"""Exact checkers for the tangent-space vanishing conditions.

Two equivalent conditions are implemented over Q:

* condition (*) on a subspace V of W^k (W = Q^n): for every degree
  1 <= i <= min(n, dim V), every alternating i-form on W, summed over the
  k projection pullbacks, vanishes on V.  Multilinearity and alternation
  reduce the check to coordinate forms and basis i-tuples, i.e. to exact
  determinant sums.
* condition (**) on a tuple (A_1, ..., A_n) of subspaces of Q^k: for
  every choice of one vector from each member of a nonempty subset of the
  tuple, the coordinatewise product has coordinate sum zero.

``split_subspace`` embeds a (**) configuration as a (*) subspace and is
the bridge along which the two checkers cross-validate each other.

Also here: the coordinatewise product span of two subspaces, the span
inequality check dim(A.B + A + B) >= dim A + dim B for admissible pairs,
the generic rank of the bilinear multiplication map, as one exact rank at
the base point (e, e), where over Q it is already reached (see
``mu_generic_rank``), and a budgeted randomized search for configurations
maximizing the total dimension (which the theory bounds by k - 1;
exceeding the bound would be a reportable counterexample, not a
success).  The search
runs the kernel-of-sum witness first, then random candidates, each one
fixed-size record of random bytes.  A record is first chosen by its row
count, then screened on its first pair from the bytes, and only then
built and walked.  A pair (A, B) is admissible exactly
when it satisfies condition (**), and is checked by the same walk; the
left side of the span inequality is one exact rank of both bases stacked
on the product rows.  Work the inputs already decide is skipped: if A or
B is zero the left side is dim A + dim B, with no elimination, since a
basis is independent by construction; and the random pair sampler takes
the dimension of B's space, the sum-zero complement of A, as
k - 1 - dim A, computing a basis of it only when B is nonzero.

A ``Subspace`` is stored like a ``Cycle``: integer basis rows over one
positive common denominator ``den``.  Checks run on the integer rows, as
ranks and vanishing ignore row scaling.  Integer input stays integer:
the constructor keeps int rows as they are, and the file parser reads an
integer token with ``int``.  ``Fraction`` appears only for ``p/q`` file
tokens (cleared in the constructor), in ``Subspace.rows()`` and in the two
witness values.  All verdicts are exact; randomness only chooses where to
look.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .cycles import parse_rational
from .linalg import clear_denominators, det, int_rank, nullspace, rref


class DimensionMismatch(Exception):
    pass


class PreconditionViolated(Exception):
    pass


class Subspace:
    """A linear subspace of Q^ambient_dim given by an independent row basis,
    stored as integer rows ``basis`` over one common denominator ``den`` > 0
    with gcd(den, entries) == 1.  The constructor and ``span`` take ints
    and Fractions only; ``rows()`` gives the basis vectors as Fractions."""

    __slots__ = ("ambient_dim", "basis", "den")

    def __init__(self, ambient_dim: int, rows=()):
        cleared = [clear_denominators(row) for row in rows]
        for _, row in cleared:
            if len(row) != ambient_dim:
                raise DimensionMismatch(
                    f"basis row has length {len(row)}, ambient is {ambient_dim}"
                )
        # den is the lcm of the rows' own denominators d; a row with
        # d == den, such as any int row when den is 1, is kept as it is
        den = math.lcm(*[d for d, _ in cleared])
        basis = tuple(tuple(row) if d == den else tuple(x * (den // d) for x in row)
                      for d, row in cleared)
        if basis and int_rank(basis) != len(basis):
            raise ValueError("basis rows are not linearly independent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "den", den)

    @classmethod
    def span(cls, ambient_dim: int, vectors) -> "Subspace":
        """Span of arbitrary vectors; reduces to a canonical basis, the
        primitive integer RREF rows (``den`` 1)."""
        return cls(ambient_dim, rref([clear_denominators(vec)[1] for vec in vectors])[0])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def rows(self) -> list[list[Fraction]]:
        return [[Fraction(x, self.den) for x in row] for row in self.basis]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and rref(self.basis)[0] == rref(other.basis)[0]
        )

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


@dataclass(frozen=True)
class StarViolation:
    """Witness against condition (*): the summed minor that fails to vanish."""

    degree: int
    basis_indices: tuple[int, ...]
    multi_index: tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class DoubleStarViolation:
    """Witness against condition (**): components, chosen basis rows, value."""

    components: tuple[int, ...]
    basis_rows: tuple[int, ...]
    value: Fraction


def evaluate_star_datum(V: Subspace, n: int, k: int, basis_indices, multi_index) -> Fraction:
    """Re-evaluate one (*) datum: sum over the k blocks of the minor picked
    by ``multi_index`` rows and ``basis_indices`` basis vectors."""
    i = len(basis_indices)
    total = 0
    for j in range(k):
        mat = [
            [V.basis[a][j * n + r] for r in multi_index]
            for a in basis_indices
        ]
        total += det(mat)
    return Fraction(total, V.den ** i)


def check_condition_star(V: Subspace, n: int, k: int):
    """True, or the first StarViolation found.

    V must live in (Q^n)^k, blocks of size n side by side.  Degrees above
    min(n, dim V) vanish identically and are not checked.
    """
    if V.ambient_dim != n * k:
        raise DimensionMismatch(f"V has ambient {V.ambient_dim}, expected n*k = {n * k}")
    for i in range(1, min(n, V.dim) + 1):
        for basis_indices in itertools.combinations(range(V.dim), i):
            for multi_index in itertools.combinations(range(n), i):
                value = evaluate_star_datum(V, n, k, basis_indices, multi_index)
                if value != 0:
                    return StarViolation(i, basis_indices, multi_index, value)
    return True


def check_condition_doublestar(spaces):
    """True, or the first DoubleStarViolation found.

    ``spaces`` is a list of subspaces of the same Q^k.  For each nonempty
    subset of (nonzero) components and each choice of one basis row from
    each, the coordinatewise product must sum to zero.  Singletons are the
    coordinate-sum condition, pairs the standard pairing condition.
    """
    if not spaces:
        return True
    k = spaces[0].ambient_dim
    for sp in spaces:
        if sp.ambient_dim != k:
            raise DimensionMismatch("all component subspaces must share the ambient Q^k")
    found = _doublestar_violation([sp.basis for sp in spaces])
    if found is None:
        return True
    components, basis_rows, value = found
    scale = math.prod(spaces[c].den for c in components)
    return DoubleStarViolation(components, basis_rows, Fraction(value, scale))


def _doublestar_violation(bases):
    """The first failure of (**) on integer basis rows of one length, or
    None: choices are walked by subset size, then subset, then rows, and the
    first with a nonzero product sum is returned as (component indices, row
    indices, value).  Only choices with a nonzero product are extended.
    """
    level = {(c,): [((r,), row) for r, row in enumerate(rows)] for c, rows in enumerate(bases) if rows}
    for components, picks in level.items():
        for row_indices, row in picks:
            if total := sum(row):
                return components, row_indices, total
    while level:
        grown = {}
        for components, picks in level.items():
            for c in range(components[-1] + 1, len(bases)):
                longer = grown[components + (c,)] = []
                for row_indices, product in picks:
                    for r, row in enumerate(bases[c]):
                        if total := sum(map(operator.mul, product, row)):
                            return components + (c,), row_indices + (r,), total
                        if c + 1 < len(bases) and any(p := list(map(operator.mul, product, row))):
                            longer.append((row_indices + (r,), p))
        level = {components: picks for components, picks in grown.items() if picks}
    return None


def split_subspace(spaces) -> Subspace:
    """Embed a tuple (A_1, ..., A_n) of subspaces of Q^k into (Q^n)^k.

    A functional lambda in A_i becomes the vector whose j-th block is
    lambda_j * e_i.  Dimensions add, and the embedded subspace satisfies
    condition (*) exactly when the tuple satisfies condition (**).
    """
    n = len(spaces)
    if n == 0:
        raise DimensionMismatch("need at least one component subspace")
    k = spaces[0].ambient_dim
    rows = []
    for i, sp in enumerate(spaces):
        if sp.ambient_dim != k:
            raise DimensionMismatch("all component subspaces must share the ambient Q^k")
        for lam in sp.rows():
            vec = [0] * (n * k)
            for j in range(k):
                vec[j * n + i] = lam[j]
            rows.append(vec)
    return Subspace(n * k, rows)


def _product_rows(A: Subspace, B: Subspace) -> list[list[int]]:
    """Coordinatewise products of integer basis pairs (bilinearity makes
    basis pairs sufficient to span A.B)."""
    return [[a * b for a, b in zip(ra, rb)] for ra in A.basis for rb in B.basis]


def product_span(A: Subspace, B: Subspace) -> Subspace:
    """The span A.B of coordinatewise products of vectors of A and B."""
    if A.ambient_dim != B.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.span(A.ambient_dim, _product_rows(A, B))


def _check_pair_preconditions(A: Subspace, B: Subspace):
    """Raise unless (A, B) is admissible, i.e. satisfies condition (**)."""
    if A.ambient_dim != B.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    found = check_condition_doublestar([A, B])
    if found is not True:
        picked = zip(found.components, found.basis_rows)
        where = " and ".join(f"{'AB'[c]} basis row {r}" for c, r in picked)
        failure = "has nonzero sum" if len(found.components) == 1 else "are not orthogonal, pairing"
        raise PreconditionViolated(f"{where} {failure} {found.value}")


def pair_lemma_check(A: Subspace, B: Subspace) -> tuple[int, int, bool]:
    """(dim(A.B + A + B), dim A + dim B, lhs >= rhs) for an admissible pair.

    Admissible means (**) holds on (A, B): every basis row sums to zero and
    the two bases are orthogonal under the standard pairing; violations
    raise.  The left side is one rank, of both bases stacked on the product
    rows.  If A or B is zero there are no product rows, and the other basis
    is independent by construction, so the left side is dim A + dim B with
    no elimination.  A False verdict would contradict the span inequality
    and is surfaced by callers as a counterexample finding.
    """
    _check_pair_preconditions(A, B)
    rhs = A.dim + B.dim
    lhs = int_rank([*A.basis, *B.basis, *_product_rows(A, B)]) if A.basis and B.basis else rhs
    return lhs, rhs, lhs >= rhs


def mu_rank_at(A: Subspace, B: Subspace, a, b) -> int:
    """Rank of the differential (alpha, beta) -> alpha o b + a o beta of the
    coordinatewise multiplication map at the point (a, b).  The points are
    cleared of denominators, which scales every alpha column by one factor
    and every beta column by another, so the rank does not change."""
    a, b = clear_denominators(a)[1], clear_denominators(b)[1]
    return int_rank([[x * y for x, y in zip(alpha, b, strict=True)] for alpha in A.basis]
                    + [[x * y for x, y in zip(a, beta, strict=True)] for beta in B.basis])


def mu_generic_rank(A: Subspace, B: Subspace) -> int:
    """Generic exact rank of the multiplication differential on an
    admissible pair, taken at the base point (e, e).

    Over Q this is the generic rank: (**) makes A orthogonal to B, and the
    standard pairing has no isotropic vectors, so A and B meet only in 0.
    At (e, e) the columns are the bases of A and B, hence independent, and
    the rank is dim A + dim B, the number of columns and so the maximum.
    """
    _check_pair_preconditions(A, B)
    k = A.ambient_dim
    return mu_rank_at(A, B, [1] * k, [1] * k)


# ---------------------------------------------------------------------------
# witnesses and random generation
# ---------------------------------------------------------------------------


def kernel_of_sum_subspace(k: int) -> Subspace:
    """The (k-1)-dimensional kernel of the coordinate-sum map on Q^k."""
    if k < 1:
        raise ValueError("k must be positive")
    rows = []
    for i in range(k - 1):
        row = [0] * k
        row[i] = 1
        row[i + 1] = -1
        rows.append(row)
    return Subspace(k, rows)


def _random_sum_zero_vector(k: int, rng: random.Random) -> list[int]:
    head = [rng.randint(-4, 4) for _ in range(k - 1)]
    return head + [-sum(head)]


def _random_subspace_in_sum_zero(k: int, dim: int, rng: random.Random) -> Subspace:
    """Random dim-dimensional subspace of the sum-zero hyperplane with
    small-integer basis vectors."""
    for _ in range(200):
        try:
            return Subspace(k, [_random_sum_zero_vector(k, rng) for _ in range(dim)])
        except ValueError:  # dependent rows: draw again
            pass
    raise RuntimeError("failed to sample an independent basis")


def random_admissible_pair(
    k: int, seed_or_rng, dim_a: int | None = None, dim_b: int | None = None
) -> tuple[Subspace, Subspace]:
    """Random (A, B) satisfying the span-inequality preconditions exactly.

    A is sampled inside the sum-zero hyperplane; B inside the intersection
    of the hyperplane with the orthogonal complement of A, which enforces
    both conditions by construction.  That intersection has dimension
    k - 1 - dim A, since the all-ones row and A's sum-zero basis are
    independent; its basis is computed only when B is nonzero.

    A given ``dim_a`` must lie in 0..k-1 and a given ``dim_b`` in
    0..k-1-dim_a; with ``dim_a`` drawn, ``dim_b`` must fit the largest
    draw, min(3, k - 1).  Other values raise ``ValueError`` before any draw.
    """
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    if k < 2:
        raise ValueError("k must be at least 2")
    if dim_a is not None and not 0 <= dim_a <= k - 1:
        raise ValueError(f"dim_a must lie in 0..{k - 1}, got {dim_a}")
    room = k - 1 - (min(3, k - 1) if dim_a is None else dim_a)
    if dim_b is not None and not 0 <= dim_b <= room:
        raise ValueError(f"dim_b must lie in 0..{room}, got {dim_b}")
    if dim_a is None:
        dim_a = rng.randint(1, min(3, k - 1))
    A = _random_subspace_in_sum_zero(k, dim_a, rng)
    comp_dim = k - 1 - dim_a
    if dim_b is None:
        dim_b = rng.randint(0, min(3, comp_dim))
    if dim_b == 0:
        return A, Subspace.zero(k)
    comp_columns = list(zip(*nullspace([[1] * k, *A.basis], k)))
    for _ in range(200):
        rows = []
        for _ in range(dim_b):
            coeffs = [rng.randint(-3, 3) for _ in range(comp_dim)]
            rows.append([sum(map(operator.mul, coeffs, col)) for col in comp_columns])
        try:
            return A, Subspace(k, rows)
        except ValueError:  # dependent rows: draw again
            pass
    raise RuntimeError("failed to sample an independent complement basis")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    k: int
    n: int
    best_sum: int
    best_config: list[list[list[int]]]
    evaluations: int
    bound: int
    nonzero_components: int
    counterexample: list[list[list[int]]] | None = None

    @property
    def within_bound(self) -> bool:
        return self.best_sum <= self.bound


def _config_sum(bases: list[list[list[int]]]) -> int:
    """True total dimension (ranks, not row counts)."""
    return sum(int_rank(rows) for rows in bases if rows)


_CHUNK = 1 << 15  # about the bytes fetched per getrandbits call


def _first_pair_sum(a: bytes, b: bytes) -> int:
    """The (**) product sum of two record rows, from their k - 1 entry
    bytes e (entries e - 3, each row closed by minus their sum): the sum of
    a_i b_i plus (sum a)(sum b), in C-level sums over the bytes."""
    m = len(a)
    sa, sb = sum(a) - 3 * m, sum(b) - 3 * m
    return sum(map(operator.mul, a, b)) - 3 * (sa + sb) - 9 * m + sa * sb


def _random_candidates(k: int, n: int, rng: random.Random, floor: int, count: int):
    """The next ``count`` random records that may raise the best total.

    A record is n * (1 + 3(k - 1)) bytes, read from the little-endian bytes
    of consecutive 32-bit words of ``rng``.  A component is a dim byte d,
    giving dim d % (min(3, k - 1) + 1), and room for three rows of k - 1
    entry bytes e, giving e % 7 - 3; each row ends with minus the sum of its
    entries, so every row passes the singleton test of (**).  A record is
    first chosen by its row count, more than ``floor``, over a whole chunk
    at once.  It is then screened on its first pair: the first rows of its
    first two nonzero components, the walk's first real step.  A nonzero
    ``_first_pair_sum`` proves a (**) violation and drops the record.  Only
    then are its rows built, and it is yielded as a list of bases."""
    step = k - 1
    comp = 1 + 3 * step
    record = n * comp
    to_dim = bytes(b % (min(3, step) + 1) for b in range(256))
    to_entry = bytes(b % 7 for b in range(256))
    size = 4 * max(1, _CHUNK // (4 * record)) * record  # whole records, whole words
    while count > 0:
        chunk = rng.getrandbits(8 * size).to_bytes(size, "little")
        dims = chunk[::comp][: count * n].translate(to_dim)
        count -= len(dims) // n
        entries = chunk.translate(to_entry)
        row_counts = map(sum, zip(*(dims[j::n] for j in range(n))))
        for r in itertools.compress(itertools.count(), map(floor.__lt__, row_counts)):
            ds = dims[r * n : (r + 1) * n]
            firsts = range(r * record + 1, (r + 1) * record, comp)
            nonzero = [first for first, dim in zip(firsts, ds) if dim]
            if len(nonzero) > 1:
                a, b = nonzero[:2]
                if _first_pair_sum(entries[a : a + step], entries[b : b + step]):
                    continue
            bases = []
            for first, dim in zip(firsts, ds):
                rows = []
                for pos in range(first, first + dim * step, step):
                    row = [x - 3 for x in entries[pos : pos + step]]
                    row.append(-sum(row))
                    rows.append(row)
                bases.append(rows)
            yield bases


def search_max_total_dimension(k: int, n: int, budget: int, seed: int) -> SearchResult:
    """Budgeted search for (**) configurations maximizing total dimension.

    ``budget`` candidates in all: the kernel-of-sum witness, whose total is
    the bound k - 1, then ``budget - 1`` records of
    ``random.Random(seed * 1_000_003)`` (see ``_random_candidates``).
    After the witness a record with at most k - 1 rows cannot raise the
    best total, a sum of ranks, so a record is first chosen by its row
    count.  It is then screened on its first pair, straight from its bytes,
    and dropped if that pair proves a (**) violation.  Only then are its
    rows built and walked by the exact (**) check; one that would raise the
    best total is re-verified over Q on its spanned subspaces before it is
    accepted.  A configuration exceeding the bound is recorded as a
    counterexample, which callers must treat as a build-failing finding.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    bound = k - 1
    best_sum = -1
    best_config: list[list[list[int]]] = []
    counterexample = None
    witness = [kernel_of_sum_subspace(k).basis] + [[] for _ in range(n - 1)]
    records = _random_candidates(k, n, random.Random(seed * 1_000_003), bound, budget - 1)
    for bases in itertools.chain([witness], records):
        if _doublestar_violation(bases) is not None:
            continue
        total = _config_sum(bases)
        if total <= best_sum:
            continue
        # authoritative re-verification over Q before accepting
        if check_condition_doublestar([Subspace.span(k, rows) for rows in bases]) is not True:
            continue
        best_sum = total
        best_config = [[list(r) for r in rows] for rows in bases]
        if total > bound and counterexample is None:
            counterexample = best_config

    return SearchResult(
        k=k,
        n=n,
        best_sum=best_sum,
        best_config=best_config,
        evaluations=budget,
        bound=bound,
        nonzero_components=sum(1 for rows in best_config if rows),
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# plain-text subspace files
# ---------------------------------------------------------------------------


_INTEGER = re.compile(r"[+-]?[0-9]+")  # the integer form of an entry


class _TokenReader:
    def __init__(self, text: str):
        self.tokens = text.split()
        self.pos = 0

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise ValueError("unexpected end of subspace file")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def integer(self, what: str) -> int:
        tok = self.take()
        if not _INTEGER.fullmatch(tok):
            raise ValueError(f"{what} {tok!r} is not an integer")
        return int(tok)

    def header(self) -> tuple[int, int]:
        k, n = self.integer("k"), self.integer("n")
        if k < 1 or n < 1:
            raise ValueError(f"header needs positive k and n, got {k} {n}")
        return k, n

    def block(self, width: int) -> Subspace:
        dim = self.integer("block dimension")
        if dim < 0:
            raise ValueError(f"block dimension must be nonnegative, got {dim}")
        rows = [[self.entry() for _ in range(width)] for _ in range(dim)]
        return Subspace(width, rows)

    def entry(self) -> int | Fraction:
        tok = self.take()
        return int(tok) if _INTEGER.fullmatch(tok) else parse_rational(tok)


def parse_star_file(text: str) -> tuple[int, int, Subspace]:
    """Condition-(*) input: line "k n", then one block of rows in (Q^n)^k.

    A block is a dimension line followed by that many basis rows; rows
    list the k size-n projection blocks side by side.  Entries are
    integers or fractions like ``-3/2``.
    """
    reader = _TokenReader(text)
    k, n = reader.header()
    V = reader.block(n * k)
    if not reader.done():
        raise ValueError("trailing tokens after the condition-(*) block")
    return k, n, V


def parse_doublestar_file(text: str) -> tuple[int, int, list[Subspace]]:
    """Condition-(**) input: line "k n", then n blocks of rows in Q^k."""
    reader = _TokenReader(text)
    k, n = reader.header()
    spaces = [reader.block(k) for _ in range(n)]
    if not reader.done():
        raise ValueError(f"trailing tokens after {n} blocks")
    return k, n, spaces
