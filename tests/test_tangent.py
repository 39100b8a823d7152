"""Tangent-space conditions, the span inequality, and the budgeted search."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from pontcalc import tangent
from pontcalc.cycles import parse_rational
from pontcalc.linalg import exact_rank, int_rank, nullspace
from pontcalc.tangent import (
    DimensionMismatch,
    DoubleStarViolation,
    PreconditionViolated,
    SearchResult,
    StarViolation,
    Subspace,
    check_condition_doublestar,
    check_condition_star,
    evaluate_star_datum,
    kernel_of_sum_subspace,
    mu_generic_rank,
    mu_rank_at,
    pair_lemma_check,
    parse_doublestar_file,
    parse_star_file,
    product_span,
    random_admissible_pair,
    search_max_total_dimension,
    split_subspace,
)


def rand_spaces(rng, k, n, max_dim=2):
    spaces = []
    for _ in range(n):
        dim = rng.randint(0, min(max_dim, k - 1))
        rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(dim)]
        spaces.append(Subspace.span(k, rows))
    return spaces


def test_subspace_basics():
    s = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    assert s.dim == 2
    assert Subspace.span(3, [*s.basis, [2, -3, 0]]) == s
    assert Subspace.span(3, [*s.basis, [0, 0, 1]]).dim == 3
    with pytest.raises(ValueError):
        Subspace(3, [[1, 1, 1], [2, 2, 2]])
    with pytest.raises(DimensionMismatch):
        Subspace(3, [[1, 0]])
    spanned = Subspace.span(3, [[1, 1, 1], [2, 2, 2], [1, 0, 0]])
    assert spanned.dim == 2
    assert repr(spanned) == "Subspace(dim 2 of Q^3)"


def test_kernel_of_sum_passes_star():
    for k in range(2, 11):
        V = kernel_of_sum_subspace(k)
        assert V.dim == k - 1
        assert check_condition_star(V, 1, k) is True
    with pytest.raises(ValueError):
        kernel_of_sum_subspace(0)


def test_zero_subspace_passes_star():
    assert check_condition_star(Subspace.zero(6), 2, 3) is True


def test_star_violation_with_datum_reevaluation():
    # pr_1 nonzero, pr_2 zero: the degree-1 condition already fails
    V = Subspace(4, [[1, 0, 0, 0]])
    out = check_condition_star(V, 2, 2)
    assert isinstance(out, StarViolation)
    assert out.degree == 1
    assert evaluate_star_datum(V, 2, 2, out.basis_indices, out.multi_index) == out.value
    assert out.value != 0


def test_star_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_condition_star(Subspace.zero(5), 2, 2)
    a, b = Subspace(2, [[1, -1]]), Subspace(3, [[1, -1, 0]])
    for check in (check_condition_doublestar, split_subspace):
        with pytest.raises(DimensionMismatch, match="share the ambient"):
            check([a, b])
    with pytest.raises(DimensionMismatch, match="at least one"):
        split_subspace([])
    for check in (product_span, pair_lemma_check):
        with pytest.raises(DimensionMismatch, match="ambient dimensions differ"):
            check(a, b)


def test_doublestar_examples():
    a1 = Subspace(3, [[1, -1, 0]])
    a2 = Subspace(3, [[1, 1, -2]])
    assert check_condition_doublestar([]) is True
    assert check_condition_doublestar([a1]) is True
    assert check_condition_doublestar([a1, a2]) is True
    bad = check_condition_doublestar([Subspace(3, [[1, 0, 0]])])
    assert isinstance(bad, DoubleStarViolation)
    assert bad.value == 1


def subset_walk(bases):
    """The (**) walk over every choice of every subset of the nonempty
    bases, by subset size, then subset, then rows; row indices are
    recovered by equality, which finds the first of equal rows."""
    active = [(idx, rows) for idx, rows in enumerate(bases) if rows]
    for size in range(1, len(active) + 1):
        for chosen in itertools.combinations(active, size):
            for pick in itertools.product(*[rows for _, rows in chosen]):
                total = sum(map(math.prod, zip(*pick)))
                if total:
                    components = tuple(idx for idx, _ in chosen)
                    return components, tuple(rows.index(vec) for (_, rows), vec in zip(chosen, pick)), total
    return None


def test_level_walk_matches_subset_walk():
    # sparse sum-zero rows, drawn with repeats from a small pool, make many
    # zero products; three Hadamard rows are sum-zero and pairwise
    # orthogonal with a triple product sum of 4, a violation of size 3, and
    # a row on the other two coordinates has zero product with each of them
    rng = random.Random(29)
    hadamard = [[1, -1, 1, -1, 0, 0], [1, 1, -1, -1, 0, 0], [1, -1, -1, 1, 0, 0]]
    sizes = set()
    for trial in range(600):
        if trial % 4 == 0:
            bases = [[h] * rng.randint(1, 2) for h in rng.sample(hadamard, 3)]
            bases.insert(rng.randint(0, 3), [[0, 0, 0, 0, 1, -1]] * rng.randint(0, 1))
        else:
            k = rng.randint(2, 6)
            pool = []
            for _ in range(rng.randint(1, 4)):
                row = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(k)]
                if rng.random() < 0.85:
                    row[rng.randrange(k)] -= sum(row)
                pool.append(row)
            bases = [[list(rng.choice(pool)) for _ in range(rng.randint(0, 3))]
                     for _ in range(rng.randint(1, 5))]
        found = tangent._doublestar_violation(bases)
        assert found == subset_walk(bases), bases
        sizes.add(found and len(found[0]))
    assert sizes == {None, 1, 2, 3}
    # rows before later rows of the first component: (0, 1), not (1, 0)
    a, b = [1, -1, 0, 0], [0, 0, 1, -1]
    assert tangent._doublestar_violation([[a, b], [b, a]]) == ((0, 1), (0, 1), 2)
    # subset (0, 3) before (1, 2), each the only nonzero pair product
    rows = [[1, -1, 0, 0, 0, 0], [0, 0, 0, 1, -1, 0], [0, 0, 0, 1, 0, -1], [1, 0, -1, 0, 0, 0]]
    assert tangent._doublestar_violation([[row] for row in rows]) == ((0, 3), (0, 0), 1)


def test_split_subspace_dimensions_and_n1_case():
    a1 = kernel_of_sum_subspace(4)
    V = split_subspace([a1])
    assert V.ambient_dim == 4 and V.dim == 3
    assert V == a1  # n = 1 embedding is the identity on Q^k
    two = split_subspace([Subspace(3, [[1, -1, 0], [0, 1, -1]]), Subspace(3, [[1, 1, -2]])])
    assert two.dim == 3 and two.ambient_dim == 6


def test_star_doublestar_equivalence_random():
    rng = random.Random(0)
    for _ in range(60):
        k = rng.randint(2, 5)
        n = rng.randint(1, 3)
        spaces = rand_spaces(rng, k, n)
        V = split_subspace(spaces)
        assert V.dim == sum(sp.dim for sp in spaces)
        star = check_condition_star(V, n, k) is True
        double = check_condition_doublestar(spaces) is True
        assert star == double


def test_star_monotone_under_subspaces():
    rng = random.Random(1)
    V = kernel_of_sum_subspace(6)
    for _ in range(10):
        vecs = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-2, 2) for _ in range(V.dim)]
            vecs.append(
                [sum(c * V.basis[i][j] for i, c in enumerate(coeffs)) for j in range(6)]
            )
        sub = Subspace.span(6, vecs)
        assert check_condition_star(sub, 1, 6) is True


def test_product_span():
    e = Subspace(3, [[1, 1, 1]])
    assert product_span(e, e) == e
    a = Subspace(3, [[1, -1, 0]])
    b = Subspace(3, [[1, 1, -2]])
    assert product_span(a, b) == Subspace.span(3, [[1, -1, 0]])
    z = Subspace.zero(3)
    assert product_span(a, z).dim == 0


def test_pair_lemma_frozen_example():
    a = Subspace(3, [[1, -1, 0]])
    b = Subspace(3, [[1, 1, -2]])
    # A.B = A here, so the stacked span has rank 2 and the bound is tight
    assert pair_lemma_check(a, b) == (2, 2, True)
    z = Subspace.zero(3)
    assert pair_lemma_check(z, z) == (0, 0, True)


def test_pair_lemma_preconditions():
    good = Subspace(3, [[1, -1, 0]])
    bad_sum = Subspace(3, [[1, 0, 0]])
    with pytest.raises(PreconditionViolated):
        pair_lemma_check(good, bad_sum)
    not_orth = Subspace(3, [[1, -1, 0]])
    with pytest.raises(PreconditionViolated):
        pair_lemma_check(good, not_orth)


def test_pair_lemma_random_admissible():
    for k in range(2, 9):
        rng = random.Random(100 + k)
        for _ in range(150):
            A, B = random_admissible_pair(k, rng)
            lhs, rhs, ok = pair_lemma_check(A, B)
            assert ok, (k, A.basis, B.basis)


def _naive_admissible(A, B):
    sums = all(sum(row) == 0 for row in A.basis + B.basis)
    orthogonal = all(
        sum(x * y for x, y in zip(ra, rb)) == 0 for ra in A.basis for rb in B.basis
    )
    return sums, orthogonal


def _perturbed(rng, sp, keep_sum):
    """sp with one entry of one basis row moved by a nonzero amount; with
    ``keep_sum`` a second entry of that row moves back by the same amount."""
    rows = [list(row) for row in sp.basis]
    row = rng.choice(rows)
    i, j = rng.sample(range(sp.ambient_dim), 2)
    delta = rng.choice([-2, -1, 1, 2])
    row[i] += delta
    if keep_sum:
        row[j] -= delta
    return Subspace.span(sp.ambient_dim, rows)


def test_pair_checks_match_naive_oracle():
    """Admissibility is raised on exactly when a naive sum and pairing check
    fails, and the span-inequality side is the dimension of the spanned sum."""
    rng = random.Random(2024)
    seen = {"admissible": 0, "sum": 0, "pairing only": 0}
    for _ in range(400):
        k = rng.randint(3, 7)
        A, B = random_admissible_pair(k, rng)
        C, D = random_admissible_pair(k, rng)
        pairs = [(A, B), (B, A), (A, D), (C, B)]
        for keep_sum in (False, True):
            if A.dim:
                pairs.append((_perturbed(rng, A, keep_sum), B))
            if B.dim:
                pairs.append((A, _perturbed(rng, B, keep_sum)))
        for P, Q in pairs:
            sums, orthogonal = _naive_admissible(P, Q)
            if sums and orthogonal:
                seen["admissible"] += 1
                products = [[x * y for x, y in zip(rp, rq)] for rp in P.basis for rq in Q.basis]
                expected = Subspace.span(k, products + list(P.basis) + list(Q.basis)).dim
                assert pair_lemma_check(P, Q) == (expected, P.dim + Q.dim, expected >= P.dim + Q.dim)
                continue
            seen["sum" if not sums else "pairing only"] += 1
            for check in (pair_lemma_check, mu_generic_rank):
                with pytest.raises(PreconditionViolated, match="basis row"):
                    check(P, Q)
    assert min(seen.values()) >= 100, seen


def sum_zero_subspace_oracle(k, dim, rng):
    """Oracle: the pair sampler's first component, its independence checked
    by a rank before the subspace is built."""
    for _ in range(200):
        rows = [tangent._random_sum_zero_vector(k, rng) for _ in range(dim)]
        if int_rank(rows) == dim:
            return Subspace(k, rows)
    raise RuntimeError("failed to sample an independent basis")


def admissible_pair_oracle(k, seed, dim_a=None, dim_b=None):
    """Oracle: ``random_admissible_pair`` with the rank check before each
    subspace is built."""
    rng = random.Random(seed)
    if dim_a is None:
        dim_a = rng.randint(1, min(3, k - 1))
    A = sum_zero_subspace_oracle(k, dim_a, rng)
    comp_rows = nullspace([[1] * k, *A.basis], k)
    comp_dim = len(comp_rows)
    if dim_b is None:
        dim_b = rng.randint(0, min(3, comp_dim))
    for _ in range(200):
        rows = []
        for _ in range(dim_b):
            coeffs = [rng.randint(-3, 3) for _ in range(comp_dim)]
            rows.append([sum(c * comp_rows[t][j] for t, c in enumerate(coeffs)) for j in range(k)])
        if int_rank(rows) == dim_b:
            return A, Subspace(k, rows)
    raise RuntimeError("failed to sample an independent complement basis")


def test_random_admissible_pair_matches_rank_first_oracle():
    # same draws, same bases, whether the dims are drawn or given
    for k, seed in itertools.product(range(2, 9), range(40)):
        cases = [(None, None)]
        cases += [(a, b) for a in range(1, min(3, k - 1) + 1) for b in range(min(3, k - 1 - a) + 1)]
        for dim_a, dim_b in cases:
            A, B = random_admissible_pair(k, seed, dim_a, dim_b)
            OA, OB = admissible_pair_oracle(k, seed, dim_a, dim_b)
            assert (A.basis, A.den, B.basis, B.den) == (OA.basis, OA.den, OB.basis, OB.den), (k, seed, dim_a, dim_b)


def test_random_admissible_pair_invariants():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(2, 7)
        A, B = random_admissible_pair(k, rng)
        for row in list(A.basis) + list(B.basis):
            assert sum(row) == 0
        for ra in A.basis:
            for rb in B.basis:
                assert sum(x * y for x, y in zip(ra, rb)) == 0


def test_mu_rank():
    a = Subspace(3, [[1, -1, 0]])
    b = Subspace(3, [[1, 1, -2]])
    e = [Fraction(1)] * 3
    assert mu_rank_at(a, b, e, e) == Subspace.span(3, a.basis + b.basis).dim
    assert mu_generic_rank(a, b) == 2
    z = Subspace.zero(3)
    assert mu_generic_rank(z, z) == 0
    # A and B are orthogonal and Q has no isotropic vectors, so A and B meet
    # only in 0 and the columns at (e, e) are independent: 2000 pairs
    for k in range(2, 10):
        for seed in range(250):
            A, B = random_admissible_pair(k, seed)
            assert mu_generic_rank(A, B) == A.dim + B.dim, (k, seed)


def test_search_witnesses():
    res = search_max_total_dimension(3, 1, budget=500, seed=0)
    assert res.best_sum == 2 and res.within_bound
    res = search_max_total_dimension(2, 2, budget=500, seed=0)
    assert res.best_sum == 1
    res = search_max_total_dimension(4, 2, budget=2000, seed=0)
    assert res.best_sum <= 3 and res.within_bound
    assert res.counterexample is None


def test_search_determinism():
    a = search_max_total_dimension(3, 2, budget=1500, seed=42)
    b = search_max_total_dimension(3, 2, budget=1500, seed=42)
    assert a.best_sum == b.best_sum and a.best_config == b.best_config
    assert a.evaluations == b.evaluations == 1500


def test_search_result_is_the_kernel_of_sum_witness():
    # the witness reaches the bound k - 1 as the first candidate, and only a
    # strictly larger total is accepted, so it is the whole result at every
    # budget, one candidate included
    for k, n, budget, seed in itertools.product(range(2, 7), range(1, 4), (1, 2, 30, 300), (0, 7)):
        witness = [[1 if j == i else -1 if j == i + 1 else 0 for j in range(k)] for i in range(k - 1)]
        expected = SearchResult(k, n, k - 1, [witness] + [[]] * (n - 1), budget, k - 1, 1, None)
        assert search_max_total_dimension(k, n, budget, seed) == expected, (k, n, budget, seed)


class CountingRandom(random.Random):
    """A Random that counts its ``getrandbits`` calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def word_candidates(k, n, rng):
    """Oracle: the search's records read one 32-bit word at a time, as the
    stream is specified, every candidate's rows built."""
    comp = 1 + 3 * (k - 1)
    buf = b""
    while True:
        while len(buf) < n * comp:
            buf += rng.getrandbits(32).to_bytes(4, "little")
        record, buf = buf[: n * comp], buf[n * comp :]
        bases = []
        for field in (record[c * comp : (c + 1) * comp] for c in range(n)):
            rows = []
            for r in range(field[0] % (min(3, k - 1) + 1)):
                head = [x % 7 - 3 for x in field[1 + r * (k - 1) : 1 + (r + 1) * (k - 1)]]
                rows.append(head + [-sum(head)])
            bases.append(rows)
        yield bases


def first_pair_passes(bases):
    """Oracle for the screen, on built rows: the first rows of the first two
    nonzero components are orthogonal (or there are no two such)."""
    firsts = [rows[0] for rows in bases if rows][:2]
    return len(firsts) < 2 or sum(a * b for a, b in zip(*firsts)) == 0


def records_per_chunk(k, n):
    """How many records one ``getrandbits`` call of the reader fetches."""
    return 4 * max(1, tangent._CHUNK // (4 * n * (1 + 3 * (k - 1))))


def test_random_candidates_match_word_oracle():
    # a floor of -1 chooses every record, so what survives is exactly the
    # records that pass the first-pair screen, read here into the third chunk
    for k, n, seed in itertools.product(range(2, 10), range(1, 5), (0, 5, 1_000_003)):
        count = 2 * records_per_chunk(k, n) + 1
        oracle = itertools.islice(word_candidates(k, n, random.Random(seed)), count)
        rng = CountingRandom(seed)
        got = list(tangent._random_candidates(k, n, rng, -1, count))
        assert got == [bases for bases in oracle if first_pair_passes(bases)], (k, n, seed)
        assert rng.calls == 3, (k, n, seed)


def test_random_candidates_do_not_depend_on_chunk_size(monkeypatch):
    # four records per chunk give the same survivors as the default: the
    # records with more than ``floor`` rows that pass the first-pair screen
    def first(k, n, seed, floor):
        return list(tangent._random_candidates(k, n, random.Random(seed), floor, 300))

    cases = list(itertools.product(range(2, 9), range(1, 4), (0, 5), (-1, 0, 2, 4)))
    default = {case: first(*case) for case in cases}
    monkeypatch.setattr(tangent, "_CHUNK", 4)
    chosen = screened = 0
    for k, n, seed, floor in cases:
        small = first(k, n, seed, floor)
        assert small == default[k, n, seed, floor], (k, n, seed, floor)
        oracle = itertools.islice(word_candidates(k, n, random.Random(seed)), 300)
        rich = [bases for bases in oracle if sum(map(len, bases)) > floor]
        assert small == [bases for bases in rich if first_pair_passes(bases)], (k, n, seed, floor)
        # the screen drops a record only when the full walk rejects it
        for bases in rich:
            assert first_pair_passes(bases) or tangent._doublestar_violation(bases), (k, n, seed, floor)
        assert bool(rich) or floor >= n * min(3, k - 1), (k, n, seed, floor)
        chosen += len(rich)
        screened += len(rich) - len(small)
    assert 0 < screened < chosen


def chunk_candidates(k, n, rng, floor):
    """Oracle: the search's records before the first-pair screen, read a
    chunk at a time; a record with at most ``floor`` rows is None, every
    other one has its rows built."""
    step = k - 1
    comp = 1 + 3 * step
    record = n * comp
    to_dim = bytes(b % (min(3, step) + 1) for b in range(256))
    to_entry = bytes(b % 7 for b in range(256))
    size = 4 * max(1, tangent._CHUNK // (4 * record)) * record
    while True:
        chunk = rng.getrandbits(8 * size).to_bytes(size, "little")
        dims = chunk[::comp].translate(to_dim)
        entries = chunk.translate(to_entry)
        for start in range(0, len(dims), n):
            ds = dims[start : start + n]
            if sum(ds) <= floor:
                yield None
                continue
            bases = []
            for first, dim in zip(range(start * comp + 1, (start + n) * comp, comp), ds):
                rows = []
                for pos in range(first, first + dim * step, step):
                    row = [x - 3 for x in entries[pos : pos + step]]
                    row.append(-sum(row))
                    rows.append(row)
                bases.append(rows)
            yield bases


def walked_search(k, n, budget, seed):
    """Oracle: the search without the first-pair screen, every record with
    more than k - 1 rows walked in full."""
    bound = k - 1
    best_sum, best_config, counterexample = -1, [], None
    witness = [kernel_of_sum_subspace(k).basis] + [[] for _ in range(n - 1)]
    stream = chunk_candidates(k, n, random.Random(seed * 1_000_003), bound)
    for bases in itertools.islice(itertools.chain([witness], stream), budget):
        if bases is None or tangent._doublestar_violation(bases) is not None:
            continue
        total = sum(int_rank(rows) for rows in bases if rows)
        if total <= best_sum:
            continue
        if check_condition_doublestar([Subspace.span(k, rows) for rows in bases]) is not True:
            continue
        best_sum, best_config = total, [[list(r) for r in rows] for rows in bases]
        if total > bound and counterexample is None:
            counterexample = best_config
    nonzero = sum(1 for rows in best_config if rows)
    return SearchResult(k, n, best_sum, best_config, budget, bound, nonzero, counterexample)


@pytest.mark.parametrize("chunk", [None, 4])
def test_screened_search_matches_walked_search(monkeypatch, chunk):
    # budgets of one and two candidates, one ending mid-chunk and one
    # spanning more than one chunk
    if chunk is not None:
        monkeypatch.setattr(tangent, "_CHUNK", chunk)
    for k, n, seed in itertools.product(range(2, 10), range(1, 5), (0, 1, 101)):
        per = records_per_chunk(k, n)
        for budget in (1, 2, 1 + per // 2, 1 + per + per // 2):
            expected = walked_search(k, n, budget, seed)
            assert search_max_total_dimension(k, n, budget, seed) == expected, (k, n, seed, budget)


def naive_search(k, n, budget, seed):
    """Oracle search with every configuration admissible: the witness, then
    every record walked, totals as dims of spans, no row-count rule."""
    witness = [list(r) for r in kernel_of_sum_subspace(k).basis]
    stream = word_candidates(k, n, random.Random(seed * 1_000_003))
    best_sum, best_config, counterexample = -1, [], None
    for bases in itertools.islice(itertools.chain([[witness] + [[]] * (n - 1)], stream), budget):
        total = sum(Subspace.span(k, rows).dim for rows in bases)
        if total > best_sum:
            best_sum, best_config = total, [[list(r) for r in rows] for rows in bases]
            if total > k - 1 and counterexample is None:
                counterexample = best_config
    nonzero = sum(1 for rows in best_config if rows)
    return SearchResult(k, n, best_sum, best_config, budget, k - 1, nonzero, counterexample)


def test_random_search_matches_naive_oracle(monkeypatch):
    # with (**) made to hold everywhere, the first-pair screen included,
    # records beat the witness: the best total rises past the bound and the
    # first such record is the counterexample
    monkeypatch.setattr(tangent, "_first_pair_sum", lambda a, b: 0)
    monkeypatch.setattr(tangent, "_doublestar_violation", lambda bases: None)
    monkeypatch.setattr(tangent, "check_condition_doublestar", lambda spaces: True)
    raised = 0
    for (k, n), seed in itertools.product(((2, 1), (3, 2), (4, 2), (5, 3)), (0, 1, 2)):
        expected = naive_search(k, n, 300, seed)
        assert search_max_total_dimension(k, n, 300, seed) == expected, (k, n, seed)
        raised += expected.counterexample is not None and expected.counterexample != expected.best_config
    assert raised


def test_search_work_counts(monkeypatch):
    # how many records the three ``tangent`` bench searches screen on their
    # first pair, and how many times they walk (**), the witness and its
    # re-verification included; a change that does more of either fails here
    screens = walks = 0
    screen, walk = tangent._first_pair_sum, tangent._doublestar_violation

    def counting_screen(a, b):
        nonlocal screens
        screens += 1
        return screen(a, b)

    def counting_walk(bases):
        nonlocal walks
        walks += 1
        return walk(bases)

    monkeypatch.setattr(tangent, "_first_pair_sum", counting_screen)
    monkeypatch.setattr(tangent, "_doublestar_violation", counting_walk)
    counts = []
    for k, n, seed in ((4, 2, 101), (5, 3, 101), (6, 2, 101)):
        screens = walks = 0
        search_max_total_dimension(k, n, 20000, seed)
        counts.append((screens, walks))
    assert counts == [(7451, 401), (9976, 315), (1235, 35)]


def test_parse_star_file():
    text = "3 1\n2\n1 -1 0\n0 1 -1\n"
    k, n, V = parse_star_file(text)
    assert (k, n, V.dim) == (3, 1, 2)
    assert check_condition_star(V, n, k) is True
    with pytest.raises(ValueError):
        parse_star_file("3 1\n1\n1 -1 0\nextra")


def test_parse_doublestar_file():
    text = "3 2\n1\n1 -1 0\n1\n1/1 1 -2\n"
    k, n, spaces = parse_doublestar_file(text)
    assert (k, n) == (3, 2)
    assert [sp.dim for sp in spaces] == [1, 1]
    assert check_condition_doublestar(spaces) is True
    zero_block = "2 2\n1\n1 -1\n0\n"
    _, _, spaces = parse_doublestar_file(zero_block)
    assert [sp.dim for sp in spaces] == [1, 0]
    _, _, spaces = parse_doublestar_file("2 1\n1\n+3/2 -3/2\n")
    assert spaces[0].rows() == [[Fraction(3, 2), Fraction(-3, 2)]]
    # entries are integers or p/q only; any other token is named in the error
    for tok in ("0.5", "1e5000", "1_0", "3/-2", "inf", "½"):
        with pytest.raises(ValueError, match=f"entry '{tok}' is not an integer or p/q"):
            parse_doublestar_file(f"2 1\n1\n{tok} 0\n")
    # so are k, n and the block dimensions, in ASCII digits only
    assert parse_doublestar_file("+2 1\n+1\n1 -1\n")[:2] == (2, 1)
    for text, what, tok in (("1_0 1\n0\n", "k", "1_0"), ("\u0663 1\n0\n", "k", "\u0663"),
                            ("2 1_0\n", "n", "1_0"), ("2 1\n0_1\n1 -1\n", "block dimension", "0_1"),
                            ("2 1\n1.0\n1 -1\n", "block dimension", "1.0")):
        with pytest.raises(ValueError, match=f"{what} '{tok}' is not an integer"):
            parse_doublestar_file(text)
    with pytest.raises(ValueError, match="k '\u0663' is not an integer"):
        parse_star_file("\u0663 1\n0\n")


# ---------------------------------------------------------------------------
# differential test: integer rows over one denominator against a naive
# Fraction oracle
# ---------------------------------------------------------------------------


def _assert_integer_rows(sp):
    assert sp.den > 0
    assert all(type(x) is int for row in sp.basis for x in row)
    assert math.gcd(sp.den, *[x for row in sp.basis for x in row]) == 1


def _oracle_rank(rows):
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _oracle_det(mat):
    if not mat:
        return Fraction(1)
    return sum(
        (-1) ** j * mat[0][j] * _oracle_det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j in range(len(mat))
    )


def _oracle_doublestar(rows_list):
    """(components, row indices, value) of the first (**) failure, walked in
    the documented order over Fraction rows, or None."""
    active = [(idx, rows) for idx, rows in enumerate(rows_list) if rows]
    for size in range(1, len(active) + 1):
        for chosen in itertools.combinations(active, size):
            for pick in itertools.product(*[list(enumerate(rows)) for _, rows in chosen]):
                value = sum(math.prod(col) for col in zip(*[vec for _, vec in pick]))
                if value:
                    return tuple(idx for idx, _ in chosen), tuple(r for r, _ in pick), value
    return None


def _oracle_star(rows, n, k):
    for i in range(1, min(n, len(rows)) + 1):
        for basis_indices in itertools.combinations(range(len(rows)), i):
            for multi_index in itertools.combinations(range(n), i):
                value = sum(
                    _oracle_det([[rows[a][j * n + r] for r in multi_index] for a in basis_indices])
                    for j in range(k)
                )
                if value:
                    return i, basis_indices, multi_index, value
    return None


def _star_tuple(violation):
    return violation.degree, violation.basis_indices, violation.multi_index, violation.value


def _oracle_pair_message(A, B):
    found = _oracle_doublestar([A.rows(), B.rows()])
    if found is None:
        return None
    components, rows, value = found
    where = " and ".join(f"{'AB'[c]} basis row {r}" for c, r in zip(components, rows))
    failure = "has nonzero sum" if len(components) == 1 else "are not orthogonal, pairing"
    return f"{where} {failure} {value}"


def _oracle_mu_rank(A, B):
    """Rank of (alpha, beta) -> alpha o b + a o beta at (a, b) = (e, e),
    on the Fraction rows."""
    e = [Fraction(1)] * A.ambient_dim
    columns = [[x * y for x, y in zip(alpha, e)] for alpha in A.rows()]
    columns += [[x * y for x, y in zip(e, beta)] for beta in B.rows()]
    return _oracle_rank(columns)


def _rational(rng):
    """A nonzero p/q with q in 1..6: an int when q == 1, else a Fraction."""
    q = rng.randint(1, 6)
    p = rng.choice([-1, 1]) * rng.randint(1, 7)
    return p if q == 1 else Fraction(p, q)


def _rescaled(rng, sp, perturb):
    """Basis rows of sp, each scaled by a random rational; with ``perturb``
    one entry moves by a rational amount, and mostly a second entry of the
    same row moves back, keeping the row sum."""
    rows = []
    for row in sp.rows():
        c = _rational(rng)
        rows.append([c * x for x in row])
    rows = [[int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in r] for r in rows]
    if perturb and rows:
        row = rng.choice(rows)
        i, j = rng.sample(range(sp.ambient_dim), 2)
        delta = _rational(rng)
        row[i] += delta
        if rng.random() < 0.7:
            row[j] -= delta
    return rows


def test_integer_rows_match_fraction_oracle():
    rng = random.Random(6)
    seen = {"pass": 0, "sum": 0, "pairing": 0, "star": 0}
    for _ in range(300):
        k = rng.randint(3, 6)
        A, B = random_admissible_pair(k, rng)
        _assert_integer_rows(A)
        _assert_integer_rows(B)
        perturb = rng.random() < 0.6
        spaces = []
        for sp in [A, B, kernel_of_sum_subspace(k)][: rng.randint(2, 3)]:
            rows = _rescaled(rng, sp, perturb and rng.random() < 0.5)
            try:
                built = Subspace(k, rows)
            except ValueError:
                built = Subspace.span(k, rows)
            else:
                assert built.rows() == [[Fraction(x) for x in row] for row in rows]
            _assert_integer_rows(built)
            spaces.append(built)
        P, Q = spaces[:2]

        found = _oracle_doublestar([sp.rows() for sp in spaces])
        outcome = check_condition_doublestar(spaces)
        if found is None:
            assert outcome is True
        else:
            assert (outcome.components, outcome.basis_rows, outcome.value) == found

        message = _oracle_pair_message(P, Q)
        if message is None:
            seen["pass"] += 1
            assert mu_generic_rank(P, Q) == _oracle_mu_rank(P, Q)
        else:
            seen["sum" if "sum" in message else "pairing"] += 1
            with pytest.raises(PreconditionViolated) as info:
                pair_lemma_check(P, Q)
            assert str(info.value) == message

        V = split_subspace(spaces)
        _assert_integer_rows(V)
        star = _oracle_star(V.rows(), len(spaces), k)
        outcome = check_condition_star(V, len(spaces), k)
        if star is None:
            assert outcome is True
        else:
            seen["star"] += 1
            assert _star_tuple(outcome) == star
    assert min(seen.values()) >= 30, seen


def test_star_and_mu_rank_on_rational_rows_match_oracle():
    rng = random.Random(7)
    for _ in range(150):
        n, k = rng.randint(1, 3), rng.randint(2, 4)
        dim = rng.randint(1, min(3, n * k))
        rows = [[_rational(rng) if rng.random() < 0.6 else 0 for _ in range(n * k)]
                for _ in range(dim)]
        V = Subspace.span(n * k, rows)
        _assert_integer_rows(V)
        star = _oracle_star(V.rows(), n, k)
        outcome = check_condition_star(V, n, k)
        assert outcome is True if star is None else _star_tuple(outcome) == star
    for _ in range(150):
        k = rng.randint(3, 6)
        A, B = random_admissible_pair(k, rng)
        P, Q = Subspace(k, _rescaled(rng, A, False)), Subspace(k, _rescaled(rng, B, False))
        assert mu_generic_rank(P, Q) == _oracle_mu_rank(P, Q)
    # a random point on the line through (1, 1, -2) / r could vanish on the
    # support of (1, -1, 0) / q and drop the rank; the base point never does
    for q in range(1, 6):
        for r in range(1, 6):
            P = Subspace(3, [[Fraction(1, q), Fraction(-1, q), 0]])
            Q = Subspace(3, [[Fraction(1, r), Fraction(1, r), Fraction(-2, r)]])
            for X, Y in ((P, Q), (Q, P)):
                assert mu_generic_rank(X, Y) == _oracle_mu_rank(X, Y) == 2, (q, r)


@pytest.mark.parametrize("entry", [0.5, Decimal("0.5"), "1/2", "1.5"],
                         ids=["float", "Decimal", "ratio-str", "decimal-str"])
def test_subspace_takes_only_ints_and_fractions(entry):
    # the contract has no floats: nothing but ints and Fractions is read
    for make in (Subspace, Subspace.span):
        with pytest.raises(TypeError, match="ints or Fractions"):
            make(2, [[entry, -1]])
    with pytest.raises(TypeError, match="ints or Fractions"):
        mu_rank_at(Subspace(2, [[1, -1]]), Subspace.zero(2), [1, 1], [entry, 1])


def test_mu_rank_at_fraction_points_match_cleared_points():
    rng = random.Random(17)
    for _ in range(200):
        k = rng.randint(2, 6)
        A, B = random_admissible_pair(k, rng)
        a = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
        da, db = math.lcm(*(x.denominator for x in a)), math.lcm(*(x.denominator for x in b))
        rank = mu_rank_at(A, B, [int(x * da) for x in a], [int(x * db) for x in b])
        # the rank of the Fraction columns themselves
        columns = [[x * y for x, y in zip(alpha, b)] for alpha in A.rows()]
        columns += [[x * y for x, y in zip(a, beta)] for beta in B.rows()]
        assert mu_rank_at(A, B, a, b) == rank == exact_rank(columns)


def test_every_constructor_path_stores_integer_rows():
    _assert_integer_rows(Subspace(3, [[Fraction(1, 2), -1, Fraction(1, 2)], [Fraction(2, 3), 0, Fraction(-2, 3)]]))
    _assert_integer_rows(Subspace.span(3, [[Fraction(3, 4), Fraction(-3, 4), 0], [1, 1, -2]]))
    _assert_integer_rows(Subspace(4))
    _assert_integer_rows(kernel_of_sum_subspace(5))
    for sp in parse_doublestar_file("3 3\n1\n1/2 -1/2 0\n0\n2\n1/3 1 -4/3\n5 -5/6 -25/6\n")[2]:
        _assert_integer_rows(sp)
    _assert_integer_rows(parse_star_file("2 2\n1\n1/4 -3/4 0 1/6\n")[2])
    A, B = random_admissible_pair(6, random.Random(3))
    _assert_integer_rows(A)
    _assert_integer_rows(B)
    halves, thirds = Subspace(3, [[Fraction(1, 2), 0, 0]]), Subspace(3, [[0, Fraction(1, 3), 0]])
    _assert_integer_rows(split_subspace([halves, thirds]))
    sp = Subspace(2, [[Fraction(2, 4), Fraction(-6, 4)]])
    assert (sp.basis, sp.den) == (((1, -3),), 2)
    assert sp.rows() == [[Fraction(1, 2), Fraction(-3, 2)]]


# ---------------------------------------------------------------------------
# work the inputs already decide: zero sides, the complement, integer tokens
# ---------------------------------------------------------------------------


def _stacked_rank(A, B):
    """Oracle: the span-inequality side as the dimension of the spanned sum."""
    products = [[x * y for x, y in zip(ra, rb)] for ra in A.basis for rb in B.basis]
    return Subspace.span(A.ambient_dim, products + list(A.basis) + list(B.basis)).dim


def test_pair_lemma_zero_sides_match_stacked_rank():
    cases = []
    for text in ("3 2\n0\n1\n1 -1 0\n", "3 2\n1\n1/2 -1/2 0\n0\n", "3 2\n0\n0\n",
                 "4 2\n2\n1 -1 0 0\n0 0 1 -1\n0\n", "4 2\n0\n3\n1 -1 0 0\n0 1 -1 0\n0 0 1 -1\n"):
        cases.append(tuple(parse_doublestar_file(text)[2]))
    rng = random.Random(31)
    for _ in range(200):
        k = rng.randint(2, 7)
        A, B = random_admissible_pair(k, rng)
        cases += [(A, B), (B, A), (A, Subspace.zero(k)), (Subspace.zero(k), B)]
    zero_sides = 0
    for A, B in cases:
        rhs = A.dim + B.dim
        lhs = _stacked_rank(A, B)
        assert pair_lemma_check(A, B) == (lhs, rhs, lhs >= rhs), (A.basis, B.basis)
        zero_sides += not (A.dim and B.dim)
    assert zero_sides >= 400


@pytest.mark.parametrize("k, dim_a, dim_b", [
    (4, -1, None), (4, None, -2), (4, 1, -1), (4, 4, None), (4, 1, 3), (3, 2, 1),
    (5, None, 2), (2, 2, 0), (6, 0, 6),
])
def test_random_admissible_pair_rejects_out_of_range_dims(k, dim_a, dim_b):
    rng = random.Random(8)
    state = rng.getstate()
    with pytest.raises(ValueError, match="must lie in"):
        random_admissible_pair(k, rng, dim_a, dim_b)
    assert rng.getstate() == state  # rejected before any draw


def test_random_admissible_pair_edge_dims():
    # every dim in range is sampled, the zero ones included
    for k in range(2, 7):
        for dim_a in range(k):
            for dim_b in range(k - dim_a):
                A, B = random_admissible_pair(k, 3, dim_a, dim_b)
                assert (A.dim, B.dim) == (dim_a, dim_b)
                assert _naive_admissible(A, B) == (True, True)
        # with dim_a drawn, dim_b must fit the largest draw
        A, B = random_admissible_pair(k, 3, None, k - 1 - min(3, k - 1))
        assert B.dim == k - 1 - min(3, k - 1)


@pytest.mark.parametrize("tok", ["+3", "-0", "007", "6/3", "-4/6", "12", "-5", "+2/8", "0/7"])
def test_file_entries_match_parse_rational(tok):
    # integer tokens are read with int, p/q tokens with parse_rational; the
    # subspaces equal those of parsing every token with parse_rational
    blocks = [[[tok, "1", "-1"]], [["1", tok, "2"], ["-" + tok.lstrip("+-"), "0", "1/3"]]]
    text = "3 2\n" + "".join(f"{len(b)}\n" + "".join(" ".join(r) + "\n" for r in b) for b in blocks)
    spaces = parse_doublestar_file(text)[2]
    expected = [Subspace(3, [[parse_rational(t) for t in row] for row in b]) for b in blocks]
    assert [(sp.basis, sp.den) for sp in spaces] == [(sp.basis, sp.den) for sp in expected]
    _assert_integer_rows(spaces[0])
    assert type(tangent._TokenReader(tok).entry()) is (Fraction if "/" in tok else int)


@pytest.mark.parametrize("tok", ["1/0", "0.5", "1_0", "٣", "-٣", "1/٣"])
def test_file_entries_still_rejected(tok):
    with pytest.raises(ValueError, match="entry"):
        parse_doublestar_file(f"2 1\n1\n{tok} 0\n")


def test_subspace_keeps_integer_rows_and_maps_bools():
    rows = [(1, -1, 0), [0, 2, -2]]
    sp = Subspace(3, rows)
    assert (sp.basis, sp.den) == (((1, -1, 0), (0, 2, -2)), 1)
    assert rows == [(1, -1, 0), [0, 2, -2]]
    flags = Subspace(3, [[True, False, False], [0, True, Fraction(1, 2)]])
    assert (flags.basis, flags.den) == (((2, 0, 0), (0, 2, 1)), 2)
    _assert_integer_rows(flags)
    assert Subspace(2, [[True, False]]).basis == ((1, 0),)
    _assert_integer_rows(Subspace(2, [[True, False]]))
    assert Subspace(2, [(x for x in (1, -1))]).basis == ((1, -1),)
    with pytest.raises(DimensionMismatch):
        Subspace(3, [[1, -1, 0], [1, -1]])
