"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass line on success (visible with pytest -s);
a failed assertion is the fail signal.  Nothing here uses tolerances:
every comparison is exact equality of rationals or integers.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial

from pontcalc.bounds import (
    descent_thresholds,
    induction_closed_form,
    induction_sequence,
    thresholds,
)
from pontcalc.cycles import (
    Cycle,
    RingContext,
    exp_cycle,
    gamma,
    gamma_factorization,
    log_cycle,
    pontryagin,
    star_power,
)
from pontcalc.kernels import binomial_kernel, derivative_oracle
from pontcalc.relations import (
    alpha_coefficients,
    check_recursion_identity,
    power_basis_change,
    verify_certificate,
    verify_relation,
)
from pontcalc.series import exp_after_log, log_after_exp, poly_eval_at_cycle
from pontcalc.tangent import (
    Subspace,
    check_condition_doublestar,
    check_condition_star,
    kernel_of_sum_subspace,
    pair_lemma_check,
    random_admissible_pair,
    search_max_total_dimension,
    split_subspace,
)


def _passed(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_binomial_kernels():
    start = time.perf_counter()
    for k in range(1, 13):
        for d in range(1, k):
            assert binomial_kernel(k, d) == 0
        assert binomial_kernel(k, k) == factorial(k)
        assert derivative_oracle(k) == [0] * k + [factorial(k)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"kernel table took {elapsed:.3f}s"
    _passed(1, f"kernels zero below diagonal, k! on it, oracle agrees ({elapsed*1000:.0f} ms)")


def test_criterion_2_alternating_expansion():
    rng = random.Random(0)
    cases = [(1, (1,))]
    cases += [(2, (rng.randint(-2, 2), rng.randint(1, 2))) for _ in range(3)]
    for rank, x in cases:
        ctx = RingContext(rank=rank, geom_dim=1, support_cap=10**6)
        u = Cycle.point(x) - Cycle.unit(rank)
        for k in range(1, 9):
            expected = Cycle(
                rank,
                {tuple(i * c for c in x): (-1) ** (k - i) * comb(k, i) for i in range(k + 1)},
            )
            assert star_power(u, k, ctx) == expected, (rank, x, k)
    _passed(2, "star powers of {x}-{0} equal the alternating binomial expansion, k <= 8")


def _random_degree_one_cycle(rng, rank, npoints):
    pts = set()
    while len(pts) < npoints:
        p = tuple(rng.randint(-2, 2) for _ in range(rank))
        if any(p):
            pts.add(p)
    terms = {
        p: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for p in pts
    }
    c = Cycle(rank, terms)
    return c + Cycle.unit(rank).scale(1 - c.degree())


def test_criterion_3_gamma_calculus():
    # gamma == -log exactly, g <= 6
    for g in range(1, 7):
        ctx = RingContext(rank=1, geom_dim=g, support_cap=10**6)
        for coord in (1, 2, -1):
            x = (coord,)
            assert gamma(x, ctx) == -log_cycle(Cycle.point(x), ctx)

    # exp/log inverse identities on 100 random cycles: the composite of the
    # truncated series is the identity through order g+1 (checked on the
    # univariate model), and the cycle computation matches the model
    # exactly in the free ring, so the defect sits in powers >= g+2 of the
    # input, which the nilpotency axiom kills
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        g = rng.randint(1, 6)
        npoints = 1 if g >= 4 else rng.randint(1, 3)
        rank = rng.randint(1, 2)
        ctx = RingContext(rank=rank, geom_dim=g, support_cap=10**6)
        P = exp_after_log(g)
        Q = log_after_exp(g)
        assert P[0] == 1 and P[1] == 1 and all(P[j] == 0 for j in range(2, g + 2))
        assert Q[0] == 0 and Q[1] == 1 and all(Q[j] == 0 for j in range(2, g + 2))
        if checked % 2 == 0:
            c = _random_degree_one_cycle(rng, rank, npoints)
            u = c - Cycle.unit(rank)
            assert exp_cycle(log_cycle(c, ctx), ctx) == poly_eval_at_cycle(P, u, ctx)
        else:
            d = _random_degree_one_cycle(rng, rank, npoints) - Cycle.unit(rank)
            assert log_cycle(exp_cycle(d, ctx), ctx) == poly_eval_at_cycle(Q, d, ctx)
        checked += 1

    # gamma power factorization, k <= 5, g <= 6
    x = (1,)
    for g in range(1, 7):
        ctx = RingContext(rank=1, geom_dim=g, support_cap=10**6)
        u = Cycle.point(x) - Cycle.unit(1)
        w = gamma_factorization(x, ctx)
        gx = gamma(x, ctx)
        assert gx == -pontryagin(u, w, ctx)
        for k in range(1, 6):
            lhs = star_power(gx, k, ctx)
            rhs = pontryagin(star_power(u, k, ctx), star_power(w, k, ctx), ctx)
            assert lhs == rhs.scale(Fraction((-1) ** k)), (g, k)
    _passed(3, "gamma = -log, exp/log inverse pair mod the axiom, power factorization")


def test_criterion_4_recursion_identity():
    for k in range(2, 6):
        for l in range(1, k):
            assert check_recursion_identity(k, l), (k, l)
    _passed(4, "inductive relation holds freely for 2 <= k <= 5, all l")


def test_criterion_5_alpha_matrix():
    for k in range(2, 9):
        m = alpha_coefficients(k)
        assert m.zero_entries == (), f"zero alpha entry at k={k}"
        for l in range(0, k):
            assert m.row_sum(l) == comb(k - 1, l)
        assert m.row_sum(k) == 0
        beta = power_basis_change(list(m.row(k)))
        assert beta[0] == 0
        assert beta[k] != 0
    _passed(5, "alpha entries nonzero for k <= 8, degree row sums, beta_0 = 0 != beta_k")


def test_criterion_6_relation_certificates():
    runs = [(2, g) for g in range(1, 7)] + [(k, g) for k in (3, 4) for g in range(1, 5)]
    for k, g in runs:
        start = time.perf_counter()
        cert = verify_relation(k, g)
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"k={k} g={g} took {elapsed:.1f}s"
        assert verify_certificate(cert), (k, g)
        if k == 2:
            assert not cert.nilpotent.orbits
        assert cert.max_multiplier_height() <= cert.cap
        assert all(j <= cert.j_max for j in cert.pushforward_indices())
    _passed(6, "certificates for k=2 (g<=6, no nilpotent part) and k=3,4 (g<=4), re-verified")


def test_criterion_7_tangent_conditions():
    for k in range(2, 11):
        V = kernel_of_sum_subspace(k)
        assert V.dim == k - 1
        assert check_condition_star(V, 1, k) is True

    rng = random.Random(17)
    for _ in range(100):
        k = rng.randint(2, 5)
        n = rng.randint(1, 3)
        spaces = []
        for _ in range(n):
            dim = rng.randint(0, min(2, k - 1))
            rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(dim)]
            spaces.append(Subspace.span(k, rows))
        star = check_condition_star(split_subspace(spaces), n, k) is True
        double = check_condition_doublestar(spaces) is True
        assert star == double

    for k in range(2, 9):
        pair_rng = random.Random(1000 + k)
        for _ in range(1000):
            A, B = random_admissible_pair(k, pair_rng)
            lhs, rhs, ok = pair_lemma_check(A, B)
            assert ok, (k, A.basis, B.basis)

    for k in (2, 3, 4):
        result = search_max_total_dimension(k, 2, budget=10**5, seed=0)
        assert result.best_sum <= k - 1, (k, result.best_sum)
        assert result.counterexample is None
    _passed(7, "kernel witness, (*) <-> (**) x100, pair lemma x1000 per k, search <= k-1")


def test_criterion_8_bound_arithmetic():
    assert thresholds(2).g_gonality == 3
    assert thresholds(3).g_gonality == 11
    assert thresholds(2).g_orbit_all == 12
    for k in range(2, 31):
        assert thresholds(k).g_orbit_countable == 2 * k - 1
    for k in range(2, 21):
        value = 2 * k - 1
        for l in range(0, 31):
            assert value == induction_closed_form(k, l), (k, l)
            value = 2 * value + (k - 2)
        assert induction_sequence(k) == [induction_closed_form(k, l) for l in range(k + 1)]
    for k in range(1, 21):
        assert descent_thresholds(k + 1, k) == (2 * k + 1, 2 * k)
    _passed(8, "thresholds, recurrence vs closed form (k<=20, l<=30), descent arithmetic")
