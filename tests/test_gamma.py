"""Truncated log/exp/gamma series and the factorization identities."""

import random
from fractions import Fraction

import pytest

from pontcalc.cycles import (
    Cycle,
    DegreeError,
    RingContext,
    exp_cycle,
    gamma,
    gamma_factorization,
    log_cycle,
    pontryagin,
    star_power,
)
from pontcalc.series import (
    exp_after_log,
    exp_series_coeffs,
    log_after_exp,
    log_series_coeffs,
    poly_compose,
    poly_eval_at_cycle,
    poly_mul,
)


def ctx1(g, cap=10**6):
    return RingContext(rank=1, geom_dim=g, support_cap=cap)


X1 = (1,)


def test_log_unit_is_zero():
    assert log_cycle(Cycle.unit(1), ctx1(3)).is_zero()


def test_log_two_term_series_g1():
    # u - u^2/2 expanded by hand for c = {x}, g = 1
    got = log_cycle(Cycle.point(X1), ctx1(1))
    want = Cycle(
        1,
        {(2,): Fraction(-1, 2), X1: Fraction(2), (0,): Fraction(-3, 2)},
    )
    assert got == want


def test_log_requires_degree_one():
    with pytest.raises(DegreeError):
        log_cycle(Cycle.point(X1, 2), ctx1(2))
    with pytest.raises(DegreeError):
        exp_cycle(Cycle.point(X1), ctx1(2))


def test_exp_of_zero():
    assert exp_cycle(Cycle.zero(1), ctx1(4)) == Cycle.unit(1)


def test_gamma_of_origin_is_zero():
    assert gamma((0,), ctx1(3)).is_zero()


def test_gamma_equals_minus_log():
    rng = random.Random(0)
    for g in range(1, 7):
        c = ctx1(g)
        assert gamma(X1, c) == -log_cycle(Cycle.point(X1), c)
        assert gamma(X1, c).degree() == 0
    # also away from the generator and in higher rank
    for g in (1, 2, 3):
        c = RingContext(rank=2, geom_dim=g, support_cap=10**6)
        for _ in range(5):
            x = (rng.randint(-3, 3), rng.randint(-3, 3))
            assert gamma(x, c) == -log_cycle(Cycle.point(x), c)


def test_factorization_one_term_series_g1():
    w = gamma_factorization(X1, ctx1(1))
    u = Cycle.point(X1) - Cycle.unit(1)
    assert w == Cycle.unit(1) - u.scale(Fraction(1, 2))
    assert w.degree() == 1


def test_factorization_identity():
    for g in range(1, 7):
        c = ctx1(g)
        u = Cycle.point(X1) - Cycle.unit(1)
        w = gamma_factorization(X1, c)
        assert gamma(X1, c) == -pontryagin(u, w, c)
        assert w.degree() == 1


def test_factorization_rejects_origin():
    with pytest.raises(ValueError):
        gamma_factorization((0,), ctx1(2))


def test_gamma_power_factorization_k2_g3():
    c = ctx1(3)
    u = Cycle.point(X1) - Cycle.unit(1)
    w = gamma_factorization(X1, c)
    lhs = star_power(gamma(X1, c), 2, c)
    rhs = pontryagin(star_power(u, 2, c), star_power(w, 2, c), c)
    assert lhs == rhs  # (-1)^2 = 1


def test_series_helpers():
    assert log_series_coeffs(3) == [0, 1, Fraction(-1, 2), Fraction(1, 3)]
    assert exp_series_coeffs(3) == [1, 1, Fraction(1, 2), Fraction(1, 6)]
    a = [Fraction(1), Fraction(2)]
    b = [Fraction(0), Fraction(1), Fraction(3)]
    assert poly_mul(a, b) == [0, 1, 5, 6]
    # compose against direct expansion: (1 + T)^2 at T = 2X
    sq = poly_compose([Fraction(1), Fraction(2), Fraction(1)], [Fraction(0), Fraction(2)])
    assert sq == [1, 4, 4]


def test_composites_are_identity_to_the_truncation_order():
    for g in range(1, 7):
        P = exp_after_log(g)
        assert P[0] == 1 and P[1] == 1
        assert all(P[j] == 0 for j in range(2, g + 2))
        assert any(P[j] != 0 for j in range(g + 2, len(P)))  # free-ring residual
        Q = log_after_exp(g)
        assert Q[0] == 0 and Q[1] == 1
        assert all(Q[j] == 0 for j in range(2, g + 2))


def test_exp_log_cycles_match_univariate_model():
    # the cycle computation is an instance of the polynomial composite, so
    # the two independent paths must agree exactly in the free ring
    rng = random.Random(11)
    for _ in range(10):
        g = rng.randint(1, 4)
        c = ctx1(g)
        coeffs = {
            (i,): Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            for i in range(-1, 2)
        }
        d = Cycle(1, coeffs)
        d = d - Cycle.unit(1).scale(d.degree())  # degree 0
        one = d + Cycle.unit(1)  # degree 1
        u = one - Cycle.unit(1)
        assert exp_cycle(log_cycle(one, c), c) == poly_eval_at_cycle(exp_after_log(g), u, c)
        assert log_cycle(exp_cycle(d, c), c) == poly_eval_at_cycle(log_after_exp(g), d, c)


def test_exp_of_minus_gamma_recovers_point_modulo_residual():
    for g in (1, 2, 3):
        c = ctx1(g)
        got = exp_cycle(gamma(X1, c).scale(-1), c)
        u = Cycle.point(X1) - Cycle.unit(1)
        model = poly_eval_at_cycle(exp_after_log(g), u, c)
        assert got == model
        # the defect against {x} sits entirely in powers >= g+2 of u
        residual_coeffs = [Fraction(0)] * (g + 2) + exp_after_log(g)[g + 2 :]
        assert got - Cycle.point(X1) == poly_eval_at_cycle(residual_coeffs, u, c)
