"""Truncated log/exp/gamma series and the factorization identities."""

import random
from fractions import Fraction
from math import factorial

import pytest

from pontcalc import cycles
from pontcalc.cycles import (
    Cycle,
    DegreeError,
    RingContext,
    SupportCapExceeded,
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
    poly_eval_at_point,
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


# ---------------------------------------------------------------------------
# the integer paths against Fraction oracles
# ---------------------------------------------------------------------------


def fraction_poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def fraction_poly_compose(outer, inner):
    """outer(inner(T)) by Horner's rule on Fraction lists, trailing zeros
    dropped."""
    result = [Fraction(0)]
    for c in reversed(outer):
        result = fraction_poly_mul(result, inner) or [Fraction(0)]
        result[0] += c
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    return result


@pytest.mark.parametrize("g", range(1, 11))
def test_composites_match_fraction_horner(g):
    log, exp = log_series_coeffs(g + 1), exp_series_coeffs(g + 1)
    assert exp_after_log(g) == fraction_poly_compose(exp, log)
    assert log_after_exp(g) == fraction_poly_compose(log, [Fraction(0)] + exp[1:])


def test_poly_compose_matches_fraction_horner():
    rng = random.Random(7)
    for _ in range(200):
        outer = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(0, 5))]
        inner = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(0, 4))]
        got = poly_compose(outer, inner)
        assert got == fraction_poly_compose(outer, inner)
        assert all(type(c) is Fraction for c in got)


# A cycle oracle: dict[point, Fraction] with zero coefficients dropped.


def oracle_mul(a, b):
    out = {}
    for p, c in a.items():
        for q, d in b.items():
            s = tuple(x + y for x, y in zip(p, q))
            out[s] = out.get(s, Fraction(0)) + c * d
    return {p: c for p, c in out.items() if c}


def oracle_series(coeffs, base, rank):
    """sum_j coeffs[j] * base^j, the powers multiplied out one by one."""
    total, power = {}, {(0,) * rank: Fraction(1)}
    for j, c in enumerate(coeffs):
        if j:
            power = oracle_mul(power, base)
        for p, v in power.items():
            total[p] = total.get(p, Fraction(0)) + c * v
    return {p: c for p, c in total.items() if c}


def oracle_add(a, b, s=1):
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, Fraction(0)) + s * c
    return {p: c for p, c in out.items() if c}


def random_coeff(rng, big):
    if big:
        # numerators and denominators near 2**64
        return Fraction(rng.choice((-1, 1)) * (2**64 - rng.randint(0, 2**20)), 2**64 - rng.randint(1, 2**20))
    return Fraction(rng.randint(-7, 7), rng.randint(2, 9))


def random_terms(rng, rank, big):
    points = {tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 4))}
    terms = {p: random_coeff(rng, big) for p in points}
    return {p: c for p, c in terms.items() if c}


def test_series_operations_match_fraction_oracle():
    rng = random.Random(2024)
    for trial in range(60):
        rank, g, big = rng.randint(1, 3), rng.randint(1, 3), trial % 3 == 0
        c = RingContext(rank=rank, geom_dim=g, support_cap=10**6)
        unit = {(0,) * rank: Fraction(1)}
        terms = random_terms(rng, rank, big)
        # d has degree 0 and d + {0} degree 1; both have non-unit denominators
        d = oracle_add(terms, unit, -sum(terms.values()))
        one = oracle_add(d, unit)
        order = c.series_order
        want_exp = oracle_series([Fraction(1, factorial(j)) for j in range(order + 1)], d, rank)
        assert exp_cycle(Cycle(rank, d), c) == Cycle(rank, want_exp)
        want_log = oracle_series([Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, order + 1)], d, rank)
        assert log_cycle(Cycle(rank, one), c) == Cycle(rank, want_log)

        x = tuple(rng.randint(-2, 2) for _ in range(rank))
        if not any(x):
            x = (1,) + x[1:]
        v = {(0,) * rank: Fraction(1), x: Fraction(-1)}
        assert gamma(x, c) == Cycle(rank, oracle_series([Fraction(0)] + [Fraction(1, j) for j in range(1, order + 1)], v, rank))
        u = {p: -coeff for p, coeff in v.items()}
        want_w = oracle_series([Fraction((-1) ** j, j + 1) for j in range(g + 1)], u, rank)
        assert gamma_factorization(x, c) == Cycle(rank, want_w)

        coeffs = [random_coeff(rng, big) if rng.random() < 0.8 else Fraction(0) for _ in range(rng.randint(0, 5))]
        base = random_terms(rng, rank, big)
        assert poly_eval_at_cycle(coeffs, Cycle(rank, base), c) == Cycle(rank, oracle_series(coeffs, base, rank))


@pytest.mark.parametrize("coeffs", [[], [0], [0, 0], [3], [0, 1], [1, 2, 0, 0], [Fraction(1, 2), 0, Fraction(-2, 3)], [0, 0, 5, 0]])
def test_horner_convolves_no_zero_operand(coeffs, monkeypatch):
    # Horner starts from the top nonzero coefficient times the unit: one
    # convolution per power below it, and never one with a zero operand
    from pontcalc import series

    c = ctx1(2)
    base = Cycle(1, {(0,): Fraction(-1, 2), (1,): 3})
    calls = []

    def counted(c1, c2, ctx):
        assert not c1.is_zero() and not c2.is_zero()
        calls.append(1)
        return pontryagin(c1, c2, ctx)

    monkeypatch.setattr(series, "pontryagin", counted)
    got = poly_eval_at_cycle(coeffs, base, c)
    degree = max((j for j, a in enumerate(coeffs) if a), default=0)
    assert len(calls) == degree
    assert got == Cycle(1, oracle_series([Fraction(a) for a in coeffs], dict(base.items()), 1))


# ---------------------------------------------------------------------------
# the closed-form evaluator at a point against Horner's rule
# ---------------------------------------------------------------------------

POINTS = [(1,), (-2,), (0,), (2, -1), (0, 0), (-1, 0, 2), (0, 0, 0), (1, -1, -1)]
POLYS = [
    [],
    [0],
    [0, 0, 0],
    [5],
    [1, 1],
    [0, 0, 3, 0, 0],
    [Fraction(1, 2), -2, Fraction(-7, 3)],
    [Fraction(2), Fraction(0), Fraction(5, 6), Fraction(0)],
]


@pytest.mark.parametrize("x", POINTS)
@pytest.mark.parametrize("q", POLYS)
def test_point_evaluator_matches_horner_at_the_point(q, x):
    c = RingContext(rank=len(x), geom_dim=2, support_cap=10**6)
    assert poly_eval_at_point(q, x, c) == poly_eval_at_cycle(q, Cycle.point(x), c)


@pytest.mark.parametrize("x", POINTS)
@pytest.mark.parametrize("p", POLYS)
def test_shifted_point_evaluator_matches_horner_at_u(p, x):
    # p(u) for u = {x} - {0} is q({x}) with q(S) = p(S - 1)
    c = RingContext(rank=len(x), geom_dim=2, support_cap=10**6)
    u = Cycle.point(x) - Cycle.unit(len(x))
    assert poly_eval_at_point(poly_compose(p, [-1, 1]), x, c) == poly_eval_at_cycle(p, u, c)


def test_point_evaluator_matches_the_exp_log_model():
    rng = random.Random(5)
    for g in range(1, 5):
        shifted = poly_compose(exp_after_log(g), [-1, 1])
        for rank in (1, 2, 3):
            c = RingContext(rank=rank, geom_dim=g, support_cap=10**6)
            x = tuple(rng.randint(-2, 2) for _ in range(rank))
            u = Cycle.point(x) - Cycle.unit(rank)
            want = exp_cycle(log_cycle(Cycle.point(x), c), c)
            assert poly_eval_at_point(shifted, x, c) == want == poly_eval_at_cycle(exp_after_log(g), u, c)


@pytest.mark.parametrize("x", [(2,), (-1, 2), (1, 0, -1)])
def test_point_evaluator_cap_is_degree_times_height(x):
    q = [1, 0, Fraction(1, 3), 2, 0]  # degree 3 once the trailing zero is dropped
    reach = 3 * sum(map(abs, x))
    at_cap = RingContext(rank=len(x), geom_dim=2, support_cap=reach)
    assert poly_eval_at_point(q, x, at_cap) == poly_eval_at_cycle(q, Cycle.point(x), at_cap)
    below = RingContext(rank=len(x), geom_dim=2, support_cap=reach - 1)
    with pytest.raises(SupportCapExceeded):
        poly_eval_at_point(q, x, below)
    # Horner's rule at the same point raises at the same cap
    with pytest.raises(SupportCapExceeded):
        poly_eval_at_cycle(q, Cycle.point(x), below)


def test_power_sums_convolve_no_unit(monkeypatch):
    # base^{*1} is the base itself: at g = 3, gamma, log and exp convolve
    # for the powers 2..4 and gamma_factorization for 2..3
    calls = []
    original = cycles.pontryagin
    monkeypatch.setattr(cycles, "pontryagin", lambda *args: calls.append(args) or original(*args))
    c = ctx1(3)
    for series, arg, count in [(gamma, X1, 3), (log_cycle, Cycle.point(X1), 3),
                               (exp_cycle, Cycle.point(X1) - Cycle.unit(1), 3), (gamma_factorization, X1, 2)]:
        calls.clear()
        series(arg, c)
        assert len(calls) == count, series
        assert all(a != Cycle.unit(1) for args in calls for a in args[:2])


def test_power_sum_base_is_checked_as_a_convolution_input():
    # gamma_factorization at g = 1 uses only base^{*1} = {x} - {0}, which no
    # convolution checks: a point above the cap still raises, as an input
    with pytest.raises(SupportCapExceeded) as info:
        gamma_factorization((3,), ctx1(1, cap=2))
    assert info.value.where == "input" and info.value.point == (3,)
    # and a cycle of another rank than the context's raises ValueError
    with pytest.raises(ValueError, match="rank"):
        exp_cycle(Cycle.point((1, 0)) - Cycle.point((0, 1)), ctx1(1))
