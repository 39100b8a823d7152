"""Alternating binomial kernels and their independent cross-checks."""

import math

import pytest

from pontcalc.cycles import Cycle, RingContext, star_power
from pontcalc.kernels import (
    binomial_kernel,
    derivative_oracle,
    kernel_table,
    pont_pullback_coefficient,
)


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind by S(n, m) = m S(n-1, m) + S(n-1, m-1)."""
    row = [1]  # S(0, 0)
    for nn in range(1, n + 1):
        row = [0] + [mm * (row[mm] if mm < len(row) else 0) + row[mm - 1] for mm in range(1, nn + 1)]
    return row[m] if m < len(row) else 0


def test_known_values():
    assert binomial_kernel(3, 1) == 0
    assert binomial_kernel(3, 3) == 6
    assert binomial_kernel(1, 0) == 0
    assert pont_pullback_coefficient(2, 1) == 0
    assert pont_pullback_coefficient(2, 2) == 2
    assert pont_pullback_coefficient(5, 3) == 0


def test_structure_below_and_on_diagonal():
    for k in range(1, 13):
        for d in range(1, k):
            assert binomial_kernel(k, d) == 0, (k, d)
        assert binomial_kernel(k, k) == math.factorial(k)
        assert binomial_kernel(k, 0) == 0


def test_values_above_diagonal_are_exact_but_unconstrained():
    # d > k values exist (surjection counts); just pin a couple
    assert binomial_kernel(2, 3) == 6
    assert binomial_kernel(3, 4) == 36


def test_derivative_oracle():
    # the whole row d = 0..k: zero below the diagonal, k! on it
    assert derivative_oracle(1) == [0, 1]
    assert derivative_oracle(4) == [0, 0, 0, 0, 24]
    for k in range(1, 31):
        assert derivative_oracle(k) == [0] * k + [math.factorial(k)], k


def test_derivative_oracle_range_errors():
    for k in (0, -1):
        with pytest.raises(ValueError):
            derivative_oracle(k)
    with pytest.raises(ValueError):
        binomial_kernel(0, 1)
    with pytest.raises(ValueError):
        binomial_kernel(2, -1)
    with pytest.raises(ValueError):
        pont_pullback_coefficient(2, 0)


def test_recovery_from_falling_factorials():
    # i^d = sum_m S(d, m) * falling(i, m) turns oracle values into kernels
    for k in range(1, 9):
        for d in range(0, k + 1):
            recovered = sum(stirling2(d, m) * derivative_oracle(k)[m] for m in range(d + 1))
            assert recovered == binomial_kernel(k, d), (k, d)


def test_consistency_with_cycle_expansion():
    # evaluating the degree-d character i -> i^d on the alternating
    # expansion of ({x} - {0})^{*k} must reproduce the kernel
    ctx = RingContext(rank=1, geom_dim=1, support_cap=100)
    x = (1,)
    u = Cycle.point(x) - Cycle.unit(1)
    for k in range(1, 7):
        power = star_power(u, k, ctx)
        for d in range(0, 7):
            val = sum(
                coeff * (p[0] ** d if d > 0 else 1) for p, coeff in power.items()
            )
            assert val == binomial_kernel(k, d), (k, d)


def test_kernel_table_shape():
    table = kernel_table(4)
    assert len(table) == 4 * 5
    assert {v.k for v in table} == {1, 2, 3, 4}
