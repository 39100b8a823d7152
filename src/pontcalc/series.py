"""Univariate exact polynomial helpers for series cross-checks.

The truncated log/exp cycle operations are polynomial expressions in a
single ring element, so their composites can be predicted by ordinary
polynomial arithmetic over Q.  These helpers provide that independent
path: coefficient lists (index = power) with Fraction entries, and two
evaluators that substitute a ring element for the variable.
``poly_eval_at_cycle`` runs Horner's rule at any cycle; ``poly_eval_at_point``
evaluates at a point {x} in closed form, sum_i q_i {i x}, since
{x}^{*i} = {i x}, with no convolution.  A polynomial p at u = {x} - {0}
is q = p(S - 1) at {x}.  Composition and both evaluators run on integer
numerators, the coefficients cleared to one common denominator, and divide
by it once at the end.  The model uses only public ``Cycle`` operations and
``pontryagin``, never the power sums of ``cycles`` (``_power_sum``) or any
other private name there.

Composing the truncated series shows exactly what "exp and log are
inverse" means here: exp_after_log(g) equals 1 + T up to order g + 1,
with an explicit residual supported in powers >= g + 2.  The residual is
the part the nilpotency axiom kills; in the free ring it is nonzero and
these coefficients are the witness.
"""

from __future__ import annotations

from fractions import Fraction

from .cycles import Cycle, RingContext, SupportCapExceeded, pontryagin
from .linalg import clear_denominators


def log_series_coeffs(order: int) -> list[Fraction]:
    """Coefficients of T - T^2/2 + ... +- T^order / order."""
    return [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, order + 1)]


def exp_series_coeffs(order: int) -> list[Fraction]:
    """Coefficients of 1 + T + T^2/2! + ... + T^order / order!."""
    coeffs = [Fraction(1)]
    factorial = 1
    for j in range(1, order + 1):
        factorial *= j
        coeffs.append(Fraction(1, factorial))
    return coeffs


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_compose(outer: list[Fraction], inner: list[Fraction]) -> list[Fraction]:
    """Full composition outer(inner(T)), no truncation (Horner).

    With outer = O / d_o and inner = I / d_i for integer lists O and I,
    outer(inner) = sum_j O_j * d_i^(n-j) * I^j / (d_o * d_i^n), n the degree
    of outer: Horner's rule runs on the integer lists and divides once.
    """
    d_o, num_o = clear_denominators(outer)
    d_i, num_i = clear_denominators(inner)
    result = [0]
    for e, c in enumerate(reversed(num_o)):
        result = poly_mul(result, num_i) or [0]
        result[0] += c * d_i**e
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    den = d_o * d_i ** max(len(num_o) - 1, 0)
    return [Fraction(n, den) for n in result]


def exp_after_log(g: int) -> list[Fraction]:
    """Coefficients of E(L(T)) for the order-(g+1) truncations E, L."""
    order = g + 1
    return poly_compose(exp_series_coeffs(order), log_series_coeffs(order))


def log_after_exp(g: int) -> list[Fraction]:
    """Coefficients of L(E(T) - 1) for the order-(g+1) truncations."""
    order = g + 1
    e = exp_series_coeffs(order)
    e_minus_one = [e[0] - 1] + e[1:]
    return poly_compose(log_series_coeffs(order), e_minus_one)


def poly_eval_at_cycle(coeffs: list[Fraction], base: Cycle, ctx: RingContext) -> Cycle:
    """Evaluate sum coeffs[j] * base^{*j} by Horner's rule in the cycle ring,
    on the coefficients cleared to integers, scaled once at the end.  Horner
    starts from the top nonzero coefficient times the unit, so that no
    convolution has a zero operand."""
    den, nums = clear_denominators(coeffs)
    while nums and not nums[-1]:
        nums.pop()
    unit = Cycle.unit(ctx.rank)
    result = unit.scale(nums.pop()) if nums else Cycle.zero(ctx.rank)
    for n in reversed(nums):
        result = pontryagin(result, base, ctx) + unit.scale(n)
    return result.scale(Fraction(1, den))


def poly_eval_at_point(coeffs: list[Fraction], x: tuple[int, ...], ctx: RingContext) -> Cycle:
    """Evaluate sum coeffs[i] * {x}^{*i} = sum coeffs[i] * {i x} in closed
    form, on the coefficients cleared to integers, scaled once at the end.
    Terms that land on one point (x = 0) are added.  Raises
    ``SupportCapExceeded`` when deg * |x|_1 exceeds the cap, the highest
    point Horner's rule would reach."""
    den, nums = clear_denominators(coeffs)
    while nums and not nums[-1]:
        nums.pop()
    top = len(nums) - 1
    if top * sum(map(abs, x)) > ctx.support_cap:
        raise SupportCapExceeded(tuple(top * c for c in x), ctx.support_cap)
    terms = [(tuple(i * c for c in x), n) for i, n in enumerate(nums) if n]
    return Cycle(ctx.rank, terms).scale(Fraction(1, den))
