"""Exact threshold and recurrence arithmetic for the dimension bounds.

All quantities are arbitrary-precision integers; formulas grow like 2^k,
so nothing here may ever go through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ThresholdTable:
    """The dimension thresholds attached to a degree k.

    g_gonality: a very general abelian variety of dimension >= this has
      gonality at least k + 1.
    g_orbit_all: no positive-dimensional orbit of degree <= k.
    g_orbit_weierstrass: no positive-dimensional orbit containing a doubled
      origin (equals g_gonality).
    g_orbit_countable: the orbit of k times the origin is countable.
    induction_G: the doubling recurrence G_0..G_k connecting the countable
      case to the all-orbits case.
    """

    k: int
    g_gonality: int
    g_orbit_all: int
    g_orbit_weierstrass: int
    g_orbit_countable: int
    induction_G: tuple[int, ...]


def induction_closed_form(k: int, l: int) -> int:
    """Closed form 2^l (2k-1) + (2^l - 1)(k-2) of the doubling recurrence."""
    if k < 2 or l < 0:
        raise ValueError("need k >= 2 and l >= 0")
    return 2**l * (2 * k - 1) + (2**l - 1) * (k - 2)


def induction_sequence(k: int) -> list[int]:
    """G_0..G_k with G_0 = 2k-1 and G_{l+1} = 2 G_l + (k - 2).

    Matches the closed form 2^l (2k-1) + (2^l - 1)(k-2) exactly.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    seq = [2 * k - 1]
    for _ in range(k):
        seq.append(2 * seq[-1] + (k - 2))
    return seq


def thresholds(k: int) -> ThresholdTable:
    if k < 2:
        raise ValueError("k must be at least 2")
    return ThresholdTable(
        k=k,
        g_gonality=induction_closed_form(k, k - 2),
        g_orbit_all=induction_closed_form(k, k),
        g_orbit_weierstrass=induction_closed_form(k, k - 2),
        g_orbit_countable=2 * k - 1,
        induction_G=tuple(induction_sequence(k)),
    )


def conjectured_gonality_threshold(k: int) -> int:
    """The conjectural (unproven) threshold 2k - 1.

    Displayed only with an explicit conjecture label, never as a proven
    bound.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    return 2 * k - 1


def descent_thresholds(g0: int, k: int) -> tuple[int, int]:
    """(2*g0 - 1, g0 + k - 1): the dimensions at which the descent reaches
    countability, starting from a proper locus at g0 (first value) or from
    a locus of dimension <= k-1 at g0 >= k (second value)."""
    if g0 < 1 or k < 1:
        raise ValueError("g0 and k must be positive")
    return 2 * g0 - 1, g0 + k - 1


def max_proven_gonality(g: int) -> int:
    """Largest k with g_gonality(k) <= g, i.e. the proven bound
    "gonality >= k + 1" at dimension g; returns 1 when no bound applies."""
    if g < 1:
        raise ValueError("g must be positive")
    best = 1
    k = 2
    while induction_closed_form(k, k - 2) <= g:
        best = k
        k += 1
    return best
