"""Alternating binomial kernels and pullback coefficients.

The central quantity is sum_{i=0}^{k} (-1)^{k-i} C(k,i) i^d (with 0^0 = 1),
which vanishes for 0 <= d < k and equals k! at d = k.  It is the scalar by
which the alternating sum of multiplication-by-i correspondences acts on a
degree-d form, since multiplication by i pulls such a form back to i^d
times itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class KernelValue:
    k: int
    d: int
    value: int


def binomial_kernel(k: int, d: int) -> int:
    """Exact value of sum_{i=0}^{k} (-1)^{k-i} C(k,i) i^d, with 0^0 = 1.

    Zero for 0 <= d < k, k! at d = k.  Values for d > k are returned
    exactly as well but carry no structural guarantee.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if d < 0:
        raise ValueError("d must be nonnegative")
    total = 0
    for i in range(k + 1):
        power = 1 if d == 0 else i**d
        total += (-1) ** (k - i) * math.comb(k, i) * power
    return total


def derivative_oracle(k: int) -> list[int]:
    """Independent cross-check path via exact polynomial differentiation.

    Expands (X - 1)^k once by repeated multiplication, then differentiates
    it formally one step at a time, and returns the d-th derivative at
    X = 1 for d = 0..k.  Entry d equals
    sum (-1)^{k-i} C(k,i) i(i-1)...(i-d+1), the falling-factorial analogue
    of ``binomial_kernel``: 0 for d < k and k! for d = k.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    poly = [1]
    for _ in range(k):
        # multiply by (X - 1)
        poly = [-poly[0]] + [poly[i - 1] - poly[i] for i in range(1, len(poly))] + [poly[-1]]
    row = []
    for _ in range(k + 1):
        row.append(sum(poly))
        poly = [i * poly[i] for i in range(1, len(poly))]
    return row


def pont_pullback_coefficient(k: int, d: int) -> int:
    """The scalar by which the degree-k alternating correspondence acts on
    a degree-d form: 0 for d < k and k! for d = k."""
    if d < 1:
        raise ValueError("form degree d must be positive")
    return binomial_kernel(k, d)


def kernel_table(kmax: int, dmax: int | None = None) -> list[KernelValue]:
    """All kernel values for 1 <= k <= kmax, 0 <= d <= dmax (default kmax)."""
    if dmax is None:
        dmax = kmax
    if kmax < 1 or dmax < 0:
        raise ValueError("need kmax >= 1 and dmax >= 0")
    return [
        KernelValue(k, d, binomial_kernel(k, d))
        for k in range(1, kmax + 1)
        for d in range(dmax + 1)
    ]
