"""Certificate engine for the k-th convolution power of a point difference.

Setting: k free generators x_1, ..., x_k and the hypothesis cycle

    h = {x_1} + ... + {x_k} - k{0},

whose vanishing in the modeled quotient expresses "the k points sum to k
times the origin".  The engine exhibits u^{*k}, u = {x_1} - {0}, as an
exact combination of monomial multiples of the pushforwards (m_j)_* h
(the relation ideal) plus, when needed, monomial multiples of products of
g+1 augmentation-ideal generators (the nilpotency span).  Any certificate
it returns is re-verified by brute-force expansion through an independent
code path, so a returned certificate is a proof; failure to find one
within the caps is reported as inconclusive, never as a refutation.

Two solution strategies share the same certificate format:

* ``newton`` (default): telescopes the elementary-symmetric / power-sum
  recursion satisfied by the subset-sum cycles gamma_l, which yields
  explicit cofactors with multiplier monomials of height <= k - 1 and
  pushforward indices j <= k.  This always lies inside the default
  monomial window.
* ``window``: decides membership in the local algebra Q[y]/(y)^{g+1},
  y = x - 1, by a rule: for k > g the target is a nilpotent product, and
  for k <= g it is a member iff j_max >= k, certified by the Newton
  cofactors.  ``cap`` bounds the multiplier height a certificate may have
  (up to ``2 * cap``).  A non-member is still reported as inconclusive.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb

from .cycles import (
    Cycle,
    GroupPoint,
    RingContext,
    pontryagin,
    pushforward,
    star_power,
)


class NotFoundWithinCaps(Exception):
    """No certificate found within the caps.

    This is inconclusive: membership may still hold at larger caps, and a
    non-membership the window rule decides (k <= g, j_max < k) comes
    without a witness.
    """

    def __init__(self, k: int, g: int, j_max: int, caps_tried: list[int]):
        self.k = k
        self.g = g
        self.j_max = j_max
        self.caps_tried = caps_tried
        super().__init__(
            f"no certificate for k={k}, g={g} with j_max={j_max} "
            f"within monomial caps {caps_tried} (inconclusive)"
        )


# ---------------------------------------------------------------------------
# gamma cycles and the recursion identity
# ---------------------------------------------------------------------------


def subset_sum_cycle(rank: int, indices: list[int], size: int) -> Cycle:
    """Sum over all size-``size`` subsets I of the given generator indices
    of the point cycle {x_I}, where x_I is the sum of the chosen generators."""
    terms = []
    for combo in itertools.combinations(indices, size):
        coords = [0] * rank
        for i in combo:
            coords[i] += 1
        terms.append((GroupPoint(coords), 1))
    return Cycle(rank, terms)


def hypothesis_cycle(k: int) -> Cycle:
    """h = {x_1} + ... + {x_k} - k{0} in rank k."""
    terms = [(GroupPoint.generator(k, i), 1) for i in range(k)]
    terms.append((GroupPoint.origin(k), -k))
    return Cycle(k, terms)


def pushed_hypothesis(k: int, j: int) -> Cycle:
    """(m_j)_* h = {j x_1} + ... + {j x_k} - k{0}."""
    return pushforward(hypothesis_cycle(k), j)


def check_recursion_identity(k: int, l: int, ctx: RingContext | None = None) -> bool:
    """Exact free-ring check of the inductive relation on subset-sum cycles.

    With gamma_l the sum over size-l subsets of {x_2, ..., x_k}, verifies

      (sum_{i=2..k} {x_i}) * gamma_l
          = (l+1) gamma_{l+1} + sum_{i>=1} (-1)^{i+1} ((m_{i+1})_* gamma_1) * gamma_{l-i}

    over the free generators, with no hypothesis imposed.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not 1 <= l <= k - 1:
        raise ValueError(f"l={l} out of range 1..{k - 1}")
    rank = k - 1
    if ctx is None:
        ctx = RingContext(rank=rank, geom_dim=1, support_cap=2 * k * (k + 2))
    indices = list(range(rank))
    gam = [subset_sum_cycle(rank, indices, s) for s in range(l + 2)]
    lhs = pontryagin(gam[1], gam[l], ctx)
    rhs = gam[l + 1].scale(l + 1)
    for i in range(1, l + 1):
        pushed = pushforward(gam[1], i + 1)
        term = pontryagin(pushed, gam[l - i], ctx)
        rhs = rhs + term.scale((-1) ** (i + 1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# alpha coefficients (the substituted recursion)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaMatrix:
    """Lower-triangular coefficients alpha[l][i] of {i x_1} in gamma_l.

    Row l has entries for 0 <= i <= l.  The substituted recursion starts
    from gamma_0 = {0} and gamma_1 = -{x_1} + k{0} and is expected to
    produce only nonzero entries; any zero entry is recorded in
    ``zero_entries`` as a finding rather than silently accepted.
    """

    k: int
    rows: tuple[tuple[Fraction, ...], ...]
    zero_entries: tuple[tuple[int, int], ...] = field(default=())

    def row(self, l: int) -> tuple[Fraction, ...]:
        return self.rows[l]

    def row_sum(self, l: int) -> Fraction:
        return sum(self.rows[l], Fraction(0))


def alpha_coefficients(k: int) -> AlphaMatrix:
    """Run the substituted recursion and collect exact alpha coefficients.

    Works in rank 1: after substituting the hypothesis, every gamma_l is
    supported on multiples of x_1.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    ctx = RingContext(rank=1, geom_dim=1, support_cap=k * (k + 2))
    x = GroupPoint((1,))
    gam: list[Cycle] = [Cycle.unit(1)]
    gam.append(Cycle(1, {GroupPoint((0,)): k, x: -1}))
    for l in range(1, k):
        acc = Cycle.zero(1)
        for i in range(0, l + 1):
            pushed = Cycle(1, {GroupPoint((0,)): k, GroupPoint(((i + 1),)): -1})
            acc = acc + pontryagin(pushed, gam[l - i], ctx).scale((-1) ** i)
        gam.append(acc.scale(Fraction(1, l + 1)))
    rows = []
    zeros = []
    for l in range(0, k + 1):
        row = tuple(gam[l].coeff(GroupPoint((i,))) for i in range(l + 1))
        rows.append(row)
        if l >= 1:
            zeros.extend((l, i) for i, c in enumerate(row) if c == 0)
    return AlphaMatrix(k=k, rows=tuple(rows), zero_entries=tuple(zeros))


def power_basis_change(coeffs) -> list[Fraction]:
    """Coefficients over the point basis {0}, {x}, {2x}, ... to coefficients
    over the convolution-power basis u^{*0}, u, u^{*2}, ... (u = {x} - {0}).

    Uses {j x} = sum_i C(j, i) u^{*i}; unitriangular, hence exact both ways.
    """
    coeffs = [Fraction(c) for c in coeffs]
    n = len(coeffs)
    return [sum((coeffs[j] * comb(j, i) for j in range(i, n)), Fraction(0)) for i in range(n)]


def power_basis_change_inverse(beta) -> list[Fraction]:
    """Inverse change: u^{*i} = sum_j (-1)^{i-j} C(i, j) {j x}."""
    beta = [Fraction(b) for b in beta]
    n = len(beta)
    return [
        sum((beta[i] * ((-1) ** (i - j)) * comb(i, j) for i in range(j, n)), Fraction(0))
        for j in range(n)
    ]


# ---------------------------------------------------------------------------
# membership certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorTerm:
    """One relation-ideal contribution: multiplier * (m_j)_* h."""

    label: str
    j: int
    generator: Cycle
    multiplier: Cycle


@dataclass(frozen=True)
class NilpotentTerm:
    """One nilpotency-span contribution: multiplier * product of
    augmentation generators u_i = {x_i} - {0} (1-based factor indices)."""

    factors: tuple[int, ...]
    multiplier: Cycle

    @property
    def label(self) -> str:
        return "*".join(f"u_{i}" for i in self.factors)


_CERT_FORMAT = "pontryagin-membership-certificate"
_CERT_VERSION = 1


@dataclass(frozen=True)
class MembershipCertificate:
    """An explicit rational combination exhibiting the target.

    target == sum multiplier * generator + sum multiplier * nilpotent
    product, as an exact identity of the free group ring; re-verifiable by
    ``verify_certificate`` which re-expands everything independently.
    """

    k: int
    g: int
    j_max: int
    cap: int
    target: Cycle
    generators: tuple[GeneratorTerm, ...]
    nilpotent_part: tuple[NilpotentTerm, ...]

    def max_multiplier_height(self) -> int:
        heights = [t.multiplier.max_height() for t in self.generators]
        heights += [t.multiplier.max_height() for t in self.nilpotent_part]
        return max(heights, default=0)

    def pushforward_indices(self) -> list[int]:
        return sorted({t.j for t in self.generators})

    def to_json_dict(self) -> dict:
        return {
            "format": _CERT_FORMAT,
            "version": _CERT_VERSION,
            "k": self.k,
            "g": self.g,
            "j_max": self.j_max,
            "cap": self.cap,
            "target": self.target.to_json_dict(),
            "generators": [
                {
                    "label": t.label,
                    "j": t.j,
                    "generator": t.generator.to_json_dict(),
                    "multiplier": t.multiplier.to_json_dict(),
                }
                for t in self.generators
            ],
            "nilpotent_part": [
                {
                    "label": t.label,
                    "factors": list(t.factors),
                    "multiplier": t.multiplier.to_json_dict(),
                }
                for t in self.nilpotent_part
            ],
        }

    def write_json(self, fh) -> None:
        """Write ``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)``
        and a newline, cycle by cycle, without building the dict tree.  The
        keys are written in sorted order; every scalar and label goes
        through ``json.dumps``."""
        dump = json.dumps
        fh.write('{\n  "cap": %s,\n  "format": %s,\n  "g": %s,\n  "generators": '
                 % (dump(self.cap), dump(_CERT_FORMAT), dump(self.g)))
        for i, t in enumerate(self.generators):
            fh.write((",\n" if i else "[\n") + '    {\n      "generator": ')
            t.generator.write_json(fh, 3)
            fh.write(',\n      "j": %s,\n      "label": %s,\n      "multiplier": '
                     % (dump(t.j), dump(t.label)))
            t.multiplier.write_json(fh, 3)
            fh.write("\n    }")
        fh.write('\n  ],\n  "j_max": ' if self.generators else '[],\n  "j_max": ')
        fh.write('%s,\n  "k": %s,\n  "nilpotent_part": ' % (dump(self.j_max), dump(self.k)))
        for i, t in enumerate(self.nilpotent_part):
            factors = dump(list(t.factors), indent=2).replace("\n", "\n      ")
            fh.write((",\n" if i else "[\n") + '    {\n      "factors": %s,\n      "label": %s,\n'
                     '      "multiplier": ' % (factors, dump(t.label)))
            t.multiplier.write_json(fh, 3)
            fh.write("\n    }")
        fh.write('\n  ],\n  "target": ' if self.nilpotent_part else '[],\n  "target": ')
        self.target.write_json(fh, 1)
        fh.write(',\n  "version": %s\n}\n' % dump(_CERT_VERSION))

    @classmethod
    def from_json_dict(cls, data: dict) -> "MembershipCertificate":
        gens = tuple(
            GeneratorTerm(
                label=t["label"],
                j=int(t["j"]),
                generator=Cycle.from_json_dict(t["generator"]),
                multiplier=Cycle.from_json_dict(t["multiplier"]),
            )
            for t in data["generators"]
        )
        nil = tuple(
            NilpotentTerm(
                factors=tuple(int(i) for i in t["factors"]),
                multiplier=Cycle.from_json_dict(t["multiplier"]),
            )
            for t in data["nilpotent_part"]
        )
        return cls(
            k=int(data["k"]),
            g=int(data["g"]),
            j_max=int(data["j_max"]),
            cap=int(data["cap"]),
            target=Cycle.from_json_dict(data["target"]),
            generators=gens,
            nilpotent_part=nil,
        )


def augmentation_generator(k: int, index: int) -> Cycle:
    """u_index = {x_index} - {0}, 1-based index."""
    if not 1 <= index <= k:
        raise ValueError(f"generator index {index} out of range 1..{k}")
    return Cycle.point(GroupPoint.generator(k, index - 1)) - Cycle.unit(k)


def nilpotent_product(k: int, factors: tuple[int, ...], ctx: RingContext) -> Cycle:
    prod = Cycle.unit(k)
    for i in factors:
        prod = pontryagin(prod, augmentation_generator(k, i), ctx)
    return prod


def verify_certificate(cert: MembershipCertificate) -> bool:
    """Independent re-verification by brute-force expansion.

    Recomputes every generator from its pushforward index, recomputes
    every nilpotent product from its factor list (which must have exactly
    g+1 factors), convolves with the stored multipliers, and compares the
    exact sum against the target.  Shares no state with the solvers.
    """
    k = cert.k
    heights = [cert.target.max_height()]
    for t in cert.generators:
        heights.append(t.multiplier.max_height() + t.j)
    for t in cert.nilpotent_part:
        heights.append(t.multiplier.max_height() + len(t.factors))
    ctx = RingContext(rank=k, geom_dim=cert.g, support_cap=max(heights) + 1)
    total = Cycle.zero(k)
    for t in cert.generators:
        if not 1 <= t.j <= cert.j_max:
            return False
        expected = pushed_hypothesis(k, t.j)
        if t.generator != expected:
            return False
        if t.multiplier.max_height() > cert.cap:
            return False
        total = total + pontryagin(t.multiplier, expected, ctx)
    for t in cert.nilpotent_part:
        if len(t.factors) != cert.g + 1:
            return False
        if any(not 1 <= i <= k for i in t.factors):
            return False
        if t.multiplier.max_height() > cert.cap:
            return False
        prod = nilpotent_product(k, t.factors, ctx)
        total = total + pontryagin(t.multiplier, prod, ctx)
    return total == cert.target


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _target_power(k: int, ctx: RingContext) -> Cycle:
    u = augmentation_generator(k, 1)
    return star_power(u, k, ctx)


def _newton_certificate(k: int, g: int, j_max: int, cap: int) -> MembershipCertificate:
    """Telescoped cofactors from the elementary-symmetric recursion.

    Write gamma_l for the free subset-sum cycles over {x_2, ..., x_k} and
    delta_l for the defect between gamma_l and its hypothesis-substituted
    counterpart.  Both sides satisfy the same Newton-style recursion, so

      (l+1) delta_{l+1} = sum_i (-1)^i [ gamma_{l-i} * (m_{i+1})_* h
                                         + t_{i+1} * delta_{l-i} ],

    with t_j = k{0} - {j x_1}.  Since the free gamma_k is empty and the
    substituted one is (-1)^k u^{*k}, the accumulated cofactors of delta_k
    express u^{*k} over the pushforwards (m_j)_* h with j <= k.
    """
    ctx = RingContext(rank=k, geom_dim=g, support_cap=cap + j_max + k + 2)
    free_indices = list(range(1, k))
    gamma_free = [subset_sum_cycle(k, free_indices, s) for s in range(k)]
    t_subst = [None] + [
        Cycle(k, {GroupPoint.origin(k): k, GroupPoint.generator(k, 0).scale(j): -1})
        for j in range(1, k + 1)
    ]
    cof: list[dict[int, Cycle]] = [dict() for _ in range(k + 1)]
    cof[1] = {1: Cycle.unit(k)}
    for l in range(1, k):
        new: dict[int, Cycle] = {}
        for i in range(0, l + 1):
            weight = Fraction((-1) ** i, l + 1)
            j = i + 1
            contrib = gamma_free[l - i].scale(weight)
            new[j] = new.get(j, Cycle.zero(k)) + contrib
            for jj, c in cof[l - i].items():
                moved = pontryagin(t_subst[i + 1], c, ctx).scale(weight)
                new[jj] = new.get(jj, Cycle.zero(k)) + moved
        cof[l + 1] = {j: c for j, c in new.items() if not c.is_zero()}

    sign = Fraction((-1) ** (k + 1))
    gens = []
    for j in sorted(cof[k]):
        multiplier = cof[k][j].scale(sign)
        if multiplier.is_zero():
            continue
        gens.append(
            GeneratorTerm(
                label=f"(m_{j})*h",
                j=j,
                generator=pushed_hypothesis(k, j),
                multiplier=multiplier,
            )
        )
    target = _target_power(k, ctx)
    return MembershipCertificate(
        k=k,
        g=g,
        j_max=j_max,
        cap=cap,
        target=target,
        generators=tuple(gens),
        nilpotent_part=(),
    )


def _window_certificate(k: int, g: int, j_max: int, cap: int) -> MembershipCertificate | None:
    """Decide whether u^{*k} lies in I + J^{g+1}, with I spanned by the
    (m_j)_* h, j <= j_max, and J the augmentation ideal; certify it if so.

    J^{g+1} is primary at x = 1, so the question lives in Q[y]/(y)^{g+1},
    y_i = x_i - 1, where (m_j)_* h is P_j = sum_i (1+y_i)^j - k and the
    target is y_1^k.  For k > g the target is u_1^{*(k-g-1)} times the
    nilpotent product u_1^{*(g+1)}.  For k <= g, u^{*k} is in I + J^{g+1}
    iff j_max >= k:

    * if: the Newton certificate is a free-ring identity that uses only
      the pushforwards with j <= k;
    * only if: with p_t = sum_i y_i^t, modulo (y)^{g+1} each P_j is
      sum_{1 <= t <= g} C(j, t) p_t, and the P_j, j <= min(j_max, g), are
      unitriangular in these p_t, so I + J^{g+1} is
      (p_1..p_{min(j_max, g)}) + (y)^{g+1}.  Both parts are homogeneous
      and the second starts in degree g+1 > k, so for j_max < k <= g the
      target would lie in (p_1..p_{k-1}) = (e_1..e_{k-1}).  It does not:
      y_1 is a root of prod_i (T - y_i), so modulo that ideal y_1^k is
      +-e_k, and e_k is not in the ideal of e_1..e_{k-1}, which are
      algebraically independent with it.

    Returns None for a non-member, and when the multiplier height exceeds
    2 * cap; otherwise the certificate records cap, or 2 * cap if it needs
    it.
    """
    if k > g:
        ctx = RingContext(rank=k, geom_dim=g, support_cap=k + g)
        u_power = nilpotent_product(k, (1,) * (k - g - 1), ctx)
        nil_part = (NilpotentTerm(factors=(1,) * (g + 1), multiplier=u_power),)
        cert = MembershipCertificate(k, g, j_max, cap, _target_power(k, ctx), (), nil_part)
    elif j_max >= k:
        cert = _newton_certificate(k, g, j_max, cap)
    else:
        return None
    height = cert.max_multiplier_height()
    if height > 2 * cap:
        return None
    return cert if height <= cap else replace(cert, cap=2 * cap)


def default_j_max(k: int, g: int) -> int:
    return k * (g + 1)


def default_cap(k: int, g: int) -> int:
    return k * (g + 1)


def verify_relation(
    k: int,
    g: int,
    j_max: int | None = None,
    cap: int | None = None,
    method: str = "auto",
) -> MembershipCertificate:
    """Produce a re-verified membership certificate for u^{*k}.

    ``method`` is "auto" (structured Newton telescoping, falling back to
    the window method if its output ever left the window), "newton", or
    "window" (``_window_certificate``).  The window method raises
    ``NotFoundWithinCaps`` with caps [cap, 2 * cap] when its certificate
    needs multipliers above height 2 * cap, and when u^{*k} is not in
    I + J^{g+1} at all, which for k <= g is exactly j_max < k: that
    decides non-membership but stays inconclusive, as a refutation would
    need a checkable witness (a dual functional).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if g < 1:
        raise ValueError("g must be a positive integer")
    if j_max is None:
        j_max = default_j_max(k, g)
    if cap is None:
        cap = default_cap(k, g)
    if j_max < 1 or cap < 1:
        raise ValueError("j_max and cap must be at least 1")
    if method not in ("auto", "newton", "window"):
        raise ValueError(f"unknown method {method!r}")

    if method in ("auto", "newton"):
        cert = _newton_certificate(k, g, j_max, cap)
        in_window = (
            cert.max_multiplier_height() <= cap
            and all(t.j <= j_max for t in cert.generators)
        )
        if in_window:
            if not verify_certificate(cert):
                raise AssertionError(
                    "internal error: constructed certificate failed re-verification"
                )
            return cert
        if method == "newton":
            raise NotFoundWithinCaps(k, g, j_max, [cap])

    cert = _window_certificate(k, g, j_max, cap)
    if cert is None:
        raise NotFoundWithinCaps(k, g, j_max, [cap, 2 * cap])
    if not verify_certificate(cert):
        raise AssertionError("internal error: window certificate failed re-verification")
    return cert
