"""Certificate engine for the k-th convolution power of a point difference.

Setting: k free generators x_1, ..., x_k and the hypothesis cycle

    h = {x_1} + ... + {x_k} - k{0},

whose vanishing in the modeled quotient expresses "the k points sum to k
times the origin".  The engine exhibits u^{*k}, u = {x_1} - {0}, as an
exact combination of monomial multiples of the pushforwards (m_j)_* h
(the relation ideal) plus, when needed, monomial multiples of products of
g+1 augmentation-ideal generators (the nilpotency span).  Any certificate
it returns is re-verified through an independent code path, so a
returned certificate is a proof; failure to find one within the caps is
reported as inconclusive, never as a refutation.  The verifier reads its
proof from the certificate alone: multipliers that are all invariant
under permuting x_2..x_k (a Newton certificate, built in memory or loaded
from a file) are proved on orbit sums, any other certificate by
brute-force expansion.  The orbit proof reads each multiplier Y_j with
``cycles.orbit_forms`` as Y_j(r) and |O(r)| per orbit key r = (a_1,
*sorted tail), and checks sum_j sum_r |O(r)| Y_j(r) sum_{g : r + g in Q}
c_j(g) = u^{*k}(Q) on every orbit Q, c_j the coefficients of (m_j)_* h.
A certificate stores no target, no (m_j)_* h and no label: these follow
from k, j and the factors, are derived where it is written or verified,
and a file's copies of them are checked on read.

Two certificates share the same format, and which one a call gets is
decided from (k, g, j_max, cap) before anything is built:

* the Newton certificate telescopes the elementary-symmetric / power-sum
  recursion satisfied by the subset-sum cycles gamma_l, which yields
  explicit cofactors with multiplier monomials of height k - 1 over the
  pushforwards with j = 1..k, and no nilpotency term;
* the nilpotent certificate (k > g) writes the target as one multiple of
  a product of g+1 augmentation generators.

``verify_relation`` tabulates which one each ``method`` (``auto``, the
default, ``newton`` or ``window``) returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .cycles import (
    _LIMIT,
    Cycle,
    GroupPoint,
    RingContext,
    _json_text,
    _orbit_cycle,
    json_int,
    json_text,
    orbit_forms,
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


def check_recursion_identity(k: int, l: int) -> bool:
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

    j: int
    multiplier: Cycle

    @property
    def label(self) -> str:
        return f"(m_{self.j})*h"


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


def target_cycle(k: int) -> Cycle:
    """u^{*k}, u = {x_1} - {0}, in closed form: sum_i C(k, i) (-1)^(k-i) {i x_1}."""
    x_1 = GroupPoint.generator(k, 0)
    return Cycle(k, {x_1.scale(i): comb(k, i) * (-1) ** (k - i) for i in range(k + 1)})


@dataclass(frozen=True)
class MembershipCertificate:
    """An explicit rational combination exhibiting the target u^{*k}.

    u^{*k} == sum multiplier * (m_j)_* h + sum multiplier * nilpotent
    product, as an exact identity of the free group ring; re-verifiable by
    ``verify_certificate``, independently of the builders.
    """

    k: int
    g: int
    j_max: int
    cap: int
    generators: tuple[GeneratorTerm, ...]
    nilpotent_part: tuple[NilpotentTerm, ...]

    def max_multiplier_height(self) -> int:
        heights = [t.multiplier.max_height() for t in self.generators]
        heights += [t.multiplier.max_height() for t in self.nilpotent_part]
        return max(heights, default=0)

    def pushforward_indices(self) -> list[int]:
        return sorted({t.j for t in self.generators})

    def _document(self, leaf) -> dict:
        """The certificate's JSON layout, with ``leaf(c)`` for each cycle c."""
        return {
            "format": _CERT_FORMAT,
            "version": _CERT_VERSION,
            "k": self.k,
            "g": self.g,
            "j_max": self.j_max,
            "cap": self.cap,
            "target": leaf(target_cycle(self.k)),
            "generators": [
                {
                    "label": t.label,
                    "j": t.j,
                    "generator": leaf(pushed_hypothesis(self.k, t.j)),
                    "multiplier": leaf(t.multiplier),
                }
                for t in self.generators
            ],
            "nilpotent_part": [
                {
                    "label": t.label,
                    "factors": list(t.factors),
                    "multiplier": leaf(t.multiplier),
                }
                for t in self.nilpotent_part
            ],
        }

    def to_json_dict(self) -> dict:
        return self._document(Cycle.to_json_dict)

    def write_json(self, fh) -> None:
        """Write ``json_text(self.to_json_dict())`` and a newline, from the
        cycles themselves and one set of text tables, one top-level key and
        one list term at a time, so that at most one term's text is held."""
        tables = {}
        document = self._document(lambda cycle: cycle)
        head = "{\n  "
        for key in sorted(document):
            fh.write(head + json_text(key) + ": ")
            head, value = ",\n  ", document[key]
            if type(value) is not list or not value:
                fh.write(_json_text(value, "\n  ", tables))
                continue
            for i, term in enumerate(value):
                fh.write(",\n    " if i else "[\n    ")
                fh.write(_json_text(term, "\n    ", tables))
            fh.write("\n  ]")
        fh.write("\n}\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "MembershipCertificate":
        """Read ``to_json_dict`` output.  The certificate is built from the
        JSON integers k, g, j_max, cap, j and factors and the multipliers,
        see ``Cycle.from_json_dict``; the document must then equal its
        ``_document``, with the file's multiplier dicts in place, key for key
        and JSON type for JSON type.  So the format, the version, the target,
        every (m_j)_* h and every label are checked, and anything else, a
        missing or an extra key included, raises ``ValueError``.  Multipliers
        of rank k, and a target and generators of rank k with k + 1 terms, are
        required before anything is derived from k, which the file bounds."""
        try:
            gens, nils = data["generators"], data["nilpotent_part"]
            cert = cls(
                *(json_int(data[key]) for key in ("k", "g", "j_max", "cap")),
                tuple(GeneratorTerm(json_int(t["j"]), Cycle.from_json_dict(t["multiplier"])) for t in gens),
                tuple(NilpotentTerm(tuple(map(json_int, t["factors"])), Cycle.from_json_dict(t["multiplier"]))
                      for t in nils),
            )
            # the file's multiplier dicts, by the id of the cycle read from each
            terms = zip(cert.generators + cert.nilpotent_part, [*gens, *nils])
            own = {id(t.multiplier): d["multiplier"] for t, d in terms}
            k, derived = cert.k, [data["target"]] + [t["generator"] for t in gens]
            if any(t.multiplier.rank != k for t in cert.generators + cert.nilpotent_part) or any(
                    d["rank"] != k or len(d["terms"]) != k + 1 for d in derived):
                raise ValueError(f"a cycle is not of rank k = {k}, or a derived one has not k + 1 terms")
        except (KeyError, TypeError):
            raise ValueError(f"not a {_CERT_FORMAT}: a field is missing or of another JSON type") from None
        if not _same_json(data, cert._document(lambda c: own.get(id(c)) or c.to_json_dict())):
            raise ValueError(f"not a {_CERT_FORMAT} of version {_CERT_VERSION} whose target, "
                             "generators and labels are those of k, j and the factors")
        return cert


def _same_json(a, b) -> bool:
    """``a == b`` for JSON values, with every JSON type equal too (``True == 1`` in Python)."""
    if a is b or type(a) is not type(b):
        return a is b
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same_json(a[key], b[key]) for key in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


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
    """Independent re-verification of the identity u^{*k} == sum of terms.

    Every multiplier must have rank k and height at most cap, every j must
    lie in 1..j_max, and every nilpotent product must have exactly g+1
    factors in 1..k; the target and each (m_j)_* h are recomputed from k
    and j.  Malformed fields (k or g below 1, a j whose (m_j)_* h leaves the
    digit range, a multiplier whose product with its generator does) give
    False, not an exception.  Shares no state or code with the solvers.

    The proof is chosen from the certificate alone.  With no nilpotent term
    and every multiplier invariant under permuting x_2..x_k, as a Newton
    certificate's are whether built in memory or loaded from a file, the
    identity is proved on orbit sums, see ``_verify_on_orbits``.  Any other
    certificate is proved by full expansion: each (m_j)_* h and each
    nilpotent product is recomputed from j or its factor list, each term is
    convolved out, and the exact sum is compared with the target.
    """
    k = cert.k
    if k < 1 or cert.g < 1:
        return False
    for t in cert.generators + cert.nilpotent_part:
        if t.multiplier.rank != k or t.multiplier.max_height() > cert.cap:
            return False
    if any(not 1 <= t.j <= min(cert.j_max, _LIMIT - 1) for t in cert.generators):
        return False
    for t in cert.nilpotent_part:
        if len(t.factors) != cert.g + 1 or any(not 1 <= i <= k for i in t.factors):
            return False
    if not cert.nilpotent_part:
        proved = _verify_on_orbits(cert)
        if proved is not None:
            return proved
    heights = [k]
    heights += [t.multiplier.max_height() + t.j for t in cert.generators]
    heights += [t.multiplier.max_height() + len(t.factors) for t in cert.nilpotent_part]
    ctx = RingContext(rank=k, geom_dim=cert.g, support_cap=max(heights) + 1)
    total = Cycle.zero(k)
    try:
        for t in cert.generators:
            total = total + pontryagin(t.multiplier, pushed_hypothesis(k, t.j), ctx)
        for t in cert.nilpotent_part:
            total = total + pontryagin(t.multiplier, nilpotent_product(k, t.factors, ctx), ctx)
    except ValueError:
        # a product point left the digit range: the identity cannot be checked here
        return False
    return total == target_cycle(k)


def _verify_on_orbits(cert: MembershipCertificate) -> bool | None:
    """Prove an all-generator certificate on orbits of S_{k-1}, or return
    None if some multiplier is not invariant under permuting x_2..x_k.

    Each (m_j)_* h = {j x_1} - k{0} + sum_{i >= 2} {j x_i} is invariant,
    so with every multiplier Y invariant so is the difference of the two
    sides, which is zero iff every orbit sum is.  The orbit sum over Q of
    Y * (m_j)_* h is sum_r |O(r)| Y(r) sum_{g : r + g in Q} c(g), over the
    orbit keys r = (a_1, *tail) of ``orbit_forms``; r + g lies in the orbit
    of (a_1 + j, *tail) for g = j x_1, of r for g = 0, and of (a_1, *tail
    with one v raised to v + j) for the m_v points j x_i of tail value v.
    These moves depend on the tail and j alone.  The sums are integers
    over the lcm of the multiplier denominators."""
    *forms, target = orbit_forms([t.multiplier for t in cert.generators] + [target_cycle(cert.k)])
    if None in forms:
        return None
    den = lcm(*(t.multiplier.den for t in cert.generators))
    sums = {orbit: -n * size * den for orbit, (n, size) in target.items()}
    for t, form in zip(cert.generators, forms):
        j, scale = t.j, den // t.multiplier.den
        moves = {}  # tail -> [(change of a_1, tail moved to, coefficient)]
        for orbit, (n, size) in form.items():
            a_1, tail = orbit[0], orbit[1:]
            if tail not in moves:
                moves[tail] = [(j, tail, 1), (0, tail, -cert.k)] + [
                    (0, tuple(sorted(tail[:i] + (v + j,) + tail[i + 1:])), tail.count(v))
                    for i, v in enumerate(tail) if i == 0 or v != tail[i - 1]]
            for change, moved, c in moves[tail]:
                q = (a_1 + change, *moved)
                sums[q] = sums.get(q, 0) + size * n * scale * c
    return not any(sums.values())


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _newton_certificate(k: int, g: int, j_max: int, cap: int) -> MembershipCertificate:
    """Telescoped cofactors from the elementary-symmetric recursion.

    Write gamma_l for the free subset-sum cycles over {x_2, ..., x_k} and
    delta_l for the defect between gamma_l and its hypothesis-substituted
    counterpart.  Both sides satisfy the same Newton-style recursion, so

      (l+1) delta_{l+1} = sum_i (-1)^i [ gamma_{l-i} * (m_{i+1})_* h
                                         + t_{i+1} * delta_{l-i} ],

    with t_j = k{0} - {j x_1}.  Since the free gamma_k is empty and the
    substituted one is (-1)^k u^{*k}, the accumulated cofactors of delta_k
    express u^{*k} over the (m_j)_* h, j = 1..k, at height k - 1; g, j_max
    and cap are only recorded.

    Every cofactor is invariant under permuting x_2..x_k, so the recursion
    runs on orbit keys (a_1, *sorted tail): gamma_s is the single orbit
    (0, 0^(k-1-s), 1^s), t_j * c is k c minus c with a_1 shifted by j, and
    the cofactors at step m are integer numerators over m!.  Each
    multiplier is expanded onto points once.
    """
    cof: list[dict[int, dict[tuple[int, ...], int]]] = [{} for _ in range(k + 1)]
    cof[1] = {1: {(0,) * k: 1}}
    for l in range(1, k):
        new: dict[int, dict[tuple[int, ...], int]] = {}
        for i in range(0, l + 1):
            # weight (-1)^i / (l+1): over (l+1)! a gamma term gets (-1)^i l!
            # and a numerator over (l-i)! gets (-1)^i l! / (l-i)!
            sign = (-1) ** i
            acc = new.setdefault(i + 1, {})
            gamma_orbit = (0,) * (k - l + i) + (1,) * (l - i)
            acc[gamma_orbit] = acc.get(gamma_orbit, 0) + sign * factorial(l)
            f = sign * factorial(l) // factorial(l - i)
            for jj, c in cof[l - i].items():
                acc = new.setdefault(jj, {})
                for orbit, n in c.items():
                    acc[orbit] = acc.get(orbit, 0) + k * f * n
                    moved = (orbit[0] + i + 1, *orbit[1:])
                    acc[moved] = acc.get(moved, 0) - f * n
        for j, c in new.items():
            c = {orbit: n for orbit, n in c.items() if n}
            if c:
                cof[l + 1][j] = c

    sign = (-1) ** (k + 1)
    gens = []
    for j in sorted(cof[k]):
        orbits = cof[k][j]
        d = gcd(factorial(k), *orbits.values())
        orbits = {orbit: sign * n // d for orbit, n in orbits.items()}
        gens.append(GeneratorTerm(j, _orbit_cycle(k, factorial(k) // d, orbits)))
    return MembershipCertificate(k, g, j_max, cap, tuple(gens), ())


def _nilpotent_certificate(k: int, g: int, j_max: int, cap: int) -> MembershipCertificate:
    """For k > g: u^{*k} is u_1^{*(k-g-1)} times the nilpotent product
    u_1^{*(g+1)}, one term with a multiplier of height k - g - 1."""
    ctx = RingContext(rank=k, geom_dim=g, support_cap=k - g - 1)
    u_power = star_power(augmentation_generator(k, 1), k - g - 1, ctx)
    return MembershipCertificate(k, g, j_max, cap, (), (NilpotentTerm((1,) * (g + 1), u_power),))


def _certificate(k: int, g: int, j_max: int, cap: int, method: str) -> MembershipCertificate | None:
    """The certificate ``verify_relation`` tabulates for ``method``, or None.

    Both certificates have a height known in advance (Newton k - 1 over
    j = 1..k, nilpotent k - g - 1), so the choice is made from
    (k, g, j_max, cap) and only the chosen one is built.

    The window rule decides whether u^{*k} lies in I + J^{g+1}, with I
    spanned by the (m_j)_* h, j <= j_max, and J the augmentation ideal.
    J^{g+1} is primary at x = 1, so the question lives in Q[y]/(y)^{g+1},
    y_i = x_i - 1, where (m_j)_* h is P_j = sum_i (1+y_i)^j - k and the
    target is y_1^k.  For k > g the rule gives the nilpotent certificate.
    For k <= g, u^{*k} is in I + J^{g+1} iff j_max >= k:

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
    """
    if method != "window" and j_max >= k and k - 1 <= cap:
        return _newton_certificate(k, g, j_max, cap)
    if method == "newton":
        return None
    if k > g:
        build, height = _nilpotent_certificate, k - g - 1
    elif j_max >= k:
        build, height = _newton_certificate, k - 1
    else:
        return None
    if height > 2 * cap:
        return None
    return build(k, g, j_max, cap if height <= cap else 2 * cap)


def verify_relation(
    k: int,
    g: int,
    j_max: int | None = None,
    cap: int | None = None,
    method: str = "auto",
) -> MembershipCertificate:
    """Produce a re-verified membership certificate for u^{*k}.

    j_max and cap default to k(g+1).  The Newton certificate (j = 1..k,
    height k - 1) fits when j_max >= k and cap >= k - 1.  The window rule
    gives the nilpotent certificate for k > g, the Newton one for k <= g
    and j_max >= k, and nothing otherwise; it records cap, or 2 * cap if
    the height needs it, and gives nothing above 2 * cap.

      method  certificate                              else NotFoundWithinCaps
      auto    Newton if it fits, else the window rule  caps_tried [cap, 2 * cap]
      newton  Newton if it fits                        caps_tried [cap]
      window  the window rule                          caps_tried [cap, 2 * cap]

    ``newton`` is the only way to require a free-ring identity with no
    nilpotency term.  A non-member (k <= g, j_max < k) stays inconclusive,
    as a refutation would need a checkable witness (a dual functional).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if g < 1:
        raise ValueError("g must be a positive integer")
    if j_max is None:
        j_max = k * (g + 1)
    if cap is None:
        cap = k * (g + 1)
    if j_max < 1 or cap < 1:
        raise ValueError("j_max and cap must be at least 1")
    if method not in ("auto", "newton", "window"):
        raise ValueError(f"unknown method {method!r}")

    cert = _certificate(k, g, j_max, cap, method)
    if cert is None:
        raise NotFoundWithinCaps(k, g, j_max, [cap] if method == "newton" else [cap, 2 * cap])
    if not verify_certificate(cert):
        raise AssertionError("internal error: constructed certificate failed re-verification")
    return cert
