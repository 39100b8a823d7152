"""Certificate engine for the k-th convolution power of a point difference.

Setting: k free generators x_1, ..., x_k and the hypothesis cycle

    h = {x_1} + ... + {x_k} - k{0},

whose vanishing in the modeled quotient expresses "the k points sum to k
times the origin".  The engine exhibits u^{*k}, u = {x_1} - {0}, as an
exact combination of monomial multiples of the pushforwards (m_j)_* h
(the relation ideal) plus, when needed, monomial multiples of the
product u_1^{*(g+1)} of g+1 augmentation generators u_1 = {x_1} - {0}
(the nilpotency span).  Any certificate it returns is re-verified through
an independent code path, so a returned certificate is a proof; failure
to find one within the caps is reported as inconclusive, never as a
refutation.  Every multiplier, of a generator term and of a nilpotent
term alike, is an ``OrbitTable`` of S_{k-1}, the permutations of
x_2..x_k, and the verifier proves every certificate, built in memory or
loaded from a file, on orbit sums read straight from the tables: it
checks sum_t sum_R |R| Y_t(R) sum_{p : r + p in Q} c_t(p) = u^{*k}(Q) on
every orbit Q, R running over the orbits of Y_t, r one point of R and
c_t the coefficients of the term's (m_j)_* h or u_1^{*(g+1)}.  A
certificate stores no target, no (m_j)_* h, no factor list and no label:
these follow from k, j and g and are derived where they are used.  The
file (version 4) holds each multiplier as its table,
``{"den": D, "orbits": [[a_1, s, n], ...]}``, each generator term's j and
label, each nilpotent term's factor list and label, and the target as
its ``Cycle.to_json_dict()``, written from its closed form; it lists no
(m_j)_* h, which j fixes as {j x_1} + ... + {j x_k} - k{0}.  The target,
labels and factor lists a file holds are checked on read.  ``json_text``
writes JSON values only.

Two certificates share the same format, and which one a call gets is
decided from (k, g, j_max, cap) before anything is built:

* the Newton certificate telescopes the elementary-symmetric / power-sum
  recursion satisfied by the subset-sum cycles gamma_l, which yields
  explicit cofactors with multiplier monomials of height k - 1 over the
  pushforwards with j = 1..k, and no nilpotency term;
* the nilpotent certificate (k > g) writes the target as u_1^{*(k-g-1)}
  times u_1^{*(g+1)}, one nilpotent term with a closed-form table.

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
    RingContext,
    json_int,
    json_text,
    pontryagin,
    pushforward,
)
from .linalg import clear_denominators


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
        terms.append((coords, 1))
    return Cycle(rank, terms)


def _generator(rank: int, index: int) -> tuple[int, ...]:
    return tuple(int(i == index) for i in range(rank))  # x_{index + 1}


def hypothesis_cycle(k: int) -> Cycle:
    """h = {x_1} + ... + {x_k} - k{0} in rank k."""
    return Cycle(k, [(_generator(k, i), 1) for i in range(k)] + [((0,) * k, -k)])


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
    return check_recursion_identities(k, [l])[l]


def check_recursion_identities(k: int, ls) -> dict[int, bool]:
    """``check_recursion_identity(k, l)`` for each l in ``ls``, in one pass:
    gamma_0..gamma_{max l + 1} and each (m_j)_* gamma_1 are built once and
    shared by every l, with the same convolutions as separate calls.  The
    i = l term is (m_{l+1})_* gamma_1 itself, as gamma_0 = {0} is the unit."""
    if k < 2:
        raise ValueError("k must be at least 2")
    ls = list(ls)
    for l in ls:
        if not 1 <= l <= k - 1:
            raise ValueError(f"l={l} out of range 1..{k - 1}")
    top = max(ls, default=0) + 1
    rank = k - 1
    ctx = RingContext(rank=rank, geom_dim=1, support_cap=2 * k * (k + 2))
    indices = list(range(rank))
    gam = [subset_sum_cycle(rank, indices, s) for s in range(top + 1)]
    pushed = {j: pushforward(gam[1], j) for j in range(2, top + 1)}
    results = {}
    for l in ls:
        lhs = pontryagin(gam[1], gam[l], ctx)
        rhs = gam[l + 1].scale(l + 1)
        for i in range(1, l + 1):
            term = pontryagin(pushed[i + 1], gam[l - i], ctx) if i < l else pushed[i + 1]
            rhs = rhs + term.scale((-1) ** (i + 1))
        results[l] = lhs == rhs
    return results


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
    supported on multiples of x_1.  The i = l term is the pushed cycle
    itself, as gamma_0 = {0} is the unit.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    ctx = RingContext(rank=1, geom_dim=1, support_cap=k * (k + 2))
    gam: list[Cycle] = [Cycle.unit(1)]
    gam.append(Cycle(1, {(0,): k, (1,): -1}))
    for l in range(1, k):
        acc = Cycle.zero(1)
        for i in range(0, l + 1):
            pushed = Cycle(1, {(0,): k, (i + 1,): -1})
            term = pontryagin(pushed, gam[l - i], ctx) if i < l else pushed
            acc = acc + term.scale((-1) ** i)
        gam.append(acc.scale(Fraction(1, l + 1)))
    rows = []
    zeros = []
    for l in range(0, k + 1):
        row = tuple(gam[l].coeff((i,)) for i in range(l + 1))
        rows.append(row)
        if l >= 1:
            zeros.extend((l, i) for i, c in enumerate(row) if c == 0)
    return AlphaMatrix(k=k, rows=tuple(rows), zero_entries=tuple(zeros))


def power_basis_change(coeffs) -> list[Fraction]:
    """Coefficients over the point basis {0}, {x}, {2x}, ... to coefficients
    over the convolution-power basis u^{*0}, u, u^{*2}, ... (u = {x} - {0}).

    Uses {j x} = sum_i C(j, i) u^{*i}; unitriangular, hence exact both ways.
    The coefficients are ints or Fractions; any other entry raises
    ``TypeError``, as in ``clear_denominators``.
    """
    den, nums = clear_denominators(coeffs)
    n = len(nums)
    return [Fraction(sum(nums[j] * comb(j, i) for j in range(i, n)), den) for i in range(n)]


def power_basis_change_inverse(beta) -> list[Fraction]:
    """Inverse change: u^{*i} = sum_j (-1)^{i-j} C(i, j) {j x}.  The
    coefficients are ints or Fractions, as in ``power_basis_change``."""
    den, nums = clear_denominators(beta)
    n = len(nums)
    return [
        Fraction(sum(nums[i] * (-1) ** (i - j) * comb(i, j) for i in range(j, n)), den)
        for j in range(n)
    ]


# ---------------------------------------------------------------------------
# membership certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitTable:
    """A multiplier invariant under permuting x_2..x_k, as one number per orbit.

    ``orbits`` maps (a_1, s) to a nonzero integer n: the coefficient n / den
    sits at each of the C(k-1, s) points whose first coordinate is a_1 and
    whose other k - 1 coordinates are s ones and k - 1 - s zeros, and every
    other point has 0.  Every multiplier has this form: each orbit of a
    Newton multiplier, and u_1^{*m} of the nilpotent certificate, whose
    entries are (i, 0).
    The table is canonical (den > 0, gcd(den, *n) = 1), so equality
    compares the fields; s outside 0..k-1, |a_1| >= 2**46 (the ``Cycle``
    coordinate limit) or a table that is not canonical raises ``ValueError``.
    """

    k: int
    den: int
    orbits: dict[tuple[int, int], int]

    def __post_init__(self):
        if self.k < 1 or self.den < 1 or gcd(self.den, *self.orbits.values()) != 1:
            raise ValueError(f"a table needs k >= 1 and den >= 1 in lowest terms with its numerators, "
                             f"got k = {self.k}, den = {self.den}")
        for (a_1, s), n in self.orbits.items():
            if not 0 <= s < self.k or abs(a_1) >= _LIMIT or not n:
                raise ValueError(f"({a_1}, {s}): {n} is not an orbit entry of a table with k = {self.k}")

    def max_height(self) -> int:
        return max((abs(a_1) + s for a_1, s in self.orbits), default=0)

    def to_json_dict(self) -> dict:
        return {"den": self.den, "orbits": [[a_1, s, n] for (a_1, s), n in sorted(self.orbits.items())]}


@dataclass(frozen=True)
class GeneratorTerm:
    """One relation-ideal contribution: multiplier * (m_j)_* h."""

    j: int
    multiplier: OrbitTable

    @property
    def label(self) -> str:
        return f"(m_{self.j})*h"


@dataclass(frozen=True)
class NilpotentTerm:
    """One nilpotency-span contribution: multiplier * u_1^{*(g+1)}, the
    product of g+1 augmentation generators u_1 = {x_1} - {0}.  Its factors
    follow from the certificate's g."""

    multiplier: OrbitTable


_CERT_FORMAT = "pontryagin-membership-certificate"
_CERT_VERSION = 4


def _signed_binomials(n: int) -> list[int]:
    """C(n, i) (-1)^(n-i) for i = 0..n: u^{*n} = sum_i C(n, i) (-1)^(n-i) {i x}
    for u = {x} - {0}.  Built by C(n, i+1) = C(n, i) (n-i) / (i+1)."""
    row = [(-1) ** n]
    for i in range(n):
        row.append(-row[-1] * (n - i) // (i + 1))
    return row


def _target_json(k: int) -> dict:
    """``Cycle.to_json_dict()`` of the target u^{*k}, u = {x_1} - {0},
    written from its closed form: the points (i, 0, ..., 0) for i = 0..k in
    order, with coefficients C(k, i) (-1)^(k-i)."""
    if k < 1:
        raise ValueError(f"a target needs k >= 1, got k = {k}")
    tail = [0] * (k - 1)
    return {"rank": k, "terms": [{"point": [i, *tail], "coeff": f"{c}/1"}
                                 for i, c in enumerate(_signed_binomials(k))]}


@dataclass(frozen=True)
class MembershipCertificate:
    """An explicit rational combination exhibiting the target u^{*k}.

    u^{*k} == sum multiplier * (m_j)_* h + sum multiplier * u_1^{*(g+1)},
    as an exact identity of the free group ring; re-verifiable by
    ``verify_certificate``, independently of the builders.
    """

    k: int
    g: int
    j_max: int
    cap: int
    generators: tuple[GeneratorTerm, ...]
    nilpotent_part: tuple[NilpotentTerm, ...]

    def max_multiplier_height(self) -> int:
        return max((t.multiplier.max_height() for t in (*self.generators, *self.nilpotent_part)), default=0)

    def pushforward_indices(self) -> list[int]:
        return sorted({t.j for t in self.generators})

    def to_json_dict(self) -> dict:
        """The file's JSON value.  The target u^{*k} is written from its
        closed form (``_target_json``) with the bytes of its
        ``Cycle.to_json_dict()``, each generator term as its label, j and
        table, with no (m_j)_* h, and each nilpotent term's factors and label
        from g, so no cycle is built; each multiplier is its
        ``OrbitTable.to_json_dict()``.  A k below 1 raises ``ValueError``."""
        return {
            "format": _CERT_FORMAT,
            "version": _CERT_VERSION,
            "k": self.k,
            "g": self.g,
            "j_max": self.j_max,
            "cap": self.cap,
            "target": _target_json(self.k),
            "generators": [
                {
                    "label": t.label,
                    "j": t.j,
                    "multiplier": t.multiplier.to_json_dict(),
                }
                for t in self.generators
            ],
            "nilpotent_part": [
                {
                    "label": "*".join(["u_1"] * (self.g + 1)),
                    "factors": [1] * (self.g + 1),
                    "multiplier": t.multiplier.to_json_dict(),
                }
                for t in self.nilpotent_part
            ],
        }

    def write_json(self, fh) -> None:
        fh.write(json_text(self.to_json_dict()) + "\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "MembershipCertificate":
        """Read ``to_json_dict`` output.  The certificate is built from the
        JSON integers k, g, j_max, cap, j and table entries; the document
        must then equal its ``to_json_dict``, key for key and JSON type for
        JSON type.  So the format, the version (4), the target, every
        factor list, every label and every table's canonical form and
        (a_1, s) order are checked, and anything else, a missing or an extra
        key, a (m_j)_* h cycle or a version-1, -2 or -3 document included,
        raises ``ValueError``.  A target of rank k with k + 1 terms, and
        factor lists of length g + 1, are required before anything is
        derived from k or g, which the file bounds."""

        def table(d):
            entries = d["orbits"]
            # one type scan of every entry value; json_int names the first
            # that is not an integer
            if not {*map(type, itertools.chain(*entries))} <= {int}:
                for value in itertools.chain(*entries):
                    json_int(value)
            return OrbitTable(k, json_int(d["den"]), {(a_1, s): n for a_1, s, n in entries})

        try:
            k, g = json_int(data["k"]), json_int(data["g"])
            gens, nils = data["generators"], data["nilpotent_part"]
            cert = cls(
                k, g, json_int(data["j_max"]), json_int(data["cap"]),
                tuple(GeneratorTerm(json_int(t["j"]), table(t["multiplier"])) for t in gens),
                tuple(NilpotentTerm(table(t["multiplier"])) for t in nils),
            )
            target = data["target"]
            if target["rank"] != k or len(target["terms"]) != k + 1 or any(
                    len(t["factors"]) != g + 1 for t in nils):
                raise ValueError(f"the target is not of rank k = {k} with k + 1 terms, "
                                 f"or a factor list is not g + 1 = {g + 1} long")
        except (KeyError, TypeError):
            raise ValueError(f"not a {_CERT_FORMAT} of version {_CERT_VERSION}: "
                             "a field is missing or of another JSON type") from None
        if not _same_json(data, cert.to_json_dict()):
            raise ValueError(f"not a {_CERT_FORMAT} of version {_CERT_VERSION} whose target, "
                             "labels and tables are those of k, j, the factors and the entries")
        return cert


def _same_json(a, b) -> bool:
    """``a == b`` for JSON values, with every JSON type equal too (``True == 1`` in Python).
    Two lists of ints, such as points, or of lists of ints, such as a
    table's entries, take one type scan and one ``==``; a bool or a float
    in either fails the scan and is compared item by item."""
    if a is b or type(a) is not type(b):
        return a is b
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same_json(a[key], b[key]) for key in a)
    if type(a) is list:
        types = {*map(type, a), *map(type, b)}
        if types == {list}:
            types = {*map(type, itertools.chain(*a, *b))}
        if types <= {int}:
            return a == b
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def verify_certificate(cert: MembershipCertificate) -> bool:
    """Independent re-verification of the identity u^{*k} == sum of terms.

    Every multiplier must be a table of the certificate's k with height at
    most cap, and every j must lie in 1..j_max; the target, each (m_j)_* h
    and u_1^{*(g+1)} are recomputed from k, j and g.  Malformed fields (k or
    g below 1, a j whose (m_j)_* h leaves the digit range) give False, not
    an exception.  Shares no state or code with the solvers.  The identity
    is proved on orbit sums read from the tables, see ``_verify_on_orbits``,
    for a certificate built in memory or loaded from a file alike.
    """
    k = cert.k
    if k < 1 or cert.g < 1:
        return False
    for t in (*cert.generators, *cert.nilpotent_part):
        if t.multiplier.k != k or t.multiplier.max_height() > cert.cap:
            return False
    if any(not 1 <= t.j <= min(cert.j_max, _LIMIT - 1) for t in cert.generators):
        return False
    return _verify_on_orbits(cert)


def _verify_on_orbits(cert: MembershipCertificate) -> bool:
    """Prove a certificate on orbits of S_{k-1}.

    Each table Y, each (m_j)_* h = {j x_1} - k{0} + sum_{i >= 2} {j x_i}
    and u_1^{*(g+1)} = sum_i C(g+1, i) (-1)^(g+1-i) {i x_1} is invariant
    under permuting x_2..x_k, so the difference of the two sides is too,
    and it is zero iff every orbit sum is.  The orbit sum over Q of a term
    Y * c is sum_R |R| Y(R) sum_{p : r + p in Q} c(p), over the table's
    orbits R = (a_1, s), |R| = C(k-1, s), r one point of R with s ones and
    k-1-s zeros after a_1.  For c = (m_j)_* h, r + p lies in (a_1 + j, s)
    for p = j x_1, in R for p = 0, in the orbit whose tail has one zero
    raised to j for the k-1-s points p = j x_i at a zero, and in the orbit
    whose tail has one 1 raised to 1 + j for the s points at a one.  For
    c = u_1^{*(g+1)}, r + i x_1 lies in (a_1 + i, s).  Orbits are keyed
    (a_1, s, v): s ones, one coordinate v >= 2 if v is nonzero, zeros
    elsewhere; a zero raised to j = 1 is one more one.  The target's orbits
    are the points (i, 0, 0).  The sums are integers over the lcm of the
    table denominators."""
    k, g = cert.k, cert.g
    den = lcm(*(t.multiplier.den for t in (*cert.generators, *cert.nilpotent_part)))
    sums = {(i, 0, 0): -c * den for i, c in enumerate(_signed_binomials(k))}

    def add(t, moves):
        scale = den // t.multiplier.den
        for (a_1, s), n in t.multiplier.orbits.items():
            w = comb(k - 1, s) * n * scale
            for q, c in moves(a_1, s):
                if c:
                    sums[q] = sums.get(q, 0) + w * c

    for t in cert.generators:
        add(t, lambda a_1, s, j=t.j: (((a_1 + j, s, 0), 1), ((a_1, s, 0), -k),
                                      ((a_1, s + 1, 0) if j == 1 else (a_1, s, j), k - 1 - s), ((a_1, s - 1, 1 + j), s)))
    # the row of u_1^{*(g+1)}, built once and only for a nilpotent term:
    # with none, a file bounds no g
    u_power = list(enumerate(_signed_binomials(g + 1))) if cert.nilpotent_part else ()
    for t in cert.nilpotent_part:
        add(t, lambda a_1, s: [((a_1 + i, s, 0), c) for i, c in u_power])
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

    Every cofactor is invariant under permuting x_2..x_k, and the recursion
    runs on the orbit keys (a_1, s) of ``OrbitTable``: gamma_s is the orbit
    (0, s), t_j * c is k c minus c with a_1 raised by j, and the cofactors
    at step m are integer numerators over m!.  Each multiplier is returned
    as its table.

    Tested for k = 2..20, not proved: every multiplier is a signed shift of
    the first, Y_j(a_1, s) = (-1)^(j-1) Y_1(a_1, s + j - 1), with the same
    support.
    """
    cof: list[dict[int, dict[tuple[int, int], int]]] = [{} for _ in range(k + 1)]
    cof[1] = {1: {(0, 0): 1}}
    for l in range(1, k):
        new: dict[int, dict[tuple[int, int], int]] = {}
        for i in range(0, l + 1):
            # weight (-1)^i / (l+1): over (l+1)! a gamma term gets (-1)^i l!
            # and a numerator over (l-i)! gets (-1)^i l! / (l-i)!
            sign = (-1) ** i
            acc = new.setdefault(i + 1, {})
            acc[0, l - i] = acc.get((0, l - i), 0) + sign * factorial(l)
            f = sign * factorial(l) // factorial(l - i)
            for jj, c in cof[l - i].items():
                acc = new.setdefault(jj, {})
                for (a_1, s), n in c.items():
                    acc[a_1, s] = acc.get((a_1, s), 0) + k * f * n
                    acc[a_1 + i + 1, s] = acc.get((a_1 + i + 1, s), 0) - f * n
        for j, c in new.items():
            c = {orbit: n for orbit, n in c.items() if n}
            if c:
                cof[l + 1][j] = c

    sign = (-1) ** (k + 1)
    gens = []
    for j in sorted(cof[k]):
        orbits = cof[k][j]
        d = gcd(factorial(k), *orbits.values())
        gens.append(GeneratorTerm(j, OrbitTable(k, factorial(k) // d, {o: sign * n // d for o, n in orbits.items()})))
    return MembershipCertificate(k, g, j_max, cap, tuple(gens), ())


def _nilpotent_certificate(k: int, g: int, j_max: int, cap: int) -> MembershipCertificate:
    """For k > g: u^{*k} is u_1^{*m}, m = k - g - 1, times the nilpotent
    product u_1^{*(g+1)}, one term with a multiplier of height m.  The
    multiplier is the closed form u_1^{*m} = sum_i C(m, i) (-1)^(m-i) {i x_1},
    the table {(i, 0): C(m, i) (-1)^(m-i)} over den 1."""
    m = k - g - 1
    u_power = OrbitTable(k, 1, {(i, 0): c for i, c in enumerate(_signed_binomials(m))})
    return MembershipCertificate(k, g, j_max, cap, (), (NilpotentTerm(u_power),))


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
