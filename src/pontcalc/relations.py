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
refutation.  A certificate is two multipliers, the generator table Y_1
and the nilpotent table, each an ``OrbitTable`` of S_{k-1}, the
permutations of x_2..x_k; an empty table means "no such term".  A
non-empty Y_1 stands for the generator terms Y_j * (m_j)_* h, j = 1..k,
with Y_j(a_1, s) = (-1)^(j-1) Y_1(a_1, s + j - 1), the shift law proved
in ``_newton_certificate``; the nilpotent table multiplies
u_1^{*(g+1)}.  The verifier proves every certificate, built in memory or
loaded from a file, on orbit sums read straight from the two tables: it
checks sum_t sum_R |R| Y_t(R) sum_{p : r + p in Q} c_t(p) = u^{*k}(Q) on
every orbit Q, R running over the orbits of Y_t, r one point of R and
c_t the coefficients of the term's (m_j)_* h or u_1^{*(g+1)}, and it
derives each Y_j from Y_1 with its own code.  A certificate stores no
target, no (m_j)_* h, no list of j and no factor list: these follow from
k and g and are derived where they are used.  The file (version 6)
holds k, g, j_max, cap, the two tables as
``{"den": D, "orbits": [[a_1, s, n], ...]}`` under ``"y_1"`` and
``"nilpotent"``, and the target as its ``Cycle.to_json_dict()``, written
from its closed form.  The target a file holds is checked on read; it
stays in the file because the benchmark's known-answer check
(``bench/workloads.py``) reads it there.  ``json_text`` writes JSON
values only.

Two certificates share the same format, and which one a call gets is
decided from (k, g, j_max, cap) before anything is built:

* the Newton certificate is the closed form of the free-ring identity
  behind the elementary-symmetric / power-sum recursion satisfied by the
  subset-sum cycles gamma_l: multipliers of height k - 1 over the
  pushforwards with j = 1..k, and an empty nilpotent table;
* the nilpotent certificate (k > g) writes the target as u_1^{*(k-g-1)}
  times u_1^{*(g+1)}: a closed-form nilpotent table and an empty Y_1.

``verify_relation`` tabulates which one each ``method`` (``auto``, the
default, ``newton`` or ``window``) returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

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
    entries are (i, 0).  The empty table is the zero multiplier: a
    certificate's way of saying it has no such term.
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


_CERT_FORMAT = "pontryagin-membership-certificate"
_CERT_VERSION = 6


def _binomial_row(n: int) -> list[int]:
    """C(n, i) for i = 0..n, by C(n, i+1) = C(n, i) (n-i) / (i+1): the
    reader's and the verifier's own row, which no builder calls."""
    row = [1]
    for i in range(n):
        row.append(row[-1] * (n - i) // (i + 1))
    return row


def _target_json(k: int) -> dict:
    """``Cycle.to_json_dict()`` of the target u^{*k}, u = {x_1} - {0},
    written from its closed form: the points (i, 0, ..., 0) for i = 0..k in
    order, with coefficients C(k, i) (-1)^(k-i)."""
    if k < 1:
        raise ValueError(f"a target needs k >= 1, got k = {k}")
    tail = [0] * (k - 1)
    return {"rank": k, "terms": [{"point": [i, *tail], "coeff": f"{(-1) ** (k - i) * c}/1"}
                                 for i, c in enumerate(_binomial_row(k))]}


@dataclass(frozen=True)
class MembershipCertificate:
    """An explicit rational combination exhibiting the target u^{*k}.

    u^{*k} == sum_{j=1..k} Y_j * (m_j)_* h + nilpotent * u_1^{*(g+1)}, as an
    exact identity of the free group ring, where every Y_j is the signed
    shift of the table y_1: Y_j(a_1, s) = (-1)^(j-1) Y_1(a_1, s + j - 1).
    An empty y_1 means no generator term, an empty nilpotent table no
    nilpotent term.  Re-verifiable by ``verify_certificate``, independently
    of the builders.
    """

    k: int
    g: int
    j_max: int
    cap: int
    y_1: OrbitTable
    nilpotent: OrbitTable

    def max_multiplier_height(self) -> int:
        """The height of Y_1 and the nilpotent table: no shift Y_j is higher than Y_1."""
        return max(self.y_1.max_height(), self.nilpotent.max_height())

    def pushforward_indices(self) -> list[int]:
        return list(range(1, self.k + 1)) if self.y_1.orbits else []

    def to_json_dict(self) -> dict:
        """The file's JSON value.  The target u^{*k} is written from its
        closed form (``_target_json``) with the bytes of its
        ``Cycle.to_json_dict()``, so no cycle is built; each table is its
        ``OrbitTable.to_json_dict()``.  A k below 1 raises ``ValueError``."""
        return {
            "format": _CERT_FORMAT,
            "version": _CERT_VERSION,
            "k": self.k,
            "g": self.g,
            "j_max": self.j_max,
            "cap": self.cap,
            "target": _target_json(self.k),
            "y_1": self.y_1.to_json_dict(),
            "nilpotent": self.nilpotent.to_json_dict(),
        }

    def write_json(self, fh) -> None:
        fh.write(json_text(self.to_json_dict()) + "\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "MembershipCertificate":
        """Read ``to_json_dict`` output.  The certificate is built from the
        JSON integers k, g, j_max, cap and the table entries; the document
        must then equal its ``to_json_dict``, key for key and JSON type for
        JSON type.  So the format, the version (6), the target and every
        table's canonical form and (a_1, s) order are checked, and anything
        else, a missing or an extra key or a document of versions 1 to 5
        included, raises ``ValueError``.  A target of rank k with k + 1
        terms is required before anything is derived from k, so the file
        bounds k."""

        def table(d):
            entries = d["orbits"]
            # one type scan of every entry value; json_int names the first
            # that is not an integer
            if not {*map(type, itertools.chain(*entries))} <= {int}:
                for value in itertools.chain(*entries):
                    json_int(value)
            return OrbitTable(k, json_int(d["den"]), {(a_1, s): n for a_1, s, n in entries})

        try:
            k = json_int(data["k"])
            cert = cls(k, json_int(data["g"]), json_int(data["j_max"]), json_int(data["cap"]),
                       table(data["y_1"]), table(data["nilpotent"]))
            target = data["target"]
            if target["rank"] != k or len(target["terms"]) != k + 1:
                raise ValueError(f"the target is not of rank k = {k} with k + 1 terms")
        except (KeyError, TypeError):
            raise ValueError(f"not a {_CERT_FORMAT} of version {_CERT_VERSION}: "
                             "a field is missing or of another JSON type") from None
        if not _same_json(data, cert.to_json_dict()):
            raise ValueError(f"not a {_CERT_FORMAT} of version {_CERT_VERSION} whose target "
                             "and tables are those of k and the entries")
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

    Both tables must be tables of the certificate's k with height at most
    cap (each shift Y_j is no higher than Y_1).  A non-empty Y_1 uses
    j = 1..k, so it needs k <= min(j_max, 2**46 - 1), the digit range of
    (m_k)_* h.  A non-empty nilpotent table needs g < k: for k <= g the
    window rule (``_certificate``) puts u^{*k} in I + J^{g+1} only if it is
    in I, where the Newton certificate proves it, so no builder makes such
    a term; checked first, this also bounds the row of u_1^{*(g+1)} by the
    k a file bounds.  The target, each Y_j, each (m_j)_* h and
    u_1^{*(g+1)} are derived from k, Y_1 and g.  Malformed fields (k or g
    below 1) give False, not an exception.  Shares no code with the
    builders: its binomial rows and its shift are its own.  The identity is
    proved on orbit sums, see ``_verify_on_orbits``, for a certificate
    built in memory or loaded from a file alike.
    """
    k = cert.k
    if k < 1 or cert.g < 1:
        return False
    for table in (cert.y_1, cert.nilpotent):
        if table.k != k or table.max_height() > cert.cap:
            return False
    if cert.y_1.orbits and k > min(cert.j_max, _LIMIT - 1):
        return False
    if cert.nilpotent.orbits and cert.g >= k:
        return False
    return _verify_on_orbits(cert)


def _verify_on_orbits(cert: MembershipCertificate) -> bool:
    """Prove a certificate on orbits of S_{k-1}.

    Each table Y, each (m_j)_* h = {j x_1} - k{0} + sum_{i >= 2} {j x_i}
    and u_1^{*(g+1)} = sum_i C(g+1, i) (-1)^(g+1-i) {i x_1} is invariant
    under permuting x_2..x_k, so the difference of the two sides is too,
    and it is zero iff every orbit sum is.  The generator term of j = 1..k
    has the table Y_j(a_1, s) = (-1)^(j-1) Y_1(a_1, s + j - 1), read here
    from Y_1's entries with s + j - 1 in 0..k-1.  The orbit sum over Q of a
    term Y * c is sum_R |R| Y(R) sum_{p : r + p in Q} c(p), over the
    table's orbits R = (a_1, s), |R| = C(k-1, s), r one point of R with s
    ones and k-1-s zeros after a_1.  For c = (m_j)_* h, r + p lies in
    (a_1 + j, s) for p = j x_1, in R for p = 0, in the orbit whose tail has
    one zero raised to j for the k-1-s points p = j x_i at a zero, and in
    the orbit whose tail has one 1 raised to 1 + j for the s points at a
    one.  For c = u_1^{*(g+1)}, r + i x_1 lies in (a_1 + i, s).  Orbits are
    keyed (a_1, s, v): s ones, one coordinate v >= 2 if v is nonzero, zeros
    elsewhere; a zero raised to j = 1 is one more one.  The target's orbits
    are the points (i, 0, 0).  The sums are integers over the lcm of the
    table denominators."""
    k, g = cert.k, cert.g
    den = lcm(cert.y_1.den, cert.nilpotent.den)
    sums = {(i, 0, 0): (-1) ** (k - i + 1) * c * den for i, c in enumerate(_binomial_row(k))}

    def add(q, c):
        sums[q] = sums.get(q, 0) + c

    # Y_1's entries by s, so that the shift of j reads the rows s >= j - 1
    by_s: dict[int, list[tuple[int, int]]] = {}
    for (a_1, s), n in cert.y_1.orbits.items():
        by_s.setdefault(s, []).append((a_1, n))
    scale = den // cert.y_1.den
    for j in range(1, k + 1):
        for s_1, entries in by_s.items():
            s = s_1 - j + 1
            if s < 0:
                continue
            weight = (-1) ** (j - 1) * comb(k - 1, s) * scale
            for a_1, n in entries:
                w = weight * n
                add((a_1 + j, s, 0), w)
                add((a_1, s, 0), -k * w)
                if s < k - 1:
                    add((a_1, s + 1, 0) if j == 1 else (a_1, s, j), (k - 1 - s) * w)
                if s:
                    add((a_1, s - 1, 1 + j), s * w)
    # the row of u_1^{*(g+1)}, built once and only for a nilpotent term
    if cert.nilpotent.orbits:
        u_power = [(i, (-1) ** (g + 1 - i) * c) for i, c in enumerate(_binomial_row(g + 1))]
        scale = den // cert.nilpotent.den
        for (a_1, s), n in cert.nilpotent.orbits.items():
            w = comb(k - 1, s) * n * scale
            for i, c in u_power:
                add((a_1 + i, s, 0), w * c)
    return not any(sums.values())


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _newton_certificate(k: int, g: int, j_max: int, cap: int) -> MembershipCertificate:
    """The free-ring identity u^{*k} = sum_{j=1..k} Y_j * (m_j)_* h, with Y_1
    from its closed form; g, j_max and cap are only recorded.

    Proof.  Work in Q[X_1..X_k], X_i = {x_i}, where (m_j)_* h is
    q_j = p_j(X) - k, p_j the j-th power sum; X_i -> {x_i} is a ring map
    to the group ring, so an identity here is one of cycles.  Put
    E_f(t) = prod_{i>=2} (1 + X_i t), whose t^l coefficient is the free
    subset-sum cycle gamma_l of x_2..x_k, and E_s(t) = (1 + t)^k / (1 + X_1 t),
    whose t^l coefficient is gamma_l with the hypothesis substituted (the
    rows of ``alpha_coefficients``).  By Newton's identities
    E'/E = sum_j (-1)^(j-1) P_j t^(j-1), P_j the j-th power sum of the
    roots: p_j(X) - X_1^j for E_f and k - X_1^j for E_s.  So F = E_f / E_s
    has F(0) = 1 and F'/F = Q'(t) = sum_j (-1)^(j-1) q_j t^(j-1), and

      E_f - E_s = E_s (F - 1) = E_s(t) int_0^t F(tau) Q'(tau) dtau.

    [t^k] E_f = 0, as E_f has k - 1 factors, and [t^k] E_s = (1 - X_1)^k =
    (-1)^k u^k, so u^k is (-1)^(k+1) times [t^k] of the right side.  Expand
    F = sum_s e_s(X_2..X_k) tau^s (1 + X_1 tau)(1 + tau)^(-k) with
    (1 + X tau)(1 + tau)^(-k) = sum_r c_r(X) tau^r, c_r(X) = C(-k, r) +
    X C(-k, r-1), C(-k, r) = (-1)^r C(k+r-1, r), and E_s(t) =
    sum_q E_q(X_1) t^q, E_q(X) = sum_i C(k, q-i) (-X)^i.  The term
    (-1)^(j-1) q_j e_s c_r tau^(s+r+j-1) integrates to a t^N / N, N =
    s + r + j, and meets E_{k-N}.  With m = s + j - 1 this gives
    u^k = sum_j q_j Y_j, Y_j = (-1)^(j-1) sum_s e_s(X_2..X_k) y_{s+j-1}(X_1),

      y_m(X) = (-1)^(k+1) sum_{N=m+1..k} (1/N) c_{N-1-m}(X) E_{k-N}(X).

    e_s(X_2..X_k) X_1^a is the orbit (a, s) of ``OrbitTable``, so
    Y_1(a, s) = [X^a] y_s(X), and Y_j depends on j and s only through
    s + j: Y_j(a, s) = (-1)^(j-1) Y_1(a, s + j - 1), the shift law.  As
    deg c_r <= 1 and deg E_q = q, every entry has a + s <= k - 1: height
    k - 1, C(k+1, 2) entries in Y_1.

    In integers over L = lcm(1..k): with T_m(a) = sum_N (L/N) C(-k, N-1-m)
    [X^a] E_{k-N}(X), L Y_1(a, s) = (-1)^(k+1) (T_s(a) + T_{s+1}(a - 1)),
    since [X^a] c_r E_q = C(-k, r) [X^a] E_q + C(-k, r-1) [X^(a-1)] E_q;
    the table is then reduced to lowest terms.  The certificate stores Y_1
    alone, and ``verify_certificate`` derives each Y_j, j = 1..k, by the
    shift with its own code, so a wrong formula or shift fails the proof.
    """
    den = lcm(*range(1, k + 1))
    binom = [comb(k, i) for i in range(k + 1)]
    negative = [(-1) ** r * comb(k + r - 1, r) for r in range(k)]  # C(-k, r)
    # T[m][a] = T_m(a) for a = 0..k-1-m; [X^a] E_q = (-1)^a C(k, q - a)
    T = []
    for m in range(k):
        row = [0] * (k - m)
        for N in range(m + 1, k + 1):
            w, q = den // N * negative[N - 1 - m], k - N
            for a in range(q + 1):
                row[a] += w * binom[q - a]
        T.append([(-1) ** a * x for a, x in enumerate(row)])
    sign = (-1) ** (k + 1)
    y_1 = {}
    for s in range(k):
        for a in range(k - s):
            n = T[s][a] + (T[s + 1][a - 1] if a else 0)
            if n:
                y_1[a, s] = sign * n
    d = gcd(den, *y_1.values())
    table = OrbitTable(k, den // d, {o: n // d for o, n in y_1.items()})
    return MembershipCertificate(k, g, j_max, cap, table, OrbitTable(k, 1, {}))


def _signed_binomials(n: int) -> list[int]:
    """C(n, i) (-1)^(n-i) for i = 0..n: u^{*n} = sum_i C(n, i) (-1)^(n-i) {i x}
    for u = {x} - {0}.  Built by C(n, i+1) = C(n, i) (n-i) / (i+1)."""
    row = [(-1) ** n]
    for i in range(n):
        row.append(-row[-1] * (n - i) // (i + 1))
    return row


def _nilpotent_certificate(k: int, g: int, j_max: int, cap: int) -> MembershipCertificate:
    """For k > g: u^{*k} is u_1^{*m}, m = k - g - 1, times the nilpotent
    product u_1^{*(g+1)}: an empty Y_1 and the nilpotent table of height m
    from the closed form u_1^{*m} = sum_i C(m, i) (-1)^(m-i) {i x_1},
    {(i, 0): C(m, i) (-1)^(m-i)} over den 1."""
    m = k - g - 1
    u_power = OrbitTable(k, 1, {(i, 0): c for i, c in enumerate(_signed_binomials(m))})
    return MembershipCertificate(k, g, j_max, cap, OrbitTable(k, 1, {}), u_power)


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
