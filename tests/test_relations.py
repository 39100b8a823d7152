"""Recursion identity, alpha coefficients, basis change, and certificates."""

import hashlib
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from pontcalc import relations
from pontcalc.cli import main
from pontcalc.cycles import (
    Cycle,
    GroupPoint,
    RingContext,
    _orbit_cycle,
    orbit_forms,
    pontryagin,
    pushforward,
    star_power,
)
from pontcalc.linalg import solve_columns
from pontcalc.relations import (
    GeneratorTerm,
    MembershipCertificate,
    NilpotentTerm,
    NotFoundWithinCaps,
    _newton_certificate,
    alpha_coefficients,
    augmentation_generator,
    check_recursion_identity,
    hypothesis_cycle,
    power_basis_change,
    power_basis_change_inverse,
    pushed_hypothesis,
    subset_sum_cycle,
    verify_certificate,
    verify_relation,
)


def test_recursion_identity_small_cases():
    for k in range(2, 6):
        for l in range(1, k):
            assert check_recursion_identity(k, l), (k, l)


def test_recursion_identity_k2_by_hand():
    # {x_2} * {x_2} = 2*gamma_2 + {2 x_2} with gamma_2 empty
    ctx = RingContext(rank=1, geom_dim=1, support_cap=100)
    g1 = subset_sum_cycle(1, [0], 1)
    assert subset_sum_cycle(1, [0], 2).is_zero()
    lhs = pontryagin(g1, g1, ctx)
    rhs = pontryagin(pushforward(g1, 2), subset_sum_cycle(1, [0], 0), ctx)
    assert lhs == rhs == Cycle.point(GroupPoint((2,)))


def test_recursion_identity_argument_checks():
    with pytest.raises(ValueError):
        check_recursion_identity(1, 1)
    with pytest.raises(ValueError):
        check_recursion_identity(3, 3)


def test_alpha_k2_rows():
    m = alpha_coefficients(2)
    assert m.row(0) == (1,)
    assert m.row(1) == (2, -1)
    assert m.row(2) == (1, -2, 1)
    assert m.zero_entries == ()


def test_alpha_row_sums_are_degrees():
    for k in range(2, 9):
        m = alpha_coefficients(k)
        for l in range(0, k):
            assert m.row_sum(l) == comb(k - 1, l), (k, l)
        assert m.row_sum(k) == 0


def test_alpha_entries_nonzero_and_match_oracle():
    # independent oracle: solving the recursion in closed form gives
    # alpha[l][i] = (-1)^i C(k, l-i), nonzero throughout
    for k in range(2, 9):
        m = alpha_coefficients(k)
        assert m.zero_entries == ()
        for l in range(0, k + 1):
            for i, c in enumerate(m.row(l)):
                assert c == Fraction((-1) ** i * comb(k, l - i)), (k, l, i)


def test_power_basis_change_examples():
    assert power_basis_change([1, -2, 1]) == [0, 0, 1]
    assert power_basis_change([1, 0, 0, 0]) == [1, 0, 0, 0]
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 11)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        assert power_basis_change_inverse(power_basis_change(coeffs)) == coeffs
        assert power_basis_change(power_basis_change_inverse(coeffs)) == coeffs


def test_power_basis_change_matches_cycle_expansion():
    # u^{*j} expanded through cycles agrees with the inverse basis change
    ctx = RingContext(rank=1, geom_dim=1, support_cap=100)
    x = GroupPoint((1,))
    u = Cycle.point(x) - Cycle.unit(1)
    for j in range(5):
        beta = [Fraction(0)] * 5
        beta[j] = Fraction(1)
        coeffs = power_basis_change_inverse(beta)
        cyc = Cycle(1, {GroupPoint((i,)): coeffs[i] for i in range(5)})
        assert cyc == star_power(u, j, ctx)


def test_alpha_row_k_in_power_basis():
    for k in range(2, 9):
        m = alpha_coefficients(k)
        beta = power_basis_change(list(m.row(k)))
        assert beta[0] == 0
        assert beta[k] != 0


def test_hypothesis_cycles():
    h = hypothesis_cycle(3)
    assert h.degree() == 0
    assert h.coeff(GroupPoint.origin(3)) == -3
    ph = pushed_hypothesis(3, 2)
    assert ph.coeff(GroupPoint((2, 0, 0))) == 1
    assert ph.coeff(GroupPoint.origin(3)) == -3


def test_k2_certificate_matches_hand_expansion():
    # u^{*2} = (1/2)(m_2)_*h + ({x_1}/2 - {x_2}/2 - {0}) * h, checked by
    # direct convolution without the engine
    k = 2
    ctx = RingContext(rank=2, geom_dim=3, support_cap=100)
    x1, x2 = GroupPoint((1, 0)), GroupPoint((0, 1))
    u = Cycle.point(x1) - Cycle.unit(2)
    mult1 = Cycle(2, {x1: Fraction(1, 2), x2: Fraction(-1, 2), GroupPoint.origin(2): -1})
    lhs = star_power(u, 2, ctx)
    rhs = pushed_hypothesis(2, 2).scale(Fraction(1, 2)) + pontryagin(
        mult1, hypothesis_cycle(2), ctx
    )
    assert lhs == rhs

    cert = verify_relation(2, 3)
    assert verify_certificate(cert)
    assert cert.nilpotent_part == ()
    mults = {t.j: t.multiplier for t in cert.generators}
    assert mults[1] == mult1
    assert mults[2] == Cycle.unit(2).scale(Fraction(1, 2))


def test_newton_certificates_small_range():
    for k in (2, 3, 4):
        for g in (1, 2, 4):
            cert = verify_relation(k, g)
            assert verify_certificate(cert), (k, g)
            assert cert.nilpotent_part == ()
            assert cert.max_multiplier_height() <= k - 1
            assert max(cert.pushforward_indices()) <= k
    # the certificate rule decides from these facts without building: the
    # Newton certificate uses j = 1..k at height exactly k - 1, and its
    # terms do not depend on g, j_max or cap
    for k in range(2, 9):
        first = _newton_certificate(k, 1, k, k - 1)
        assert first.pushforward_indices() == list(range(1, k + 1)), k
        assert first.max_multiplier_height() == k - 1, k
        for g, j_max, cap in [(2, 2 * k, 1), (k, k + 1, 2 * k), (k + 2, 3 * k, k)]:
            cert = _newton_certificate(k, g, j_max, cap)
            assert cert.generators == first.generators, (k, g)


def test_window_method_agrees():
    cert = verify_relation(2, 2, j_max=2, cap=2, method="window")
    assert verify_certificate(cert)


def test_window_uses_nilpotent_span_when_ideal_insufficient():
    # with j_max = 1 the pushforward ideal cannot reach u^{*3}, but for
    # g = 1 the cube is a nilpotency-span element
    cert = verify_relation(3, 1, j_max=1, cap=2, method="window")
    assert verify_certificate(cert)
    assert cert.nilpotent_part
    for term in cert.nilpotent_part:
        assert len(term.factors) == 2


def test_not_found_within_caps():
    with pytest.raises(NotFoundWithinCaps) as info:
        verify_relation(2, 3, j_max=1, cap=1, method="window")
    assert info.value.caps_tried == [1, 2]
    with pytest.raises(NotFoundWithinCaps) as info:
        verify_relation(5, 1, j_max=3, cap=1, method="window")
    assert info.value.caps_tried == [1, 2]


# SHA-256 of the window certificate text json.dumps(cert.to_json_dict(),
# indent=2, sort_keys=True).  The file `verify-relation --out` writes is
# that text and one newline; both are checked against these pins.  The
# k > g pins are nilpotent certificates; (2, 3) is the Newton certificate
# the window rule returns for j_max >= k.
WINDOW_CERT_SHA256 = {
    (2, 3, None): "048bd0ad23acc5cb16b6fec88938e5f5d3b2b21f49cd3f7192786b1fcb7ec62a",
    (3, 1, 4): "cd4c31af14f5ae4b1917e181b1bcdd350076175a795f58738a1867d33d5c78a0",
    (4, 1, 2): "ae3652e5177eb550fc0444f980792ec90a3789073eb3a92ba96e538c8289db04",
    (4, 2, 1): "178551b471ed73cb7b590bd3419ca63eb9bfc609edf84d6eef5ebad5b4bd20f4",
}


# SHA-256 of the Newton certificate text of `verify-relation --k K --g 2`
# (method auto), pinned the same way as WINDOW_CERT_SHA256.
NEWTON_CERT_SHA256 = {
    9: "126ddcf39895464ac77ff41a52bfd853170f462069dd01bf1df9ccb105bb90b3",
    10: "d082f5cebfc8a29abc0b0b9d49ac094a8f127b474b05cdcfa9b379b78d09a603",
}


@pytest.mark.parametrize("k", list(NEWTON_CERT_SHA256))
def test_newton_certificate_bytes_pinned(k, tmp_path, capsys):
    fh = io.StringIO()
    verify_relation(k, 2).write_json(fh)
    assert hashlib.sha256(fh.getvalue()[:-1].encode()).hexdigest() == NEWTON_CERT_SHA256[k]
    out = tmp_path / "cert.json"
    assert main(["verify-relation", "--k", str(k), "--g", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert data.endswith(b"}\n")
    assert hashlib.sha256(data[:-1]).hexdigest() == NEWTON_CERT_SHA256[k]


@pytest.mark.parametrize("k, g, cap", list(WINDOW_CERT_SHA256))
def test_window_certificate_bytes_pinned(k, g, cap):
    cert = verify_relation(k, g, cap=cap, method="window")
    text = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WINDOW_CERT_SHA256[k, g, cap]


@pytest.mark.parametrize("k, g, cap", list(WINDOW_CERT_SHA256))
def test_cli_certificate_file_pinned(k, g, cap, tmp_path, capsys):
    out = tmp_path / "cert.json"
    argv = ["verify-relation", "--method", "window", "--k", str(k), "--g", str(g)]
    argv += [] if cap is None else ["--cap", str(cap)]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert data.endswith(b"}\n")
    assert hashlib.sha256(data[:-1]).hexdigest() == WINDOW_CERT_SHA256[k, g, cap]


def stdlib_text(cert):
    return json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"


def written(cert):
    fh = io.StringIO()
    cert.write_json(fh)
    return fh.getvalue()


@pytest.mark.parametrize(
    "k, g, j_max, cap, method",
    [(k, g, None, cap, "window") for k, g, cap in WINDOW_CERT_SHA256]
    + [(k, g, None, None, "newton") for k in range(2, 9) for g in range(1, 4)]
    + [(k, 2, None, None, "newton") for k in (9, 10)]
    # k > g: a nilpotent term and no generator terms
    + [(3, 1, 1, 2, "window")],
)
def test_write_json_matches_stdlib(k, g, j_max, cap, method):
    cert = verify_relation(k, g, j_max=j_max, cap=cap, method=method)
    assert written(cert) == stdlib_text(cert)


def test_write_json_edge_cases():
    x = Cycle.point(GroupPoint((1, 0)))
    cert = MembershipCertificate(
        k=2, g=1, j_max=0, cap=0, generators=(),
        nilpotent_part=(NilpotentTerm(factors=(), multiplier=x),
                        NilpotentTerm(factors=(2,), multiplier=Cycle.zero(2))),
    )
    assert written(cert) == stdlib_text(cert)
    assert '"factors": [],' in written(cert) and '"generators": [],' in written(cert)
    negative_j = replace(
        verify_relation(2, 1, method="newton"), nilpotent_part=(),
        generators=(GeneratorTerm(j=-1, multiplier=-x),),
    )
    assert written(negative_j) == stdlib_text(negative_j)
    assert '"label": "(m_-1)*h",' in written(negative_j)
    assert '"nilpotent_part": [],' in written(negative_j)


@pytest.mark.parametrize(
    "k, g, j_max, member",
    [pytest.param(k, g, None, True, id=f"{k}-{g}") for k, g in [(2, 1), (2, 2), (2, 3), (3, 1)]]
    + [
        pytest.param(k, g, j_max, member, id=f"{k}-{g}-{j_max}")
        for k, g, j_max, member in [
            (2, 2, 1, False),
            (2, 3, 1, False),
            (3, 3, 2, False),
            (3, 4, 2, False),
            (3, 3, 3, True),
            (3, 4, 3, True),
        ]
    ],
)
def test_window_agrees_with_groebner_membership(k, g, j_max, member):
    # independent oracle: in Q[x_1..x_k], (m_j)_*h is sum_i x_i^j - k and the
    # nilpotency span is generated by the products of g+1 factors x_i - 1;
    # u^{*k} is (x_1 - 1)^k
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{k + 1}")
    top = k * (g + 1) if j_max is None else j_max
    gens = [sum(x**j for x in xs) - k for j in range(1, top + 1)]
    gens += [
        sympy.prod([x - 1 for x in factors])
        for factors in itertools.combinations_with_replacement(xs, g + 1)
    ]
    basis = sympy.groebner(gens, *xs, order="grevlex")
    assert basis.contains((xs[0] - 1) ** k) == member
    assert not basis.contains(xs[0] - 1)
    if member:
        assert verify_certificate(verify_relation(k, g, j_max=j_max, method="window"))
    else:
        with pytest.raises(NotFoundWithinCaps):
            verify_relation(k, g, j_max=j_max, method="window")


# Verdicts of the Macaulay-window implementation that the local solve
# replaced, recorded over k 2..4, g 1..3, j_max in {1, 2, 3, k, k(g+1)} and
# cap in {1, 2, k(g+1)}: (k, g, j_max, cap) -> (recorded cap, multiplier
# height) of its certificate, or None where it raised NotFoundWithinCaps
# with caps [cap, 2 * cap].  Windows too large for it (over 3e7 matrix
# cells, 40 s or 1.5 GB) are left out: k = 3, g = 3 at cap 12 with j_max
# 1, 2, 12; k = 4, g = 1 at cap 8 with j_max 8; k = 4, g = 2, 3 at cap
# k(g+1).
MACAULAY_WINDOW_VERDICTS = {
    (2, 1, 1, 1): (1, 0), (2, 1, 1, 2): (2, 0), (2, 1, 1, 4): (4, 0), (2, 1, 2, 1): (1, 1),
    (2, 1, 2, 2): (2, 1), (2, 1, 2, 4): (4, 1), (2, 1, 3, 1): (1, 1), (2, 1, 3, 2): (2, 1),
    (2, 1, 3, 4): (4, 1), (2, 1, 4, 1): (1, 1), (2, 1, 4, 2): (2, 1), (2, 1, 4, 4): (4, 1),
    (2, 2, 1, 1): None, (2, 2, 1, 2): None, (2, 2, 1, 6): None, (2, 2, 2, 1): (1, 1),
    (2, 2, 2, 2): (2, 1), (2, 2, 2, 6): (6, 1), (2, 2, 3, 1): (1, 1), (2, 2, 3, 2): (2, 1),
    (2, 2, 3, 6): (6, 1), (2, 2, 6, 1): (1, 1), (2, 2, 6, 2): (2, 1), (2, 2, 6, 6): (6, 1),
    (2, 3, 1, 1): None, (2, 3, 1, 2): None, (2, 3, 1, 8): None, (2, 3, 2, 1): (1, 1),
    (2, 3, 2, 2): (2, 1), (2, 3, 2, 8): (8, 1), (2, 3, 3, 1): (1, 1), (2, 3, 3, 2): (2, 1),
    (2, 3, 3, 8): (8, 1), (2, 3, 8, 1): (1, 1), (2, 3, 8, 2): (2, 1), (2, 3, 8, 8): (8, 1),
    (3, 1, 1, 1): (1, 1), (3, 1, 1, 2): (2, 1), (3, 1, 1, 6): (6, 1), (3, 1, 2, 1): (1, 1),
    (3, 1, 2, 2): (2, 1), (3, 1, 2, 6): (6, 1), (3, 1, 3, 1): (1, 1), (3, 1, 3, 2): (2, 1),
    (3, 1, 3, 6): (6, 1), (3, 1, 6, 1): (1, 1), (3, 1, 6, 2): (2, 1), (3, 1, 6, 6): (6, 1),
    (3, 2, 1, 1): (1, 0), (3, 2, 1, 2): (2, 0), (3, 2, 1, 9): (9, 0), (3, 2, 2, 1): (1, 0),
    (3, 2, 2, 2): (2, 0), (3, 2, 2, 9): (9, 0), (3, 2, 3, 1): (1, 0), (3, 2, 3, 2): (2, 2),
    (3, 2, 3, 9): (9, 2), (3, 2, 9, 1): (1, 0), (3, 2, 9, 2): (2, 2), (3, 2, 9, 9): (9, 2),
    (3, 3, 1, 1): None, (3, 3, 1, 2): None, (3, 3, 2, 1): None, (3, 3, 2, 2): None,
    (3, 3, 3, 1): (2, 2), (3, 3, 3, 2): (2, 2), (3, 3, 3, 12): (12, 2), (3, 3, 12, 1): (2, 2),
    (3, 3, 12, 2): (2, 2), (4, 1, 1, 1): (2, 2), (4, 1, 1, 2): (2, 2), (4, 1, 1, 8): (8, 2),
    (4, 1, 2, 1): (2, 2), (4, 1, 2, 2): (2, 2), (4, 1, 2, 8): (8, 2), (4, 1, 3, 1): (2, 2),
    (4, 1, 3, 2): (2, 2), (4, 1, 3, 8): (8, 2), (4, 1, 4, 1): (2, 2), (4, 1, 4, 2): (2, 2),
    (4, 1, 4, 8): (8, 2), (4, 1, 8, 1): (2, 2), (4, 1, 8, 2): (2, 2), (4, 2, 1, 1): (1, 1),
    (4, 2, 1, 2): (2, 1), (4, 2, 2, 1): (1, 1), (4, 2, 2, 2): (2, 1), (4, 2, 3, 1): (1, 1),
    (4, 2, 3, 2): (2, 1), (4, 2, 4, 1): (1, 1), (4, 2, 4, 2): (2, 1), (4, 2, 12, 1): (1, 1),
    (4, 2, 12, 2): (2, 1), (4, 3, 1, 1): (1, 0), (4, 3, 1, 2): (2, 0), (4, 3, 2, 1): (1, 0),
    (4, 3, 2, 2): (2, 0), (4, 3, 3, 1): (1, 0), (4, 3, 3, 2): (2, 0), (4, 3, 4, 1): (1, 0),
    (4, 3, 4, 2): (2, 0), (4, 3, 16, 1): (1, 0), (4, 3, 16, 2): (2, 0),
}


@pytest.mark.parametrize("k, g, j_max, cap", list(MACAULAY_WINDOW_VERDICTS))
def test_window_verdicts_match_macaulay_window(k, g, j_max, cap):
    expected = MACAULAY_WINDOW_VERDICTS[k, g, j_max, cap]
    if expected is None:
        with pytest.raises(NotFoundWithinCaps) as info:
            verify_relation(k, g, j_max=j_max, cap=cap, method="window")
        assert info.value.caps_tried == [cap, 2 * cap]
        return
    cert = verify_relation(k, g, j_max=j_max, cap=cap, method="window")
    assert cert.cap == expected[0]
    assert cert.max_multiplier_height() <= expected[1]


def _monomial_points(k, top):
    """All exponent vectors of length k with total degree <= top, sorted."""
    return sorted(a for a in itertools.product(range(top + 1), repeat=k) if sum(a) <= top)


def local_algebra_solution(k, g, j_max):
    """The window question for k <= g as one linear solve in Q[y]/(y)^{g+1},
    y = x - 1: a row per monomial of degree <= g, a column y^a P_j per
    1 <= j <= min(j_max, g) and |a| <= g - j, where P_j = sum_i (1+y_i)^j - k
    has the entry C(j, t) at y_i^t, and the target y_1^k.  Returns None for
    an inconsistent system, else (multiplier height, pushforward indices)
    of the certificate with multipliers sum_a c_{a,j} u^a."""
    rows = {p: r for r, p in enumerate(_monomial_points(k, g))}
    keys = [(j, a) for j in range(1, min(j_max, g) + 1) for a in _monomial_points(k, g - j)]
    columns = [[0] * len(rows) for _ in keys]
    for col, (j, a) in zip(columns, keys):
        for i, t in itertools.product(range(k), range(1, j + 1)):
            col[rows[a[:i] + (a[i] + t,) + a[i + 1:]]] = comb(j, t)
    target = [0] * len(rows)
    target[rows[(k,) + (0,) * (k - 1)]] = 1
    solution = solve_columns(columns, target)
    if solution is None:
        return None
    used = [(j, a) for (j, a), c in zip(keys, solution) if c]
    return max(sum(a) for _, a in used), sorted({j for j, _ in used})


def test_window_rule_matches_local_algebra_solve():
    # independent oracle: the rule j_max >= k against the exact solve it
    # replaced, which decides membership at every multiplier height
    for k in range(2, 6):
        for g in range(k, 6):
            for j_max in range(1, g + 3):
                expected = local_algebra_solution(k, g, j_max)
                assert (expected is not None) == (j_max >= k), (k, g, j_max)
                if expected is None:
                    with pytest.raises(NotFoundWithinCaps):
                        verify_relation(k, g, j_max=j_max, method="window")
                    continue
                cert = verify_relation(k, g, j_max=j_max, method="window")
                assert (cert.max_multiplier_height(), cert.pushforward_indices()) == expected


def test_window_certificate_structure():
    for k in range(2, 6):
        for g in range(1, 5):
            for j_max in (1, 2, 3, None):
                try:
                    cert = verify_relation(k, g, j_max=j_max, method="window")
                except NotFoundWithinCaps:
                    assert k <= g and j_max is not None and j_max < k
                    continue
                assert verify_certificate(cert)
                if k > g:
                    # the target u_1^{*k} already lies in J^{g+1}
                    ctx = RingContext(rank=k, geom_dim=g, support_cap=k)
                    u = augmentation_generator(k, 1)
                    assert cert.generators == ()
                    assert cert.nilpotent_part == (
                        NilpotentTerm(factors=(1,) * (g + 1), multiplier=star_power(u, k - g - 1, ctx)),
                    )
                else:
                    # j_max >= k: the window certificate is the Newton one
                    assert cert.nilpotent_part == ()
                    assert max(cert.pushforward_indices()) <= min(cert.j_max, g)
                    newton = _newton_certificate(k, g, cert.j_max, cert.cap)
                    assert cert.generators == newton.generators


def test_window_reaches_larger_windows():
    for k in (4, 5, 6, 7, 8):
        cert = verify_relation(k, k, method="window")
        assert verify_certificate(cert)
        assert cert.nilpotent_part == ()
    with pytest.raises(NotFoundWithinCaps) as info:
        verify_relation(4, 4, j_max=3, method="window")
    assert info.value.caps_tried == [20, 40]


@pytest.mark.parametrize(
    "args, kwargs, builds",
    [
        ((4, 4), {"cap": 2}, 1),
        ((5, 2), {"j_max": 3}, 0),
        ((5, 1), {"j_max": 3, "cap": 1, "method": "newton"}, 0),
    ],
)
def test_newton_certificate_built_at_most_once(monkeypatch, args, kwargs, builds):
    calls = []

    def counted(*a):
        calls.append(a)
        return _newton_certificate(*a)

    monkeypatch.setattr(relations, "_newton_certificate", counted)
    try:
        verify_relation(*args, **kwargs)
    except NotFoundWithinCaps:
        pass
    assert len(calls) == builds


def window_dispatch_oracle(k, g, j_max, cap):
    """The window rule decided by building the certificate and measuring
    its height, with no height formula."""
    if k > g:
        ctx = RingContext(rank=k, geom_dim=g, support_cap=k + g)
        u_power = relations.nilpotent_product(k, (1,) * (k - g - 1), ctx)
        nil_part = (NilpotentTerm(factors=(1,) * (g + 1), multiplier=u_power),)
        cert = MembershipCertificate(k, g, j_max, cap, (), nil_part)
    elif j_max >= k:
        cert = _newton_certificate(k, g, j_max, cap)
    else:
        return None
    height = cert.max_multiplier_height()
    if height > 2 * cap:
        return None
    return cert if height <= cap else replace(cert, cap=2 * cap)


def dispatch_oracle(k, g, j_max, cap, method):
    """verify_relation's dispatch with no height formula: build the Newton
    certificate for auto and newton, keep it if its measured height and
    indices fit, else fall back to the window."""
    j_max = k * (g + 1) if j_max is None else j_max
    cap = k * (g + 1) if cap is None else cap
    if method in ("auto", "newton"):
        cert = _newton_certificate(k, g, j_max, cap)
        if cert.max_multiplier_height() <= cap and all(t.j <= j_max for t in cert.generators):
            return cert
        if method == "newton":
            raise NotFoundWithinCaps(k, g, j_max, [cap])
    cert = window_dispatch_oracle(k, g, j_max, cap)
    if cert is None:
        raise NotFoundWithinCaps(k, g, j_max, [cap, 2 * cap])
    return cert


def outcome(call):
    try:
        return written(call())
    except NotFoundWithinCaps as exc:
        return exc.caps_tried, exc.j_max


def test_certificate_rule_matches_build_then_measure_dispatch():
    for k in range(2, 6):
        for g, j_max, cap, method in itertools.product(
            range(1, 6),
            [*range(1, k + 3), None],
            [*range(1, k + 2), None],
            ("auto", "newton", "window"),
        ):
            expected = outcome(lambda: dispatch_oracle(k, g, j_max, cap, method))
            got = outcome(lambda: verify_relation(k, g, j_max=j_max, cap=cap, method=method))
            assert got == expected, (k, g, j_max, cap, method)


def test_argument_validation():
    with pytest.raises(ValueError):
        verify_relation(1, 2)
    with pytest.raises(ValueError):
        verify_relation(2, 0)
    with pytest.raises(ValueError):
        verify_relation(2, 2, method="magic")
    with pytest.raises(ValueError):
        augmentation_generator(3, 4)


def test_certificate_json_round_trip_and_tampering():
    cert = verify_relation(3, 2)
    data = json.loads(json.dumps(cert.to_json_dict(), sort_keys=True))
    again = MembershipCertificate.from_json_dict(data)
    assert verify_certificate(again)
    assert again == cert

    tampered = json.loads(json.dumps(cert.to_json_dict()))
    tampered["generators"][0]["multiplier"]["terms"][0]["coeff"] = "9/7"
    assert not verify_certificate(MembershipCertificate.from_json_dict(tampered))

    # j = 5 with its own label and (m_5)_* h reads, and the identity fails
    wrong_gen = json.loads(json.dumps(cert.to_json_dict()))
    wrong_gen["generators"][0].update(j=5, label="(m_5)*h", generator=pushed_hypothesis(3, 5).to_json_dict())
    assert not verify_certificate(MembershipCertificate.from_json_dict(wrong_gen))

    # a consistent identity for a target other than u^{*k} proves nothing:
    # no terms at all, or every multiplier doubled
    empty = MembershipCertificate(k=2, g=1, j_max=1, cap=1, generators=(), nilpotent_part=())
    assert not verify_certificate(empty)
    doubled = replace(
        cert, generators=tuple(replace(t, multiplier=t.multiplier.scale(2)) for t in cert.generators)
    )
    assert not verify_certificate(doubled)


@pytest.mark.parametrize("k", range(2, 10))
def test_written_certificates_read_back_equal(k):
    certs = {}
    for g, method in itertools.product(range(1, 4), ("auto", "newton", "window")):
        try:
            cert = verify_relation(k, g, method=method)
        except NotFoundWithinCaps:
            continue
        certs[written(cert)] = cert
    # g = 1 gives a nilpotent certificate, g = 3 >= k - 1 a Newton one
    assert {bool(cert.nilpotent_part) for cert in certs.values()} == {True, False}
    for text, cert in certs.items():
        assert MembershipCertificate.from_json_dict(json.loads(text)) == cert


def test_certificate_reader_takes_only_json_integers():
    data = verify_relation(3, 2).to_json_dict()
    assert verify_certificate(MembershipCertificate.from_json_dict(data))
    half_point = json.loads(json.dumps(data))
    half_point["generators"][0]["multiplier"]["terms"][0]["point"] = [0.5, 0, 0]
    fractional_k = dict(data, k=3.9)
    bool_cap = dict(data, cap=True)
    float_j = json.loads(json.dumps(data))
    float_j["generators"][0]["j"] = 1.0
    for bad in (half_point, fractional_k, bool_cap, float_j):
        with pytest.raises(ValueError, match="is not an integer"):
            MembershipCertificate.from_json_dict(bad)


def _set_coeff(cycle, index, coeff):
    cycle["terms"][index]["coeff"] = coeff


def _double(cycle):
    for term in cycle["terms"]:
        term["coeff"] = str(2 * Fraction(term["coeff"]))


def _point(data, *path):
    """The first point of the cycle at ``path`` in ``data``."""
    for key in path:
        data = data[key]
    return data["terms"][0]["point"]


# Each edit of a written certificate's document makes the reader raise
# ValueError.  The document is the Newton certificate for k = 3, g = 2 with
# a nilpotent term u_1*u_2*u_3 of multiplier zero added, so that it has both
# kinds of term and still verifies.
TAMPERED_DOCUMENTS = {
    "format-other": lambda data: data.update(format="not-a-certificate"),
    "format-missing": lambda data: data.pop("format"),
    "version-float": lambda data: data.update(version=7.5),
    "version-float-one": lambda data: data.update(version=1.0),
    "version-bool": lambda data: data.update(version=True),
    "version-other": lambda data: data.update(version=2),
    "version-missing": lambda data: data.pop("version"),
    "format-and-version-missing": lambda data: (data.pop("format"), data.pop("version")),
    # json.loads reads a bare NaN as a float
    "label-nan": lambda data: data["generators"][0].update(label=float("nan")),
    "label-int": lambda data: data["generators"][0].update(label=1),
    "label-null": lambda data: data["generators"][0].update(label=None),
    # labels, the target and the generator cycles follow from k, j and the factors
    "label-other-j": lambda data: data["generators"][0].update(label="(m_2)*h"),
    "nilpotent-label-other": lambda data: data["nilpotent_part"][0].update(label="anything"),
    "nilpotent-label-missing": lambda data: data["nilpotent_part"][0].pop("label"),
    "target-coeff": lambda data: _set_coeff(data["target"], 0, "2/1"),
    "target-zero": lambda data: data.update(target={"rank": 3, "terms": []}),
    "target-rank-other": lambda data: data["target"].update(rank=4),
    "generator-terms-short": lambda data: data["generators"][0]["generator"]["terms"].pop(),
    # a consistent identity for 2 u^{*k}
    "target-and-multipliers-doubled": lambda data: [
        _double(cycle) for cycle in [data["target"]] + [t["multiplier"] for t in data["generators"]]
    ],
    "generator-coeff": lambda data: _set_coeff(data["generators"][0]["generator"], 0, "-2/1"),
    "generator-scaled": lambda data: _double(data["generators"][0]["generator"]),
    "generator-of-other-j": lambda data: data["generators"][0].update(
        generator=pushed_hypothesis(3, 2).to_json_dict()
    ),
    "j-other": lambda data: data["generators"][0].update(j=2),
    # missing and extra keys
    "generators-missing": lambda data: data.pop("generators"),
    "nilpotent-part-missing": lambda data: data.pop("nilpotent_part"),
    "target-missing": lambda data: data.pop("target"),
    "k-missing": lambda data: data.pop("k"),
    "j-missing": lambda data: data["generators"][0].pop("j"),
    "generator-missing": lambda data: data["generators"][0].pop("generator"),
    "multiplier-missing": lambda data: data["generators"][0].pop("multiplier"),
    "factors-missing": lambda data: data["nilpotent_part"][0].pop("factors"),
    "coeff-missing": lambda data: data["generators"][0]["multiplier"]["terms"][0].pop("coeff"),
    "rank-missing": lambda data: data["nilpotent_part"][0]["multiplier"].pop("rank"),
    "key-extra": lambda data: data.update(note="extra"),
    "term-key-extra": lambda data: data["generators"][0].update(note="extra"),
    "nilpotent-key-extra": lambda data: data["nilpotent_part"][0].update(note="extra"),
    "cycle-key-extra": lambda data: data["generators"][0]["multiplier"].update(note="extra"),
    "cycle-term-key-extra": lambda data: data["generators"][0]["multiplier"]["terms"][0].update(note=0),
    # a bool or a float in place of an int
    "k-bool": lambda data: data.update(k=True),
    "g-float": lambda data: data.update(g=2.0),
    "j-bool": lambda data: data["generators"][0].update(j=True),
    "factors-bool": lambda data: data["nilpotent_part"][0].update(factors=[True, 2, 3]),
    "target-point-bool": lambda data: _point(data, "target").__setitem__(0, False),
    "target-rank-float": lambda data: data["target"].update(rank=3.0),
    "generator-point-bool": lambda data: _point(data, "generators", 0, "generator").__setitem__(0, False),
    "multiplier-point-bool": lambda data: _point(data, "generators", 0, "multiplier").__setitem__(0, False),
    # shapes that are not the certificate's
    "generators-int": lambda data: data.update(generators=5),
    "nilpotent-part-int": lambda data: data.update(nilpotent_part=5),
    "generator-term-str": lambda data: data["generators"].__setitem__(0, "(m_1)*h"),
    "factors-int": lambda data: data["nilpotent_part"][0].update(factors=3),
    "terms-int": lambda data: data["generators"][0]["multiplier"].update(terms=5),
    "terms-int-entry": lambda data: data["generators"][0]["multiplier"].update(terms=[5]),
    "point-int": lambda data: data["generators"][0]["multiplier"]["terms"][0].update(point=5),
    "multiplier-list": lambda data: data["generators"][0].update(multiplier=[]),
    # a multiplier that lists a point twice or has a zero coefficient
    "multiplier-point-twice": lambda data: data["generators"][0]["multiplier"]["terms"].append(
        dict(data["generators"][0]["multiplier"]["terms"][0])
    ),
    "multiplier-zero-coeff": lambda data: _set_coeff(data["generators"][0]["multiplier"], 0, "0/1"),
}


def tamper_base():
    cert = verify_relation(3, 2)
    return replace(cert, nilpotent_part=(NilpotentTerm((1, 2, 3), Cycle.zero(3)),))


@pytest.mark.parametrize("tamper", list(TAMPERED_DOCUMENTS.values()), ids=list(TAMPERED_DOCUMENTS))
def test_certificate_reader_checks_format_version_and_labels(tamper):
    cert = tamper_base()
    data = json.loads(written(cert))
    assert MembershipCertificate.from_json_dict(data) == cert
    assert verify_certificate(cert)
    tamper(data)
    with pytest.raises(ValueError):
        MembershipCertificate.from_json_dict(data)


BIG_K_EDITS = {
    "with-generators": lambda data: None,
    "no-generators": lambda data: data.update(generators=[]),
    # a target of rank k but without its k + 1 terms
    "empty-target-of-rank-k": lambda data: data.update(generators=[], target={"rank": 2000, "terms": []}),
}


@pytest.mark.parametrize("edit", list(BIG_K_EDITS.values()), ids=list(BIG_K_EDITS))
def test_certificate_reader_is_bounded_by_the_file(edit, monkeypatch):
    # the k = 3 Newton document with k = 2000 is rejected before u^{*k} or
    # any (m_j)_* h is built from its k
    data = dict(json.loads(written(verify_relation(3, 2))), k=2000)
    edit(data)
    calls = []
    for name in ("target_cycle", "pushed_hypothesis"):
        derive = getattr(relations, name)
        monkeypatch.setattr(relations, name, lambda *args, derive=derive: calls.append(args) or derive(*args))
    with pytest.raises(ValueError, match="rank k = 2000"):
        MembershipCertificate.from_json_dict(data)
    assert calls == []


@pytest.mark.parametrize("document", [5, None, "cert", [], [{}], {}])
def test_certificate_reader_rejects_other_documents(document):
    with pytest.raises(ValueError):
        MembershipCertificate.from_json_dict(document)


def test_trivial_nilpotent_certificate_k2_g1():
    # u^{*2} is itself a product of g+1 = 2 augmentation generators
    cert = MembershipCertificate(
        k=2,
        g=1,
        j_max=2,
        cap=2,
        generators=(),
        nilpotent_part=(NilpotentTerm(factors=(1, 1), multiplier=Cycle.unit(2)),),
    )
    assert verify_certificate(cert)
    # wrong factor count must be rejected
    bad = MembershipCertificate(
        k=2,
        g=2,
        j_max=2,
        cap=2,
        generators=(),
        nilpotent_part=(NilpotentTerm(factors=(1, 1), multiplier=Cycle.unit(2)),),
    )
    assert not verify_certificate(bad)


def wrong_rank(multiplier):
    """A multiplier's JSON padded from rank 3 to rank 4 (truncating would
    list some points twice, which the cycle reader rejects)."""
    return {"rank": 4, "terms": [{"coeff": t["coeff"], "point": t["point"] + [0]}
                                 for t in multiplier["terms"]]}


def test_wrong_rank_multipliers_are_rejected():
    # the reader rejects a file's multiplier of another rank than k
    data = verify_relation(3, 2, method="newton").to_json_dict()
    data["generators"][0]["multiplier"] = wrong_rank(data["generators"][0]["multiplier"])
    with pytest.raises(ValueError, match="rank k = 3"):
        MembershipCertificate.from_json_dict(data)

    data = verify_relation(3, 1, j_max=1, cap=2, method="window").to_json_dict()
    assert data["nilpotent_part"] and not data["generators"]
    data["nilpotent_part"][0]["multiplier"] = wrong_rank(data["nilpotent_part"][0]["multiplier"])
    with pytest.raises(ValueError, match="rank k = 3"):
        MembershipCertificate.from_json_dict(data)

    # and the verifier a certificate built in memory with one
    cert = verify_relation(3, 2, method="newton")
    t = cert.generators[0]
    short = replace(cert, generators=(replace(t, multiplier=Cycle.unit(2)),) + cert.generators[1:])
    assert verify_certificate(short) is False


# ---------------------------------------------------------------------------
# Newton certificates on S_{k-1} orbits
# ---------------------------------------------------------------------------


def point_keyed_newton_multipliers(k):
    """{j: multiplier} of the Newton certificate, built on points with full
    convolutions, as ``_newton_certificate`` did before its orbit keys."""
    ctx = RingContext(rank=k, geom_dim=1, support_cap=4 * k)
    free_indices = list(range(1, k))
    gamma_free = [subset_sum_cycle(k, free_indices, s) for s in range(k)]
    t_subst = [None] + [
        Cycle(k, {GroupPoint.origin(k): k, GroupPoint.generator(k, 0).scale(j): -1})
        for j in range(1, k + 1)
    ]
    cof = [dict() for _ in range(k + 1)]
    cof[1] = {1: Cycle.unit(k)}
    for l in range(1, k):
        new = {}
        for i in range(0, l + 1):
            weight = Fraction((-1) ** i, l + 1)
            new[i + 1] = new.get(i + 1, Cycle.zero(k)) + gamma_free[l - i].scale(weight)
            for jj, c in cof[l - i].items():
                moved = pontryagin(t_subst[i + 1], c, ctx).scale(weight)
                new[jj] = new.get(jj, Cycle.zero(k)) + moved
        cof[l + 1] = {j: c for j, c in new.items() if not c.is_zero()}
    return {j: c.scale((-1) ** (k + 1)) for j, c in cof[k].items()}


def orbit_of(point):
    return (point[0], *sorted(point[1:]))


def orbit_form(multiplier):
    """{orbit: coefficient} of an S_{k-1}-invariant multiplier; asserts that
    each orbit carries one coefficient and is present whole."""
    form = {}
    for p, c in multiplier.items():
        assert form.setdefault(orbit_of(p.coords), c) == c
    assert sum(orbit_sizes(form).values()) == multiplier.support_size()
    return form


def orbit_sizes(form):
    """{orbit: |O|} from the multiplicities of each sorted tail."""
    return {o: factorial(len(o) - 1) // prod(map(factorial, Counter(o[1:]).values())) for o in form}


def expansion_oracle(cert):
    """Every generator term convolved out on points and summed: the full
    expansion, kept here as an oracle for the orbit proof."""
    ctx = RingContext(rank=cert.k, geom_dim=1, support_cap=4 * cert.k)
    total = Cycle.zero(cert.k)
    for t in cert.generators:
        total = total + pontryagin(t.multiplier, pushed_hypothesis(cert.k, t.j), ctx)
    return total == star_power(augmentation_generator(cert.k, 1), cert.k, ctx)


@pytest.mark.parametrize("k", range(2, 10))
def test_orbit_builder_matches_point_keyed_builder(k):
    cert = _newton_certificate(k, 1, k, k - 1)
    oracle = point_keyed_newton_multipliers(k)
    assert {t.j: t.multiplier for t in cert.generators} == oracle
    # every multiplier is invariant, with C(k+2, 3) orbits in all
    assert sum(len(orbit_form(t.multiplier)) for t in cert.generators) == comb(k + 2, 3)


@pytest.mark.parametrize("k", range(2, 10))
def test_orbit_and_full_verification_agree(k, monkeypatch):
    certs = [verify_relation(k, g, method=method)
             for g, method in itertools.product(range(1, 4), ("auto", "newton", "window"))]
    newton = [cert for cert in certs if not cert.nilpotent_part]
    assert newton
    reloaded = [MembershipCertificate.from_json_dict(cert.to_json_dict()) for cert in certs]
    for cert, again in zip(certs, reloaded):
        assert again == cert
        assert verify_certificate(cert) and verify_certificate(again)
    for cert in newton:
        assert expansion_oracle(cert)
    # a Newton certificate is proved on orbits, built in memory or loaded:
    # the orbit proof convolves nothing
    monkeypatch.setattr(relations, "pontryagin", None)
    for cert in newton:
        assert verify_certificate(cert)
        assert verify_certificate(MembershipCertificate.from_json_dict(cert.to_json_dict()))


@pytest.mark.parametrize("k", range(2, 10))
def test_orbit_forms_match_the_oracle(k):
    newton = [t.multiplier for t in _newton_certificate(k, 1, k, k - 1).generators]
    nilpotent = [verify_relation(k, g, method="window").nilpotent_part[0].multiplier for g in range(1, k)]
    multipliers = newton + nilpotent
    forms = orbit_forms(multipliers)
    assert len(forms) == len(multipliers)
    for m, form in zip(multipliers, forms):
        assert {o: Fraction(n, m.den) for o, (n, _) in form.items()} == orbit_form(m)
        assert {o: size for o, (_, size) in form.items()} == orbit_sizes(form)
        # the form stands for the multiplier again
        assert _orbit_cycle(k, m.den, {o: n for o, (n, _) in form.items()}) == m
    # one call or one call per cycle: the shared tail table changes nothing
    assert forms == [orbit_forms([m])[0] for m in multipliers]


def test_orbit_forms_edge_cases():
    assert orbit_forms([]) == []
    # rank 1 has empty tails: every point is its own orbit
    assert orbit_forms([Cycle(1, {GroupPoint((2,)): Fraction(1, 3)})]) == [{(2,): (1, 1)}]
    assert orbit_forms([Cycle.zero(3)]) == [{}]
    # negative digits: every key splits into a_1 and its tail exactly
    c = _orbit_cycle(3, 2, {(-2, -5, 3): 1, (4, -1, -1): -3, (0, -7, 0): 5})
    assert orbit_forms([c]) == [{(-2, -5, 3): (1, 2), (4, -1, -1): (-3, 1), (0, -7, 0): (5, 2)}]
    with pytest.raises(ValueError):
        orbit_forms([Cycle.unit(2), Cycle.unit(3)])
    with pytest.raises(ValueError):
        orbit_forms([Cycle.unit(0)])


def test_orbit_proof_shares_no_code_with_the_builder():
    names = relations._verify_on_orbits.__code__.co_names
    assert "_orbit_cycle" not in names and "_newton_certificate" not in names
    # the proof reads multipliers through orbit_forms, which builds nothing
    assert "orbit_forms" in names
    reader = orbit_forms.__code__.co_names
    assert "_orbit_cycle" not in reader and "_newton_certificate" not in reader
    # the verifier recomputes nilpotent products with ``nilpotent_product``,
    # so the nilpotent builder must not use it
    assert "nilpotent_product" not in relations._nilpotent_certificate.__code__.co_names


def rebuilt(cert, index, coeffs):
    """``cert`` with generator term ``index`` given new point coefficients."""
    t = replace(cert.generators[index], multiplier=Cycle(cert.k, coeffs))
    return replace(cert, generators=cert.generators[:index] + (t,) + cert.generators[index + 1:])


@pytest.mark.parametrize("k", [3, 5, 7])
def test_orbit_path_rejects_tampering(k):
    cert = verify_relation(k, k, method="newton")
    assert verify_certificate(cert)
    index = 0
    t = cert.generators[index]
    coeffs = {p.coords: c for p, c in t.multiplier.items()}
    # an orbit with more than one point, and one of its points
    big = next(o for o in orbit_form(t.multiplier) if len(set(o[1:])) > 1)
    point = next(p for p in coeffs if orbit_of(p) == big and p != big)

    # not invariant: the expansion decides, and the identity fails
    one_point = rebuilt(cert, index, {**coeffs, point: coeffs[point] + 1})
    dropped = rebuilt(cert, index, {p: c for p, c in coeffs.items() if p != point})
    # invariant, but the orbit sums no longer add up to the target
    scaled = rebuilt(cert, index, {p: 2 * c if orbit_of(p) == big else c
                                   for p, c in coeffs.items()})
    assert scaled.generators[index].multiplier.den == t.multiplier.den
    for bad in (one_point, dropped):
        assert relations._verify_on_orbits(bad) is None
        assert orbit_forms([bad.generators[index].multiplier]) == [None]
    assert relations._verify_on_orbits(scaled) is False
    for bad in (one_point, dropped, scaled):
        assert verify_certificate(bad) is False
        assert not expansion_oracle(bad)
    for bad in (replace(cert, cap=k - 2), replace(cert, j_max=k - 1)):
        assert verify_certificate(bad) is False


@pytest.mark.parametrize("k", [3, 5, 7])
def test_valid_non_invariant_certificate_is_proved_by_expansion(k):
    # Y_a + Z * G_b and Y_b - Z * G_a leave sum Y_j * G_j unchanged for any
    # Z; Z = {x_2} breaks the symmetry in x_2..x_k
    cert = verify_relation(k, k, method="newton")
    ctx = RingContext(rank=k, geom_dim=1, support_cap=4 * k)
    z = Cycle.point(GroupPoint.generator(k, 1))
    a, b = cert.generators[:2]
    moved = (
        replace(a, multiplier=a.multiplier + pontryagin(z, pushed_hypothesis(k, b.j), ctx)),
        replace(b, multiplier=b.multiplier - pontryagin(z, pushed_hypothesis(k, a.j), ctx)),
    )
    mixed = replace(cert, generators=moved + cert.generators[2:])
    assert relations._verify_on_orbits(mixed) is None
    assert expansion_oracle(mixed)
    assert verify_certificate(mixed) is True
    reloaded = MembershipCertificate.from_json_dict(mixed.to_json_dict())
    assert verify_certificate(reloaded) is True


def test_term_checks_reject_malformed_terms():
    nil = verify_relation(3, 1, j_max=1, cap=2, method="window")
    assert nil.nilpotent_part and not nil.generators
    term = nil.nilpotent_part[0]
    assert term.multiplier.max_height() == 1
    for factors in ((1, 4), (0, 1)):
        bad = replace(nil, nilpotent_part=(replace(term, factors=factors),))
        assert verify_certificate(bad) is False
    # the multiplier of height 1 above a cap of 0
    assert verify_certificate(replace(nil, cap=0)) is False


def test_malformed_fields_are_rejected_not_raised():
    cert = verify_relation(3, 2)
    t, rest = cert.generators[0], cert.generators[1:]
    assert verify_certificate(cert)
    # k = 0 has no x_1 to build the target from
    assert verify_certificate(replace(cert, k=0)) is False
    # j within j_max, but (m_j)_* h leaves the digit range |c| < 2**46
    big_j = replace(cert, j_max=2**47, generators=(replace(t, j=2**46),) + rest)
    assert verify_certificate(big_j) is False
    # a multiplier that is not invariant sends g = 0 to the expansion path
    x_2 = Cycle.point(GroupPoint.generator(3, 1))
    no_g = replace(cert, g=0, generators=(replace(t, multiplier=t.multiplier + x_2),) + rest)
    assert relations._verify_on_orbits(no_g) is None
    assert verify_certificate(no_g) is False
    # a multiplier point within the cap whose product with (m_j)_* h has
    # the coordinate 2**46 - 1 + j, outside the digit range
    far = Cycle.point(GroupPoint((0, 2**46 - 1, 0)))
    far_product = replace(cert, cap=2**47, generators=(replace(t, multiplier=t.multiplier + far),) + rest)
    assert relations._verify_on_orbits(far_product) is None
    assert orbit_forms([t.multiplier for t in far_product.generators])[0] is None
    assert verify_certificate(far_product) is False
