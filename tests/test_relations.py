"""Recursion identity, alpha coefficients, basis change, and certificates."""

import hashlib
import io
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from pontcalc.cli import main
from pontcalc.cycles import Cycle, GroupPoint, RingContext, pontryagin, pushforward, star_power
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
    # k > g: a nilpotent term and no generator terms
    + [(3, 1, 1, 2, "window")],
)
def test_write_json_matches_stdlib(k, g, j_max, cap, method):
    cert = verify_relation(k, g, j_max=j_max, cap=cap, method=method)
    assert written(cert) == stdlib_text(cert)


def test_write_json_edge_cases():
    x = Cycle.point(GroupPoint((1, 0)))
    cert = MembershipCertificate(
        k=2, g=1, j_max=0, cap=0, target=Cycle.zero(2), generators=(),
        nilpotent_part=(NilpotentTerm(factors=(), multiplier=x),
                        NilpotentTerm(factors=(2,), multiplier=Cycle.zero(2))),
    )
    assert written(cert) == stdlib_text(cert)
    assert '"factors": [],' in written(cert) and '"generators": [],' in written(cert)
    labelled = replace(
        verify_relation(2, 1, method="newton"), nilpotent_part=(),
        generators=(GeneratorTerm(label='q"\\\u00e9\n', j=-1, generator=x, multiplier=-x),),
    )
    assert written(labelled) == stdlib_text(labelled)
    assert '"nilpotent_part": [],' in written(labelled)


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


def test_argument_validation():
    with pytest.raises(ValueError):
        verify_relation(1, 2)
    with pytest.raises(ValueError):
        verify_relation(2, 0)
    with pytest.raises(ValueError):
        verify_relation(2, 2, method="magic")


def test_certificate_json_round_trip_and_tampering():
    cert = verify_relation(3, 2)
    data = json.loads(json.dumps(cert.to_json_dict(), sort_keys=True))
    again = MembershipCertificate.from_json_dict(data)
    assert verify_certificate(again)
    assert again.target == cert.target

    tampered = json.loads(json.dumps(cert.to_json_dict()))
    tampered["generators"][0]["multiplier"]["terms"][0]["coeff"] = "9/7"
    assert not verify_certificate(MembershipCertificate.from_json_dict(tampered))

    wrong_gen = json.loads(json.dumps(cert.to_json_dict()))
    wrong_gen["generators"][0]["j"] = 5
    assert not verify_certificate(MembershipCertificate.from_json_dict(wrong_gen))


def test_trivial_nilpotent_certificate_k2_g1():
    # u^{*2} is itself a product of g+1 = 2 augmentation generators
    ctx = RingContext(rank=2, geom_dim=1, support_cap=100)
    u = augmentation_generator(2, 1)
    cert = MembershipCertificate(
        k=2,
        g=1,
        j_max=2,
        cap=2,
        target=star_power(u, 2, ctx),
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
        target=star_power(u, 2, ctx),
        generators=(),
        nilpotent_part=(NilpotentTerm(factors=(1, 1), multiplier=Cycle.unit(2)),),
    )
    assert not verify_certificate(bad)
