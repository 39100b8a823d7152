"""Recursion identity, alpha coefficients, basis change, and certificates."""

import hashlib
import io
import itertools
import json
import pathlib
import random
import re
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, lcm, prod

import pytest

from pontcalc import relations
from pontcalc.cli import main
from pontcalc.cycles import (
    Cycle,
    RingContext,
    pontryagin,
    pushforward,
    star_power,
)
from pontcalc.linalg import solve_columns
from pontcalc.relations import (
    MembershipCertificate,
    NotFoundWithinCaps,
    OrbitTable,
    _newton_certificate,
    alpha_coefficients,
    check_recursion_identities,
    check_recursion_identity,
    hypothesis_cycle,
    power_basis_change,
    power_basis_change_inverse,
    pushed_hypothesis,
    subset_sum_cycle,
    verify_certificate,
    verify_relation,
)


def expand(table):
    """The multiplier on points: n / den at every point of each orbit of
    ``table``, the oracle's reading of an ``OrbitTable``."""
    rest = range(1, table.k)
    terms = [((a_1, *(int(i in ones) for i in rest)), n)
             for (a_1, s), n in table.orbits.items() for ones in itertools.combinations(rest, s)]
    return Cycle(table.k, terms).scale(Fraction(1, table.den))


def shifted(y_1, j):
    """Y_j(a, s) = (-1)^(j-1) Y_1(a, s + j - 1) in canonical form: the
    test's own reading of the shift law."""
    return canonical(y_1.k, {(a, s - j + 1): Fraction((-1) ** (j - 1) * n, y_1.den)
                             for (a, s), n in y_1.orbits.items() if s >= j - 1})


def generator_terms(cert):
    """[(j, Y_j)] for j = 1..k, or [] for an empty Y_1."""
    return [(j, shifted(cert.y_1, j)) for j in cert.pushforward_indices()]


def recursion_newton_tables(k):
    """{j: Y_j} from the telescoped elementary-symmetric recursion, the
    builder that the closed form replaced, kept as its oracle.

    With gamma_l the free subset-sum cycles over x_2..x_k and delta_l their
    defect against the hypothesis-substituted ones, (l+1) delta_{l+1} =
    sum_i (-1)^i [gamma_{l-i} * (m_{i+1})_* h + t_{i+1} * delta_{l-i}], with
    t_j = k{0} - {j x_1}, and u^{*k} = (-1)^(k+1) delta_k.  It runs on the
    orbit keys (a_1, s): gamma_s is the orbit (0, s), t_j * c is k c minus c
    with a_1 raised by j, and the cofactors at step m are integer numerators
    over m!."""
    cof = [{} for _ in range(k + 1)]
    cof[1] = {1: {(0, 0): 1}}
    for l in range(1, k):
        new = {}
        for i in range(0, l + 1):
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
    sign = Fraction((-1) ** (k + 1), factorial(k))
    return {j: canonical(k, {o: sign * n for o, n in cof[k][j].items()}) for j in sorted(cof[k])}


def augmentation_generator(k, index):
    """u_index = {x_index} - {0}, 1-based index."""
    return Cycle.point(tuple(int(i == index - 1) for i in range(k))) - Cycle.unit(k)


def test_recursion_identity_small_cases():
    for k in range(2, 6):
        for l in range(1, k):
            assert check_recursion_identity(k, l), (k, l)
        assert check_recursion_identities(k, range(1, k)) == dict.fromkeys(range(1, k), True)


def test_recursion_identities_see_a_wrong_pushforward(monkeypatch):
    # the one pass shares its cycles between the l, and still checks each
    monkeypatch.setattr(relations, "pushforward", lambda c, n: pushforward(c, n + 1))
    assert check_recursion_identities(5, [1, 2, 3, 4]) == dict.fromkeys(range(1, 5), False)
    assert check_recursion_identity(5, 2) is False


def test_recursion_identity_k2_by_hand():
    # {x_2} * {x_2} = 2*gamma_2 + {2 x_2} with gamma_2 empty
    ctx = RingContext(rank=1, geom_dim=1, support_cap=100)
    g1 = subset_sum_cycle(1, [0], 1)
    assert subset_sum_cycle(1, [0], 2).is_zero()
    lhs = pontryagin(g1, g1, ctx)
    rhs = pontryagin(pushforward(g1, 2), subset_sum_cycle(1, [0], 0), ctx)
    assert lhs == rhs == Cycle.point((2,))


def test_recursion_identity_argument_checks():
    with pytest.raises(ValueError):
        check_recursion_identity(1, 1)
    with pytest.raises(ValueError):
        check_recursion_identity(3, 3)
    with pytest.raises(ValueError):
        check_recursion_identities(3, [1, 3])
    with pytest.raises(ValueError):
        check_recursion_identities(1, [])


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


def test_alpha_convolves_no_unit(monkeypatch):
    # row l sums l + 1 terms, and the one against gamma_0 = {0} is the
    # pushed cycle itself: 2 + 3 + ... + 12 = 77 terms at k = 12, 66 of them
    # convolutions
    calls = []
    original = relations.pontryagin
    monkeypatch.setattr(relations, "pontryagin", lambda *args: calls.append(args) or original(*args))
    alpha_coefficients(12)
    assert len(calls) == 66
    assert all(a != Cycle.unit(1) for args in calls for a in args[:2])


def test_power_basis_change_examples():
    assert power_basis_change([1, -2, 1]) == [0, 0, 1]
    assert power_basis_change([1, 0, 0, 0]) == [1, 0, 0, 0]
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 11)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        assert power_basis_change_inverse(power_basis_change(coeffs)) == coeffs
        assert power_basis_change(power_basis_change_inverse(coeffs)) == coeffs


def test_power_basis_change_takes_only_ints_and_fractions():
    for entry in (0.1, "1/3", Decimal("0.5")):
        for change in (power_basis_change, power_basis_change_inverse):
            with pytest.raises(TypeError, match="ints or Fractions"):
                change([1, entry])


def test_power_basis_change_matches_cycle_expansion():
    # u^{*j} expanded through cycles agrees with the inverse basis change
    ctx = RingContext(rank=1, geom_dim=1, support_cap=100)
    x = (1,)
    u = Cycle.point(x) - Cycle.unit(1)
    for j in range(5):
        beta = [Fraction(0)] * 5
        beta[j] = Fraction(1)
        coeffs = power_basis_change_inverse(beta)
        cyc = Cycle(1, {(i,): coeffs[i] for i in range(5)})
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
    assert h.coeff((0, 0, 0)) == -3
    ph = pushed_hypothesis(3, 2)
    assert ph.coeff((2, 0, 0)) == 1
    assert ph.coeff((0, 0, 0)) == -3


def test_k2_certificate_matches_hand_expansion():
    # u^{*2} = (1/2)(m_2)_*h + ({x_1}/2 - {x_2}/2 - {0}) * h, checked by
    # direct convolution without the engine
    k = 2
    ctx = RingContext(rank=2, geom_dim=3, support_cap=100)
    x1, x2 = (1, 0), (0, 1)
    u = Cycle.point(x1) - Cycle.unit(2)
    mult1 = Cycle(2, {x1: Fraction(1, 2), x2: Fraction(-1, 2), (0, 0): -1})
    lhs = star_power(u, 2, ctx)
    rhs = pushed_hypothesis(2, 2).scale(Fraction(1, 2)) + pontryagin(
        mult1, hypothesis_cycle(2), ctx
    )
    assert lhs == rhs

    cert = verify_relation(2, 3)
    assert verify_certificate(cert)
    assert not cert.nilpotent.orbits
    mults = dict(generator_terms(cert))
    assert expand(mults[1]) == mult1
    assert expand(mults[2]) == Cycle.unit(2).scale(Fraction(1, 2))
    # on orbits (a_1, s): x_1 is (1, 0), x_2 is (0, 1) and 0 is (0, 0)
    assert mults[1] == OrbitTable(2, 2, {(1, 0): 1, (0, 1): -1, (0, 0): -2})


def test_newton_certificates_small_range():
    for k in (2, 3, 4):
        for g in (1, 2, 4):
            cert = verify_relation(k, g)
            assert verify_certificate(cert), (k, g)
            assert not cert.nilpotent.orbits
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
            assert (cert.y_1, cert.nilpotent) == (first.y_1, first.nilpotent), (k, g)


def test_window_method_agrees():
    cert = verify_relation(2, 2, j_max=2, cap=2, method="window")
    assert verify_certificate(cert)


def test_window_uses_nilpotent_span_when_ideal_insufficient():
    # with j_max = 1 the pushforward ideal cannot reach u^{*3}, but for
    # g = 1 the cube is a nilpotency-span element
    cert = verify_relation(3, 1, j_max=1, cap=2, method="window")
    assert verify_certificate(cert)
    # one table, u_1 = {x_1} - {0}, times u_1^{*2}; the file lists no factor
    data = cert.to_json_dict()
    assert (data["y_1"], data["nilpotent"]) == ({"den": 1, "orbits": []}, {"den": 1, "orbits": [[0, 0, -1], [1, 0, 1]]})


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
    (2, 3, None): "f0916431e307a1ddc2ffece55a92ea5447c62dd127e45dcf1e1473827b72d43c",
    (3, 1, 4): "67514c8b01b97693dd0b9a46d06e5d9c2c1701706d688e8c50c88f19986e54ee",
    (4, 1, 2): "b1b89134600c9e723775e974253dadd03453c8385c200d6070319e5a15c82427",
    (4, 2, 1): "e9ebe6514898f8895660f985200eee923b3778716c089d4476fa6a61fe6fb62f",
}


# SHA-256 of the Newton certificate text of `verify-relation --k K --g 2`
# (method auto), pinned the same way as WINDOW_CERT_SHA256.  The file lists
# Y_1 and an empty nilpotent table: C(k+1, 2) table entries, 300 in 27,412
# bytes at k = 24 and 820 in 77,644 bytes at k = 40.
NEWTON_CERT_SHA256 = {
    9: "dd29a01701d97aa4da5722670997132beb6f74b3f4e3744dee9f47f46645da0c",
    10: "86afb97537a51606f4ea04764c46c34b871bf1e3b2f2e55f1b583db54b0efb5f",
    24: "f1fc509c7d333a00f78efb07fa928bf5d024ad07cba237173616fc59d3295621",
    40: "1b075affa13c5286115b06f0ad86872fcdfdec715cf887b5e2ba43670faa9b6c",
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
    assert verify_certificate(MembershipCertificate.from_json_dict(json.loads(data)))


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
    # g = -1 and j_max = cap = 0 are written as given, and an empty table
    # as no entries
    cert = MembershipCertificate(k=2, g=-1, j_max=0, cap=0, y_1=OrbitTable(2, 1, {}),
                                 nilpotent=OrbitTable(2, 1, {(1, 0): 1}))
    assert written(cert) == stdlib_text(cert)
    assert '"orbits": []' in written(cert) and '"g": -1,' in written(cert)
    negative = replace(verify_relation(2, 1, method="newton"), y_1=OrbitTable(2, 1, {(-1, 0): -1}),
                       nilpotent=OrbitTable(2, 3, {(-5, 1): 2}))
    assert written(negative) == stdlib_text(negative)
    data = json.loads(written(negative))
    assert (data["y_1"], data["nilpotent"]) == ({"den": 1, "orbits": [[-1, 0, -1]]}, {"den": 3, "orbits": [[-5, 1, 2]]})


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
                    assert not cert.y_1.orbits and cert.pushforward_indices() == []
                    assert expand(cert.nilpotent) == star_power(u, k - g - 1, ctx)
                else:
                    # j_max >= k: the window certificate is the Newton one
                    assert not cert.nilpotent.orbits
                    assert max(cert.pushforward_indices()) <= min(cert.j_max, g)
                    newton = _newton_certificate(k, g, cert.j_max, cert.cap)
                    assert (cert.y_1, cert.nilpotent) == (newton.y_1, newton.nilpotent)


def test_window_reaches_larger_windows():
    for k in (4, 5, 6, 7, 8):
        cert = verify_relation(k, k, method="window")
        assert verify_certificate(cert)
        assert not cert.nilpotent.orbits
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
        u_power = star_power(augmentation_generator(k, 1), k - g - 1, ctx)
        cert = MembershipCertificate(k, g, j_max, cap, OrbitTable(k, 1, {}), table_of(u_power))
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
        if cert.max_multiplier_height() <= cap and all(j <= j_max for j in cert.pushforward_indices()):
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


def test_certificate_json_round_trip_and_tampering():
    cert = verify_relation(3, 2)
    data = json.loads(json.dumps(cert.to_json_dict(), sort_keys=True))
    again = MembershipCertificate.from_json_dict(data)
    assert verify_certificate(again)
    assert again == cert

    tampered = json.loads(json.dumps(cert.to_json_dict()))
    assert tampered["y_1"]["orbits"][0] == [0, 0, 3]
    tampered["y_1"]["orbits"][0][2] = 5
    assert not verify_certificate(MembershipCertificate.from_json_dict(tampered))

    # the Newton table moved to the nilpotent term reads, and the identity fails
    moved = json.loads(json.dumps(cert.to_json_dict()))
    moved["y_1"], moved["nilpotent"] = moved["nilpotent"], moved["y_1"]
    assert not verify_certificate(MembershipCertificate.from_json_dict(moved))

    # a consistent identity for a target other than u^{*k} proves nothing:
    # no terms at all, or every multiplier doubled
    empty = MembershipCertificate(k=2, g=1, j_max=1, cap=1, y_1=OrbitTable(2, 1, {}), nilpotent=OrbitTable(2, 1, {}))
    assert not verify_certificate(empty)
    assert not verify_certificate(replace(cert, y_1=scaled(cert.y_1, 2)))


def test_readme_y_1_excerpt_is_what_verify_relation_writes():
    # the README's k = 3 excerpt is parsed, so it cannot drift from the file
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    excerpt = re.search(r"Y_1 of the k = 3 Newton\s+certificate is\s+```json\n(.*?)\n```", readme, re.S)
    assert json.loads(excerpt.group(1)) == json.loads(written(verify_relation(3, 2)))["y_1"]


@pytest.mark.parametrize("k", range(2, 13))
def test_closed_form_writer_matches_the_cycles(k):
    # the target is written from its closed form; it must be the cycle's own
    # JSON.  No (m_j)_* h and no u_1^{*(g+1)} is written, so none is built
    ctx = RingContext(rank=k, geom_dim=1, support_cap=k)
    cert = MembershipCertificate(k, 1, 2**46, 1, OrbitTable(k, 1, {}), OrbitTable(k, 1, {}))
    data = cert.to_json_dict()
    assert data["target"] == star_power(augmentation_generator(k, 1), k, ctx).to_json_dict()
    assert data["y_1"] == data["nilpotent"] == {"den": 1, "orbits": []}
    assert MembershipCertificate.from_json_dict(json.loads(written(cert))) == cert


def test_closed_form_writer_builds_no_cycle(monkeypatch):
    certs = [verify_relation(9, 2), verify_relation(6, 2, cap=2, method="window")]
    texts = [written(cert) for cert in certs]
    monkeypatch.setattr(relations, "Cycle", None)
    monkeypatch.setattr(relations, "pushforward", None)
    assert [written(cert) for cert in certs] == texts
    for k in (0, -1):
        with pytest.raises(ValueError):
            MembershipCertificate(k, 1, 1, 1, OrbitTable(1, 1, {}), OrbitTable(1, 1, {})).to_json_dict()


@pytest.mark.parametrize("k", range(2, 11))
def test_written_certificates_read_back_equal(k):
    certs = {}
    for g, method in itertools.product(range(1, 4), ("auto", "newton", "window")):
        try:
            cert = verify_relation(k, g, method=method)
        except NotFoundWithinCaps:
            continue
        certs[written(cert)] = cert
    # g = 1 gives a nilpotent certificate, g = 3 >= k - 1 a Newton one
    assert {bool(cert.nilpotent.orbits) for cert in certs.values()} == {True, False}
    for text, cert in certs.items():
        again = MembershipCertificate.from_json_dict(json.loads(text))
        assert again == cert and verify_certificate(again)


def test_certificate_reader_takes_only_json_integers():
    data = verify_relation(3, 2).to_json_dict()
    assert verify_certificate(MembershipCertificate.from_json_dict(data))
    half_point = json.loads(json.dumps(data))
    half_point["y_1"]["orbits"][0][0] = 0.5
    fractional_k = dict(data, k=3.9)
    bool_cap = dict(data, cap=True)
    float_j_max = dict(data, j_max=6.0)
    for bad in (half_point, fractional_k, bool_cap, float_j_max):
        with pytest.raises(ValueError, match="is not an integer"):
            MembershipCertificate.from_json_dict(bad)


def _set_coeff(cycle, index, coeff):
    cycle["terms"][index]["coeff"] = coeff


def _double(cycle):
    for term in cycle["terms"]:
        term["coeff"] = str(2 * Fraction(term["coeff"]))


def _double_table(table):
    """Twice the table's values, still in lowest terms."""
    if table["den"] % 2:
        for entry in table["orbits"]:
            entry[2] *= 2
    else:
        table["den"] //= 2


def _term(data):
    """The first term of the target cycle of a certificate document."""
    return data["target"]["terms"][0]


def _table(data):
    """The table Y_1 of a certificate document."""
    return data["y_1"]


def _nil(data):
    """The nilpotent table of a certificate document."""
    return data["nilpotent"]


def _entry(data, index, position, value):
    _table(data)["orbits"][index][position] = value


def _as_cycle(k, table):
    """A table's JSON as the JSON of its multiplier on points."""
    return expand(OrbitTable(k, table["den"], {(a_1, s): n for a_1, s, n in table["orbits"]})).to_json_dict()


def _as_version_5(data):
    """The document as version 5 wrote it: Y_1 beside its list of j, 1..k or
    empty, under ``"generators"``, and a list of nilpotent terms, empty or
    one term with its label and its factors, u_1 taken g + 1 times."""
    data["version"] = 5
    k, g, y_1, nilpotent = data["k"], data["g"], data.pop("y_1"), data.pop("nilpotent")
    data["generators"] = {"j": list(range(1, k + 1)) if y_1["orbits"] else [], "y_1": y_1}
    data["nilpotent_part"] = [{"label": "*".join(["u_1"] * (g + 1)), "factors": [1] * (g + 1),
                               "multiplier": nilpotent}] if nilpotent["orbits"] else []


def _as_version_4(data):
    """The document as version 4 wrote it: a term per j, with its label and
    its table Y_j, the shift of Y_1 in lowest terms."""
    _as_version_5(data)
    data["version"] = 4
    table = data["generators"]["y_1"]
    y_1 = OrbitTable(data["k"], table["den"], {(a_1, s): n for a_1, s, n in table["orbits"]})
    data["generators"] = [{"label": f"(m_{j})*h", "j": j, "multiplier": shifted(y_1, j).to_json_dict()}
                          for j in data["generators"]["j"]]


def _as_version_3(data):
    """The document as version 3 wrote it: every generator term with its
    (m_j)_* h under ``"generator"``."""
    _as_version_4(data)
    data["version"] = 3
    for t in data["generators"]:
        t["generator"] = pushed_hypothesis(data["k"], t["j"]).to_json_dict()


def _as_version_2(data):
    """The document as version 2 wrote it: every nilpotent multiplier a cycle."""
    _as_version_3(data)
    data["version"] = 2
    for t in data["nilpotent_part"]:
        t["multiplier"] = _as_cycle(data["k"], t["multiplier"])


def _as_version_1(data):
    """The document as version 1 wrote it: every multiplier a cycle."""
    _as_version_2(data)
    data["version"] = 1
    for t in data["generators"]:
        t["multiplier"] = _as_cycle(data["k"], t["multiplier"])


# Each edit of a written certificate's document makes the reader raise
# ValueError.  The document is the Newton certificate for k = 3, g = 2 at
# half weight plus half of u_1^{*3} as the nilpotent table, so that it has
# both kinds of term and still verifies.  Every multiplier is a table; the
# cycle cases edit the target.  Version 6 lists no j, no label and no
# factor list: the cases named after them add one back, and each is refused.
TAMPERED_DOCUMENTS = {
    "format-other": lambda data: data.update(format="not-a-certificate"),
    "format-missing": lambda data: data.pop("format"),
    "version-float": lambda data: data.update(version=7.5),
    "version-float-one": lambda data: data.update(version=1.0),
    "version-bool": lambda data: data.update(version=True),
    "version-other": lambda data: data.update(version=7),
    "version-missing": lambda data: data.pop("version"),
    "format-and-version-missing": lambda data: (data.pop("format"), data.pop("version")),
    # version 1 listed every point of a multiplier, and is not read
    "version-one": lambda data: data.update(version=1),
    "version-1-document": _as_version_1,
    # version 2 listed every point of a nilpotent multiplier, and is not read
    "version-two": lambda data: data.update(version=2),
    "version-2-document": _as_version_2,
    # version 3 listed every (m_j)_* h, and is not read
    "version-3-document": _as_version_3,
    # version 4 listed a table per j, and is not read
    "version-4-document": _as_version_4,
    # version 5 listed the j, the labels and the factor lists, and is not read
    "version-5-document": _as_version_5,
    # nor is a document with an (m_j)_* h added back, of its own j or another
    "generator-cycle-extra": lambda data: _table(data).update(generator=pushed_hypothesis(3, 1).to_json_dict()),
    "generator-of-other-j": lambda data: _table(data).update(generator=pushed_hypothesis(3, 2).to_json_dict()),
    # a table has no label: one of any kind is an extra key (json.loads reads
    # a bare NaN as a float)
    "label-nan": lambda data: _table(data).update(label=float("nan")),
    "label-int": lambda data: _table(data).update(label=1),
    "label-null": lambda data: _table(data).update(label=None),
    "label-other-j": lambda data: _table(data).update(label="(m_2)*h"),
    "nilpotent-label-other": lambda data: _nil(data).update(label="anything"),
    # a version-5 nilpotent term, here without its label, in place of the table
    "nilpotent-label-missing": lambda data: data.update(nilpotent=[{"factors": [1, 1, 1], "multiplier": _nil(data)}]),
    # the factors are u_1 taken g + 1 times and are not listed: a factor list
    # of any length or type is an extra key
    "factors-other": lambda data: _nil(data).update(factors=[1, 2, 1]),
    "factors-short": lambda data: _nil(data).update(factors=[1, 1]),
    "factors-long": lambda data: _nil(data).update(factors=[1] * 4),
    "factors-missing": lambda data: data.update(nilpotent={"label": "u_1*u_1*u_1", "multiplier": _nil(data)}),
    "target-coeff": lambda data: _set_coeff(data["target"], 0, "2/1"),
    "target-zero": lambda data: data.update(target={"rank": 3, "terms": []}),
    "target-rank-other": lambda data: data["target"].update(rank=4),
    # a consistent identity for 2 u^{*k}
    "target-and-multipliers-doubled": lambda data: (
        _double(data["target"]), _double_table(_nil(data)), _double_table(_table(data))
    ),
    # the j are 1..k and are not listed: a j list, right or wrong, is an
    # extra key, and so is version 5's generators object
    "j-other": lambda data: _table(data).update(j=[1, 2, 3]),
    "j-unsorted": lambda data: data.update(j=[3, 2, 1]),
    "j-missing": lambda data: data.update(generators={"y_1": data.pop("y_1")}),
    # missing and extra keys
    "generators-missing": lambda data: data.pop("y_1"),
    "nilpotent-part-missing": lambda data: data.pop("nilpotent"),
    "target-missing": lambda data: data.pop("target"),
    "k-missing": lambda data: data.pop("k"),
    "multiplier-missing": lambda data: data.update(generators={"j": [1, 2, 3], "y_1": data.pop("y_1")}),
    "coeff-missing": lambda data: _term(data).pop("coeff"),
    "rank-missing": lambda data: data["target"].pop("rank"),
    "den-missing": lambda data: _table(data).pop("den"),
    "orbits-missing": lambda data: _table(data).pop("orbits"),
    "key-extra": lambda data: data.update(note="extra"),
    "term-key-extra": lambda data: data["target"]["terms"][-1].update(note="extra"),
    "nilpotent-key-extra": lambda data: _nil(data).update(multiplier=dict(_nil(data))),
    "cycle-key-extra": lambda data: data["target"].update(note="extra"),
    "cycle-term-key-extra": lambda data: _term(data).update(note=0),
    "table-key-extra": lambda data: _table(data).update(note="extra"),
    "nilpotent-table-key-extra": lambda data: _nil(data).update(note="extra"),
    # a bool or a float in place of an int
    "k-bool": lambda data: data.update(k=True),
    "g-float": lambda data: data.update(g=2.0),
    "j-bool": lambda data: data.update(j=[True, 2, 3]),
    "factors-bool": lambda data: _nil(data).update(factors=[True, 1, 1]),
    "target-point-bool": lambda data: _term(data)["point"].__setitem__(0, False),
    "target-rank-float": lambda data: data["target"].update(rank=3.0),
    "multiplier-point-bool": lambda data: _nil(data)["orbits"][0].__setitem__(0, False),
    "entry-a1-float": lambda data: _entry(data, 0, 0, 0.0),
    "entry-a1-bool": lambda data: _entry(data, 0, 0, False),
    "entry-s-float": lambda data: _entry(data, 1, 1, 1.0),
    "entry-s-bool": lambda data: _entry(data, 1, 1, True),
    "entry-n-float": lambda data: _entry(data, 0, 2, 6.0),
    "entry-n-bool": lambda data: _entry(data, 4, 2, True),
    "den-float": lambda data: _table(data).update(den=12.0),
    "den-bool": lambda data: _table(data).update(den=True),
    "nilpotent-den-float": lambda data: _nil(data).update(den=2.0),
    # shapes that are not the certificate's
    "generators-int": lambda data: data.update(y_1=5),
    "nilpotent-part-int": lambda data: data.update(nilpotent=5),
    "generator-term-str": lambda data: _entry(data, 0, 0, "(m_1)*h"),
    "generators-list": lambda data: data.update(y_1=[_table(data)]),
    "j-int": lambda data: data.update(j=3),
    "factors-int": lambda data: _nil(data).update(factors=3),
    "terms-int": lambda data: data["target"].update(terms=5),
    "terms-int-entry": lambda data: data["target"].update(terms=[5]),
    "point-int": lambda data: _term(data).update(point=5),
    "nilpotent-multiplier-cycle": lambda data: data.update(nilpotent=_as_cycle(3, _nil(data))),
    "multiplier-list": lambda data: data.update(nilpotent=[]),
    "orbits-int": lambda data: _table(data).update(orbits=5),
    "orbits-int-entry": lambda data: _table(data).update(orbits=[5]),
    "orbits-dict": lambda data: _table(data).update(orbits={"0": [0, 3]}),
    "entry-short": lambda data: _table(data)["orbits"][0].pop(),
    "entry-long": lambda data: _table(data)["orbits"][0].append(0),
    "entry-dict": lambda data: _table(data)["orbits"].__setitem__(0, {"a_1": 0, "s": 0, "n": 3}),
    # a nilpotent table that lists an orbit twice, has a zero entry or an s of k
    "multiplier-point-twice": lambda data: _nil(data)["orbits"].append(list(_nil(data)["orbits"][0])),
    "multiplier-zero-coeff": lambda data: _nil(data)["orbits"][0].__setitem__(2, 0),
    "nilpotent-entry-s-k": lambda data: _nil(data)["orbits"].append([0, 3, 1]),
    # a table that is not canonical: every (a_1, s) once, in order, with a
    # nonzero n over a positive den in lowest terms, s in 0..k-1, |a_1| < 2**46
    "entry-twice": lambda data: _table(data)["orbits"].append(list(_table(data)["orbits"][0])),
    "entry-twice-other-n": lambda data: _table(data)["orbits"].insert(1, [0, 0, 1]),
    "entries-unsorted": lambda data: _table(data)["orbits"].reverse(),
    "entries-swapped": lambda data: _table(data)["orbits"].insert(0, _table(data)["orbits"].pop(1)),
    "entry-n-zero": lambda data: _entry(data, 0, 2, 0),
    "entry-s-negative": lambda data: _entry(data, 0, 1, -1),
    "entry-s-k": lambda data: _entry(data, 5, 1, 3),
    "entry-a1-limit": lambda data: _entry(data, 5, 0, 2**46),
    "entry-a1-minus-limit": lambda data: _entry(data, 0, 0, -(2**46)),
    "den-zero": lambda data: _table(data).update(den=0),
    "den-negative": lambda data: _table(data).update(den=-12),
    "den-not-lowest": lambda data: (
        _table(data).update(den=24), [entry.__setitem__(2, 2 * entry[2]) for entry in _table(data)["orbits"]]
    ),
}


def scaled(table, factor):
    """``table`` times ``factor``, in canonical form."""
    values = {o: Fraction(n, table.den) * factor for o, n in table.orbits.items()}
    return canonical(table.k, values)


def canonical(k, values):
    """The ``OrbitTable`` of {(a_1, s): value}, zero values dropped."""
    values = {o: Fraction(c) for o, c in values.items() if c}
    den = lcm(*(c.denominator for c in values.values()))
    return OrbitTable(k, den, {o: int(c * den) for o, c in values.items()})


def tamper_base():
    cert = verify_relation(3, 2)
    half = Fraction(1, 2)
    return replace(cert, y_1=scaled(cert.y_1, half), nilpotent=OrbitTable(3, 2, {(0, 0): 1}))


@pytest.mark.parametrize("tamper", list(TAMPERED_DOCUMENTS.values()), ids=list(TAMPERED_DOCUMENTS))
def test_certificate_reader_checks_format_version_and_labels(tamper):
    cert = tamper_base()
    data = json.loads(written(cert))
    assert _table(data) == {"den": 12, "orbits": [[0, 0, 3], [0, 1, 3], [0, 2, 2], [1, 0, -6], [1, 1, -1], [2, 0, 3]]}
    assert _nil(data) == {"den": 2, "orbits": [[0, 0, 1]]}
    assert MembershipCertificate.from_json_dict(data) == cert
    assert verify_certificate(cert)
    tamper(data)
    with pytest.raises(ValueError):
        MembershipCertificate.from_json_dict(data)


EMPTY_TABLE = {"den": 1, "orbits": []}
BIG_K_EDITS = {
    "with-generators": lambda data: None,
    "no-generators": lambda data: data.update(y_1=EMPTY_TABLE),
    # a target of rank k but without its k + 1 terms
    "empty-target-of-rank-k": lambda data: data.update(y_1=EMPTY_TABLE, target={"rank": 2000, "terms": []}),
}


@pytest.mark.parametrize("edit", list(BIG_K_EDITS.values()), ids=list(BIG_K_EDITS))
def test_certificate_reader_is_bounded_by_the_file(edit, monkeypatch):
    # the k = 3 Newton document with k = 2000 is rejected before u^{*k} or
    # any (m_j)_* h is built from its k: its target has not rank k
    data = dict(json.loads(written(verify_relation(3, 2))), k=2000)
    edit(data)
    calls = []
    for name in ("_target_json", "pushed_hypothesis"):
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
        y_1=OrbitTable(2, 1, {}),
        nilpotent=OrbitTable(2, 1, {(0, 0): 1}),
    )
    assert verify_certificate(cert)
    # at g = 2 the same multiplier times u_1^{*3} is not u^{*2}, and g >= k
    # is refused before it is tried
    assert not verify_certificate(replace(cert, g=2))


def test_wrong_rank_multipliers_are_rejected():
    # the reader rejects a file's table with an orbit of another rank than k
    data = verify_relation(3, 2, method="newton").to_json_dict()
    data["y_1"]["orbits"].append([0, 3, 1])
    with pytest.raises(ValueError, match="k = 3"):
        MembershipCertificate.from_json_dict(data)

    nil = verify_relation(3, 1, j_max=1, cap=2, method="window")
    data = nil.to_json_dict()
    assert data["nilpotent"]["orbits"] and data["y_1"] == EMPTY_TABLE
    data["nilpotent"]["orbits"].append([0, 3, 1])
    with pytest.raises(ValueError, match="k = 3"):
        MembershipCertificate.from_json_dict(data)

    # and the verifier a certificate built in memory with one
    cert = verify_relation(3, 2, method="newton")
    short = replace(cert, y_1=OrbitTable(2, 1, {(0, 0): 1}))
    assert verify_certificate(short) is False
    other_k = replace(nil, nilpotent=OrbitTable(4, 1, {(1, 0): 1, (0, 0): -1}))
    assert verify_certificate(other_k) is False


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
        Cycle(k, {(0,) * k: k, (j,) + (0,) * (k - 1): -1})
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
        assert form.setdefault(orbit_of(p), c) == c
    assert sum(orbit_sizes(form).values()) == multiplier.support_size()
    return form


def orbit_sizes(form):
    """{orbit: |O|} from the multiplicities of each sorted tail."""
    return {o: factorial(len(o) - 1) // prod(map(factorial, Counter(o[1:]).values())) for o in form}


def table_of(cycle):
    """The ``OrbitTable`` of an S_{k-1}-invariant cycle whose points have
    tails of zeros and ones."""
    form = orbit_form(cycle)
    assert all(set(o[1:]) <= {0, 1} for o in form)
    return canonical(cycle.rank, {(o[0], sum(o[1:])): c for o, c in form.items()})


def expansion_oracle(cert):
    """Every term convolved out on points and summed: the full expansion,
    kept here as an oracle for the orbit proof.  Each table is expanded onto
    points and the nilpotent product u_1^{*(g+1)} built factor by factor."""
    ctx = RingContext(rank=cert.k, geom_dim=1, support_cap=4 * cert.k)
    total = Cycle.zero(cert.k)
    for j, table in generator_terms(cert):
        total = total + pontryagin(expand(table), pushed_hypothesis(cert.k, j), ctx)
    product = Cycle.unit(cert.k)
    for _ in range(cert.g + 1):
        product = pontryagin(product, augmentation_generator(cert.k, 1), ctx)
    total = total + pontryagin(expand(cert.nilpotent), product, ctx)
    return total == star_power(augmentation_generator(cert.k, 1), cert.k, ctx)


@pytest.mark.parametrize("k", range(2, 10))
def test_orbit_builder_matches_point_keyed_builder(k):
    cert = _newton_certificate(k, 1, k, k - 1)
    oracle = point_keyed_newton_multipliers(k)
    assert {j: expand(table) for j, table in generator_terms(cert)} == oracle
    # C(k+2, 3) orbit entries in all, C(k+1, 2) of them in Y_1
    assert sum(len(table.orbits) for _, table in generator_terms(cert)) == comb(k + 2, 3)
    assert len(cert.y_1.orbits) == comb(k + 1, 2)


def with_entry_raised(table):
    """``table`` with its first entry's value raised by 1 / den."""
    (a_1, s), n = next(iter(table.orbits.items()))
    return canonical(table.k, {o: Fraction(c, table.den) for o, c in {**table.orbits, (a_1, s): n + 1}.items()})


@pytest.mark.parametrize("k", range(2, 10))
def test_orbit_and_full_verification_agree(k, monkeypatch):
    certs = [verify_relation(k, g, method=method)
             for g, method in itertools.product(range(1, 4), ("auto", "newton", "window"))]
    newton = [cert for cert in certs if not cert.nilpotent.orbits]
    nilpotent = [cert for cert in certs if cert.nilpotent.orbits]
    assert newton and nilpotent
    reloaded = [MembershipCertificate.from_json_dict(cert.to_json_dict()) for cert in certs]
    for cert, again in zip(certs, reloaded):
        assert again == cert
        assert verify_certificate(cert) and verify_certificate(again)
    for cert in certs:
        assert expansion_oracle(cert)
    # one entry of one table changed: both proofs reject it
    bad = [replace(newton[0], y_1=with_entry_raised(newton[0].y_1))]
    bad += [replace(cert, nilpotent=with_entry_raised(cert.nilpotent)) for cert in nilpotent]
    for cert in bad:
        assert relations._verify_on_orbits(cert) is False
        assert not expansion_oracle(cert)
    # every certificate is proved on orbits, built in memory or loaded: the
    # proof convolves nothing
    monkeypatch.setattr(relations, "pontryagin", None)
    monkeypatch.setattr(relations, "star_power", None, raising=False)
    for cert, again in zip(certs, reloaded):
        assert verify_certificate(cert) and verify_certificate(again)
    assert not any(map(verify_certificate, bad))


@pytest.mark.parametrize("k", range(2, 10))
def test_orbit_forms_match_the_oracle(k):
    # each table is the orbit form of the point-keyed multiplier: (a_1, s)
    # stands for the orbit (a_1, 0^(k-1-s), 1^s), of C(k-1, s) points
    oracle = point_keyed_newton_multipliers(k)
    for j, table in generator_terms(_newton_certificate(k, 1, k, k - 1)):
        form = orbit_form(oracle[j])
        keys = {(a_1, s): (a_1,) + (0,) * (k - 1 - s) + (1,) * s for a_1, s in table.orbits}
        assert {keys[o]: Fraction(n, table.den) for o, n in table.orbits.items()} == form
        assert {keys[o]: comb(k - 1, o[1]) for o in keys} == orbit_sizes(form)
        assert table.max_height() == oracle[j].max_height()


def test_orbit_table_edge_cases():
    # k = 1 has empty tails: every point is its own orbit
    assert expand(OrbitTable(1, 3, {(2, 0): 1})) == Cycle(1, {(2,): Fraction(1, 3)})
    zero = OrbitTable(3, 1, {})
    assert expand(zero) == Cycle.zero(3) and zero.max_height() == 0
    assert zero.to_json_dict() == {"den": 1, "orbits": []}
    # negative a_1, and entries written in (a_1, s) order
    table = OrbitTable(3, 2, {(4, 0): -3, (-2, 2): 1, (-2, 1): 5})
    assert expand(table) == Cycle(3, {(-2, 1, 1): Fraction(1, 2), (-2, 1, 0): Fraction(5, 2),
                                       (-2, 0, 1): Fraction(5, 2), (4, 0, 0): Fraction(-3, 2)})
    assert table.max_height() == 4
    assert table.to_json_dict() == {"den": 2, "orbits": [[-2, 1, 5], [-2, 2, 1], [4, 0, -3]]}
    assert OrbitTable(2, 1, {(2**46 - 1, 1): 1}).max_height() == 2**46
    for k, den, orbits in [
        (0, 1, {}), (3, 0, {}), (3, -1, {(0, 0): 1}), (3, 2, {(0, 0): 2}), (3, 2, {}),
        (3, 1, {(0, 0): 0}), (3, 1, {(0, 3): 1}), (3, 1, {(0, -1): 1}),
        (3, 1, {(2**46, 0): 1}), (3, 1, {(-(2**46), 0): 1}),
    ]:
        with pytest.raises(ValueError):
            OrbitTable(k, den, orbits)


def code_names(code):
    """The global and attribute names a code object and its nested
    functions and lambdas refer to."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= code_names(const)
    return names


def test_orbit_proof_shares_no_code_with_the_builder():
    # the builders return tables and build no point; the proof reads the
    # tables, calls no builder, convolves nothing and expands nothing
    for builder in (relations._newton_certificate, relations._nilpotent_certificate):
        assert not {"Cycle", "expand", "pontryagin", "star_power"} & code_names(builder.__code__)
    for proof in (relations.verify_certificate, relations._verify_on_orbits):
        names = code_names(proof.__code__)
        assert not {"pontryagin", "star_power", "expand", "Cycle"} & names
        assert not {"_newton_certificate", "_nilpotent_certificate", "_certificate"} & names
    # and no expansion routine is left beside it
    for name in ("expand", "nilpotent_product", "augmentation_generator"):
        assert not hasattr(relations, name) and not hasattr(OrbitTable, name)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_orbit_path_rejects_tampering(k):
    cert = verify_relation(k, k, method="newton")
    assert verify_certificate(cert)
    # an orbit of Y_1 with more than one point
    big = next((a_1, s) for a_1, s in cert.y_1.orbits if 0 < s < k - 1)
    values = {o: Fraction(n, cert.y_1.den) for o, n in cert.y_1.orbits.items()}

    def rebuilt(values):
        return replace(cert, y_1=canonical(k, values))

    # the orbit sums no longer add up to the target
    dropped = rebuilt({o: c for o, c in values.items() if o != big})
    doubled = rebuilt({**values, big: 2 * values[big]})
    moved = rebuilt({**{o: c for o, c in values.items() if o != big}, (big[0], big[1] + 1): values[big]})
    for bad in (dropped, doubled, moved):
        assert relations._verify_on_orbits(bad) is False
        assert verify_certificate(bad) is False
        assert not expansion_oracle(bad)
    for bad in (replace(cert, cap=k - 2), replace(cert, j_max=k - 1)):
        assert verify_certificate(bad) is False


@pytest.mark.parametrize("k", [3, 5, 7])
def test_other_factor_lists_are_rejected_by_the_reader(k):
    # half the Newton certificate plus half the nilpotent one, u_1^{*(k-2)}
    # times u_1 * u_1 at g = 1, is proved on orbits; the same document with
    # Z * u_1 * u_2 - Z * u_2 * u_1 added, which is zero for any Z, is not a
    # certificate: its one nilpotent term is u_1 taken g + 1 times, and a
    # version-5 list of terms with other factors is an extra key
    half = Fraction(1, 2)
    newton = verify_relation(k, 1, method="newton")
    nilpotent = verify_relation(k, 1, method="window").nilpotent
    mixed = replace(newton, y_1=scaled(newton.y_1, half), nilpotent=scaled(nilpotent, half))
    assert expansion_oracle(mixed) and verify_certificate(mixed) is True
    assert not expansion_oracle(replace(mixed, nilpotent=OrbitTable(k, 1, {})))
    assert verify_certificate(replace(mixed, nilpotent=OrbitTable(k, 1, {}))) is False
    data = json.loads(written(mixed))
    assert MembershipCertificate.from_json_dict(data) == mixed
    z = {"den": 1, "orbits": [[0, 1, 1]]}
    data["nilpotent_part"] = [{"factors": [1, 2], "label": "u_1*u_2", "multiplier": z},
                              {"factors": [2, 1], "label": "u_2*u_1", "multiplier": dict(z, orbits=[[0, 1, -1]])}]
    with pytest.raises(ValueError):
        MembershipCertificate.from_json_dict(data)


def test_term_checks_reject_malformed_terms():
    nil = verify_relation(3, 1, j_max=1, cap=2, method="window")
    assert nil.pushforward_indices() == [] and not nil.y_1.orbits
    assert nil.nilpotent == OrbitTable(3, 1, {(0, 0): -1, (1, 0): 1})
    # the factors follow from g: u_1^{*2} at g = 0 (no nilpotency order),
    # u_1^{*4} at g = 3 = k
    for g in (0, 3):
        assert verify_certificate(replace(nil, g=g)) is False
    # the multiplier of height 1 above a cap of 0
    assert verify_certificate(replace(nil, cap=0)) is False


def test_malformed_fields_are_rejected_not_raised(monkeypatch):
    cert = verify_relation(3, 2)
    assert verify_certificate(cert)
    # k = 0 has no x_1 to build the target from; g = 0 has no nilpotency order
    assert verify_certificate(replace(cert, k=0)) is False
    assert verify_certificate(replace(cert, g=0)) is False
    # j = k within j_max, but (m_k)_* h would leave the digit range
    # |c| < 2**46: refused before the target or any row is built
    big_k = OrbitTable(2**46, 1, {(0, 0): 1})
    rows = counted_rows(monkeypatch)
    assert verify_certificate(MembershipCertificate(2**46, 1, 2**47, 1, big_k, OrbitTable(2**46, 1, {}))) is False
    assert rows == []
    monkeypatch.undo()
    # an orbit within the cap whose product with (m_j)_* h has the
    # coordinate 2**46 - 1 + j, outside the digit range: the orbit proof
    # rejects it, with a nilpotent term added too, without raising
    far = canonical(3, {**{o: Fraction(n, cert.y_1.den) for o, n in cert.y_1.orbits.items()}, (2**46 - 1, 0): 1})
    far_product = replace(cert, cap=2**47, y_1=far)
    assert relations._verify_on_orbits(far_product) is False
    assert verify_certificate(far_product) is False
    mixed = replace(far_product, nilpotent=OrbitTable(3, 1, {(0, 0): 1}))
    assert verify_certificate(mixed) is False


def counted_rows(monkeypatch):
    """The arguments of every ``_binomial_row`` call from now on.  A row
    longer than any test needs fails at once instead of being built."""
    calls = []
    row = relations._binomial_row

    def counted(n):
        calls.append(n)
        assert n < 10**4, f"a binomial row of length {n + 1} was asked for"
        return row(n)

    monkeypatch.setattr(relations, "_binomial_row", counted)
    return calls


def test_nilpotent_tables_need_g_below_k(monkeypatch):
    # a nilpotent table with g >= k gives False before the row of
    # u_1^{*(g+1)}, or any row, is built, so the k a file bounds bounds g
    # too: a nilpotent document at g = 2**40 reads, and fails at once
    data = dict(json.loads(written(verify_relation(3, 1, j_max=1, cap=2, method="window"))), g=2**40)
    cert = MembershipCertificate.from_json_dict(data)
    calls = counted_rows(monkeypatch)
    assert verify_certificate(cert) is False
    # and so does a certificate built in memory with g = 500 at k = 3
    assert verify_certificate(replace(cert, g=500)) is False
    assert calls == []
    # with no nilpotent term nothing is derived from g: the Newton
    # certificate holds for every g, and reads and verifies at this one
    newton = dict(json.loads(written(verify_relation(3, 2))), g=2**40)
    assert verify_certificate(MembershipCertificate.from_json_dict(newton)) is True
    assert calls[-1:] == [3]


def test_nilpotent_binomial_rows_are_built_once(monkeypatch):
    # the signed rows of u_1^{*(g+1)} and u^{*k} come from a recurrence, so
    # g leaves the number of binomials computed unchanged, and each row is
    # built once
    calls = []
    monkeypatch.setattr(relations, "comb", lambda n, i: calls.append((n, i)) or comb(n, i))
    rows = counted_rows(monkeypatch)
    counts = []
    for g in (5, 50):
        calls.clear()
        rows.clear()
        cert = MembershipCertificate(60, g, 60, 60, OrbitTable(60, 1, {}), OrbitTable(60, 1, {(0, 0): 1}))
        assert verify_certificate(cert) is False
        counts.append(len(calls))
        assert rows == [60, g + 1]
    assert counts[0] == counts[1] <= 1
    # one multiplier u_1^{*m} with m = k - g - 1 still proves u^{*k}
    assert verify_certificate(verify_relation(12, 3, cap=8, method="window"))


def test_mixed_certificates_cost_their_tables_not_their_points(monkeypatch):
    # a certificate with both kinds of term is proved on orbits too, and
    # builds no point: half the k = 14 Newton certificate plus half the
    # nilpotent one at g = 13, and a k = 30 table whose one entry (0, 14)
    # stands for C(29, 14) = 77558760 points
    newton, nilpotent = verify_relation(14, 13, method="newton"), verify_relation(14, 13, method="window")
    half = Fraction(1, 2)
    cert = replace(newton, y_1=scaled(newton.y_1, half), nilpotent=scaled(nilpotent.nilpotent, half))
    far = MembershipCertificate(30, 1, 30, 30, OrbitTable(30, 1, {(0, 14): 1}), OrbitTable(30, 1, {(0, 0): 1}))
    monkeypatch.setattr(relations, "Cycle", None)
    monkeypatch.setattr(relations, "pontryagin", None)
    assert verify_certificate(cert) is True
    assert verify_certificate(far) is False


@pytest.mark.parametrize("k", range(2, 21))
def test_newton_multipliers_are_signed_shifts_of_the_first(k):
    # every table of the recursion is the signed shift of the closed-form
    # Y_1, Y_j(a, s) = (-1)^(j-1) Y_1(a, s + j - 1), exactly
    oracle = recursion_newton_tables(k)
    cert = _newton_certificate(k, 1, k, k - 1)
    assert cert.pushforward_indices() == list(oracle) == list(range(1, k + 1))
    assert cert.y_1 == oracle[1]
    assert dict(generator_terms(cert)) == oracle


# SHA-256 of the version-5 text of the WINDOW_CERT_SHA256 and
# NEWTON_CERT_SHA256 certificates: a version-6 document with Y_1 under
# "generators" beside its list of j, 1..k or none, a list of nilpotent
# terms, each with its label "u_1*...*u_1" and its factors, u_1 taken
# g + 1 times, in place of the nilpotent table, and its version set to 5,
# is that text.  These are the pins that version 5 wrote.
WINDOW_CERT_V5_SHA256 = {
    (2, 3, None): "9c57c0483b7240fc8b918bd60c97f74fbf40ebdca95f3331b7452688252b46ad",
    (3, 1, 4): "0f14b9b7208cc9b5d6985f94c16add82c84672bc29690f2c221de3c4ad02da28",
    (4, 1, 2): "1d087764df329e4df0f279eddc336ececc283f19a3043f95377902a4dd9324f7",
    (4, 2, 1): "5559bfcd3a7f088d1a16cc370d5531921f1c9045014fb28b4b453595683375d6",
}
NEWTON_CERT_V5_SHA256 = {
    9: "159939c8de0c40abb31ca848e2393fb48447a099f3b16eef40f01e58665b2c27",
    10: "82ec37e4c67bec1794697645174f7dd04d67c6ad7945431b99e956e876f40002",
    24: "1d41fab9f2d8749b3581bf55158405e68dc36e0ef8625dd65e1ee4fad060db1d",
    40: "2ce06f821b72b4e7f2e5120fc6509747c179c95573588186d5cab706706e13ef",
}


@pytest.mark.parametrize(
    "args, pin",
    [((k, g, cap, "window"), sha) for (k, g, cap), sha in WINDOW_CERT_V5_SHA256.items()]
    + [((k, 2, None, "auto"), sha) for k, sha in NEWTON_CERT_V5_SHA256.items()],
)
def test_version_6_is_version_5_with_lists_dropped(args, pin):
    k, g, cap, method = args
    data = verify_relation(k, g, cap=cap, method=method).to_json_dict()
    _as_version_5(data)
    text = json.dumps(data, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pin
    # and the version-5 document is not read
    with pytest.raises(ValueError):
        MembershipCertificate.from_json_dict(data)


# SHA-256 of the version-4 text of the same certificates: a version-5
# document with a term per j, its label "(m_j)*h" and its table Y_j, the
# shift of Y_1 in lowest terms, in place of the list of j and Y_1, and its
# version set to 4, is that text.  These are the pins that version 4 wrote.
WINDOW_CERT_V4_SHA256 = {
    (2, 3, None): "abea508d6831d1d208d5ebc8046c39d5a250c35abeac2c6f1ce6aa21de38edbd",
    (3, 1, 4): "d2d7ce204fbe4ecfc970b038862860d6217d50feddc4ebf605543b1cc0b09d39",
    (4, 1, 2): "3ac33e7da1961dbfe093a17f5ce6ac2e699d84876e9f4e6c58829e9ffb9582ed",
    (4, 2, 1): "bf72783fdf20012d8814ccfdc90b9603d1a793594ec69fe37df2e75451a61e38",
}
NEWTON_CERT_V4_SHA256 = {
    9: "9ebc769646f1ba49f7b1cb4adc2be25b2da421453a23d02faaa20409b8b95758",
    10: "4fc7db6c4ce41b1401a1287d0c2e9c2958c4ef870acf8b66cd5884f5335f4539",
    24: "127ff3d84c9ba3abbf7c54d23409e5d34e1ac08450e0188d27f660647a1a03f4",
}


@pytest.mark.parametrize(
    "args, pin",
    [((k, g, cap, "window"), sha) for (k, g, cap), sha in WINDOW_CERT_V4_SHA256.items()]
    + [((k, 2, None, "auto"), sha) for k, sha in NEWTON_CERT_V4_SHA256.items()],
)
def test_version_5_is_version_4_with_tables_2_to_k_dropped(args, pin):
    k, g, cap, method = args
    data = verify_relation(k, g, cap=cap, method=method).to_json_dict()
    _as_version_4(data)
    text = json.dumps(data, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pin
    # and the version-4 document is not read
    with pytest.raises(ValueError):
        MembershipCertificate.from_json_dict(data)


# SHA-256 of the version-3 text of the same certificates: a version-4
# document with each (m_j)_* h added back under "generator" and its version
# set to 3 is that text.
WINDOW_CERT_V3_SHA256 = {
    (2, 3, None): "276c94a76987df0a5f9a14f64b8201de97b85bfd800ce1dcbdda08d7b2bff1ea",
    (3, 1, 4): "f353e247030a635d6cadd682f4bb5fd8baf48fa596ade06d2297b8ec4dadd452",
    (4, 1, 2): "03a6f319bd7e78d974cf986dcc9223111ad57fd346746a70b218a4e51931fd7f",
    (4, 2, 1): "4dd8f85ad813ec87d6d043fecd80da451e7e52a434990c3402f442ddfa150f08",
}
NEWTON_CERT_V3_SHA256 = {
    9: "c07700f15a4da2ea73b6ec352bb078eb4c3e6fe4fc26df2a8667d84d643b0a77",
    10: "ef29cdb09a311bc831a4720e8040165dc6a6d3aab0aa66f63910adb446daec91",
    24: "7ed159ce677c6606775fb26e6398f24f97bdda277b813d5260f6ec8fe71089d9",
}


@pytest.mark.parametrize(
    "args, pin",
    [((k, g, cap, "window"), sha) for (k, g, cap), sha in WINDOW_CERT_V3_SHA256.items()]
    + [((k, 2, None, "auto"), sha) for k, sha in NEWTON_CERT_V3_SHA256.items()],
)
def test_version_4_is_version_3_without_generator_cycles(args, pin):
    k, g, cap, method = args
    data = verify_relation(k, g, cap=cap, method=method).to_json_dict()
    _as_version_3(data)
    text = json.dumps(data, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pin


# SHA-256 of the version-2 text of the WINDOW_CERT_SHA256 certificates: a
# version-3 document with its version set to 2 and each nilpotent table
# expanded onto points is that text.
WINDOW_CERT_V2_SHA256 = {
    (2, 3, None): "eb17ac1b329255150d1d1fb31601ffdecd81299e67801e19c41657f91673fd2a",
    (3, 1, 4): "2b95ed0ef8350c4ca1cd0ce15992d13fc91a77196b91bc5b2190d31a516a75f2",
    (4, 1, 2): "4e2aef5b8a4a53206448d5e311a04f2c9842f66b2c3e5fc12b4869b58e581cf2",
    (4, 2, 1): "22199552f356fc6ad91928148de35df5068615cf532961abe2332080b0cc4965",
}


@pytest.mark.parametrize("k, g, cap", list(WINDOW_CERT_V2_SHA256))
def test_version_3_is_version_2_with_nilpotent_tables(k, g, cap):
    data = verify_relation(k, g, cap=cap, method="window").to_json_dict()
    _as_version_2(data)
    text = json.dumps(data, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WINDOW_CERT_V2_SHA256[k, g, cap]


@pytest.mark.parametrize("k", [3, 9, 24])
def test_a_changed_y_1_numerator_fails_to_verify(k):
    # every Y_j is read from Y_1, so one numerator of the file's one table
    # changed breaks the proof, whichever entry it is
    text = written(verify_relation(k, 2))
    entries = json.loads(text)["y_1"]["orbits"]
    indices = range(len(entries)) if k < 24 else range(0, len(entries), 23)
    for index in indices:
        data = json.loads(text)
        data["y_1"]["orbits"][index][2] += 1
        try:
            cert = MembershipCertificate.from_json_dict(data)
        except ValueError:
            # the table left lowest terms; the file is refused on read
            continue
        assert verify_certificate(cert) is False, (k, index)


J_LIST_EDITS = {
    "missing-first": lambda js: js[1:],
    "missing-middle": lambda js: js[:2] + js[3:],
    "missing-last": lambda js: js[:-1],
    "repeated": lambda js: js[:3] + js[2:],
    "zero-added": lambda js: [0, *js],
    "past-j-max": lambda js: [*js, 13],
}


@pytest.mark.parametrize("edit", list(J_LIST_EDITS.values()), ids=list(J_LIST_EDITS))
def test_j_list_edits_are_refused(edit):
    # version 6 lists no j, so the k = 6, g = 1 Newton file with version 5's
    # list of j added back, edited or not, is refused on read
    data = json.loads(written(verify_relation(6, 1)))
    assert MembershipCertificate.from_json_dict(data) == verify_relation(6, 1)
    data["j"] = edit(list(range(1, 7)))
    with pytest.raises(ValueError):
        MembershipCertificate.from_json_dict(data)


def test_j_max_below_k_fails_to_verify():
    # a non-empty Y_1 uses j = 1..k: j_max = k - 1 fails to verify, built or
    # loaded, and a nilpotent certificate, which uses no j, verifies at any
    # j_max
    for cert in (verify_relation(6, 1), verify_relation(6, 1, method="window")):
        low = replace(cert, j_max=5)
        loaded = MembershipCertificate.from_json_dict(json.loads(written(low)))
        assert loaded == low and verify_certificate(cert)
        assert verify_certificate(low) is verify_certificate(loaded) is (not cert.y_1.orbits)


@pytest.mark.parametrize("k, g", [(3, 1), (4, 2), (5, 1), (7, 3)])
def test_mirrored_binomial_signs_fail_the_nilpotent_proof(k, g, monkeypatch):
    # the builder's rows with their sign convention mirrored, (-1)^i C(n, i):
    # u_1^{*m} comes out as (-1)^m times itself, and the verifier, whose
    # target and u_1^{*(g+1)} rows are its own, rejects it
    monkeypatch.setattr(relations, "_signed_binomials", lambda n: [(-1) ** i * comb(n, i) for i in range(n + 1)])
    cert = relations._nilpotent_certificate(k, g, k * (g + 1), k * (g + 1))
    assert (k - g - 1) % 2 == 1
    assert verify_certificate(cert) is False
    with pytest.raises(AssertionError, match="re-verification"):
        verify_relation(k, g, method="window")
    monkeypatch.undo()
    assert verify_certificate(relations._nilpotent_certificate(k, g, k * (g + 1), k * (g + 1)))
