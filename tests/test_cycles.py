"""Cycle algebra: canonical form, convolution, pushforward, degree, caps."""

import itertools
import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pontcalc import cycles
from pontcalc.cycles import (
    Cycle,
    RingContext,
    SupportCapExceeded,
    _json_text,
    degree,
    gamma,
    gamma_factorization,
    pontryagin,
    pushforward,
    star_power,
)
from pontcalc.linalg import clear_denominators

CTX = RingContext(rank=2, geom_dim=3, support_cap=1000)
O = (0, 0)
X = (1, 0)
Y = (0, 1)


def rand_cycle(rng, rank, max_support=6, coord=2):
    terms = {}
    for _ in range(rng.randint(0, max_support)):
        p = tuple(rng.randint(-coord, coord) for _ in range(rank))
        terms[p] = terms.get(p, Fraction(0)) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Cycle(rank, terms)


def test_canonical_form():
    assert (Cycle.point(X) + Cycle.point(Y)) + Cycle.point(Y).scale(-1) == Cycle.point(X)
    c = rand_cycle(random.Random(1), 2)
    assert c + Cycle.zero(2) == c
    assert Cycle.point(X) + Cycle.point(X) == Cycle.point(X, 2)
    # zero coefficients are never stored
    assert (Cycle.point(X) - Cycle.point(X)).support_size() == 0


def test_point_validation():
    with pytest.raises(ValueError):
        Cycle(2, {(1,): 1})
    with pytest.raises(ValueError):
        Cycle.point(X) + Cycle.point((1,))
    with pytest.raises(ValueError):
        Cycle(-1)
    with pytest.raises(TypeError):
        Cycle(2) + 1
    # bools are ints, any sequence of ints is a point, and points come out as tuples
    assert Cycle.point([True, 0]) == Cycle.point(X)
    assert Cycle.point([True, 0]).sorted_items() == [(X, 1)]


POINT_ENTRIES = {
    "Cycle": lambda p: Cycle(2, [(p, 1)]),
    "Cycle.point": Cycle.point,
    "Cycle.coeff": lambda p: Cycle.point(X).coeff(p),
    "gamma": lambda p: gamma(p, CTX),
    "gamma_factorization": lambda p: gamma_factorization(p, CTX),
}


@pytest.mark.parametrize("entry", list(POINT_ENTRIES))
@pytest.mark.parametrize("point", [(0, 1.5), (0.0, 0), (0, Fraction(1)), (0, "1"), (0, None), (1, 0, 0)],
                         ids=["float", "float-zero", "Fraction", "str", "None", "wrong-length"])
def test_every_point_entry_checks_the_point(entry, point):
    # a point is a tuple of ints whose length is the rank in play; only
    # Cycle.point takes its rank from the point, so no length is wrong there
    if entry == "Cycle.point" and len(point) == 3:
        assert Cycle.point(point).rank == 3
        return
    with pytest.raises(TypeError if len(point) == 2 else ValueError):
        POINT_ENTRIES[entry](point)


def test_point_cycles_skip_the_fraction_path(monkeypatch):
    calls = []
    monkeypatch.setattr(cycles, "clear_denominators",
                        lambda values: calls.append(values) or clear_denominators(values))
    for p, height in ((O, 0), (X, 1), ((-3, 5), 8)):
        c = Cycle.point(p)
        assert c == Cycle(2, {p: 1})
        assert (c.den, c.max_height()) == (1, height)
    assert Cycle.point(X, -4) == Cycle(2, {X: -4})
    assert calls == []
    assert Cycle.point(X, Fraction(1, 2)) == Cycle(2, {X: Fraction(1, 2)})
    assert len(calls) == 2
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            Cycle.point(X, bad)


def test_pontryagin_on_points():
    assert pontryagin(Cycle.point(X), Cycle.point(Y), CTX) == Cycle.point((1, 1))
    c = rand_cycle(random.Random(2), 2)
    assert pontryagin(Cycle.unit(2), c, CTX) == c


def test_pontryagin_square_of_difference():
    u = Cycle.point(X) - Cycle.unit(2)
    got = pontryagin(u, u, CTX)
    assert got == Cycle(2, {(2, 0): 1, X: -2, O: 1})


def test_star_power_basics():
    assert star_power(Cycle.point(X), 3, CTX) == Cycle.point((3, 0))
    c = rand_cycle(random.Random(3), 2)
    assert star_power(c, 0, CTX) == Cycle.unit(2)
    with pytest.raises(ValueError):
        star_power(c, -1, CTX)


def test_star_power_alternating_expansion():
    from math import comb

    u = Cycle.point(X) - Cycle.unit(2)
    for k in range(1, 5):
        expected = Cycle(2, {(i, 0): (-1) ** (k - i) * comb(k, i) for i in range(k + 1)})
        assert star_power(u, k, CTX) == expected


def test_ring_axioms_random():
    rng = random.Random(0)
    ctx = RingContext(rank=3, geom_dim=2, support_cap=10**6)
    for _ in range(25):
        a = rand_cycle(rng, 3)
        b = rand_cycle(rng, 3)
        c = rand_cycle(rng, 3)
        assert pontryagin(a, b, ctx) == pontryagin(b, a, ctx)
        assert pontryagin(pontryagin(a, b, ctx), c, ctx) == pontryagin(a, pontryagin(b, c, ctx), ctx)
        assert pontryagin(a, b + c, ctx) == pontryagin(a, b, ctx) + pontryagin(a, c, ctx)
        assert pontryagin(Cycle.unit(3), a, ctx) == a
        assert degree(pontryagin(a, b, ctx)) == degree(a) * degree(b)


def test_degree_examples():
    assert degree(Cycle.point(X)) == 1
    assert degree(Cycle.point(X) - Cycle.unit(2)) == 0
    assert degree(Cycle.unit(2).scale(5)) == 5
    a = rand_cycle(random.Random(4), 2)
    b = rand_cycle(random.Random(5), 2)
    assert degree(a + b) == degree(a) + degree(b)


def test_pushforward():
    assert pushforward(Cycle.point(X), 2) == Cycle.point((2, 0))
    rng = random.Random(6)
    ctx = RingContext(rank=2, geom_dim=2, support_cap=10**6)
    for n in (-2, -1, 0, 1, 2, 3):
        a = rand_cycle(rng, 2)
        b = rand_cycle(rng, 2)
        assert pushforward(pontryagin(a, b, ctx), n) == pontryagin(
            pushforward(a, n), pushforward(b, n), ctx
        )
        assert pushforward(a, 1) == a


def test_pushforward_collapses_points():
    c = Cycle.point(X) - Cycle.point(Y)
    assert pushforward(c, 0).is_zero()


def test_pushforward_of_gamma_one():
    # (m_{i+1})_* applied to -{x_1} + k{0} scales the moving point only
    k = 4
    c = Cycle(2, {X: -1, O: k})
    assert pushforward(c, 3) == Cycle(2, {(3, 0): -1, O: k})


def test_support_cap_fails_loudly():
    small = RingContext(rank=2, geom_dim=3, support_cap=1)
    u = Cycle.point(X)
    with pytest.raises(SupportCapExceeded):
        pontryagin(u, u, small)
    far = Cycle.point((5, 0))
    with pytest.raises(SupportCapExceeded) as info:
        pontryagin(far, u, small)
    assert info.value.where == "input"


def test_context_validation():
    with pytest.raises(ValueError):
        RingContext(rank=0, geom_dim=1, support_cap=10)
    with pytest.raises(ValueError):
        RingContext(rank=1, geom_dim=0, support_cap=10)
    with pytest.raises(ValueError):
        RingContext(rank=1, geom_dim=1, support_cap=-1)
    with pytest.raises(ValueError, match="context rank"):
        pontryagin(Cycle.unit(2), Cycle.unit(2), RingContext(rank=3, geom_dim=1, support_cap=10))


def test_serialization_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        c = rand_cycle(rng, 2)
        again = Cycle.from_json_dict(json.loads(c.to_json()))
        assert again == c


def test_serialization_format():
    c = Cycle(2, {X: Fraction(1, 2), O: -3, Y: 1})
    data = c.to_json_dict()
    assert data["rank"] == 2
    # lexicographic point order, decimal-free p/q coefficients
    assert [t["point"] for t in data["terms"]] == [[0, 0], [0, 1], [1, 0]]
    assert [t["coeff"] for t in data["terms"]] == ["-3/1", "1/1", "1/2"]
    parsed = json.loads(c.to_json())
    assert parsed == data
    assert repr(c) == "Cycle(2, -3*{(0, 0)} + 1*{(0, 1)} + 1/2*{(1, 0)})"
    assert repr(Cycle.zero(2)) == "Cycle(2, 0)"


@pytest.mark.parametrize("data", [
    {"rank": 2, "terms": [{"point": [0.9, "1"], "coeff": "1/2"}]},
    {"rank": 2, "terms": [{"point": [0, 1], "coeff": "0.5"}]},
    {"rank": 2, "terms": [{"point": [0, 1], "coeff": 0.5}]},
    {"rank": 2, "terms": [{"point": [0, 1], "coeff": 1}]},
    {"rank": 2, "terms": [{"point": [0, 1], "coeff": "1/0"}]},
    {"rank": 2, "terms": [{"point": [True, 1], "coeff": "1/2"}]},
    {"rank": 2.0, "terms": []},
])
def test_reader_takes_only_json_integers_and_rational_strings(data):
    with pytest.raises(ValueError):
        Cycle.from_json_dict(data)


ORIGIN_TERM = {"point": [0, 0], "coeff": "1/1"}


@pytest.mark.parametrize("data", [
    5, None, [], "cycle", {"rank": 2}, {"terms": []},
    {"rank": 2, "terms": 5}, {"rank": 2, "terms": [5]}, {"rank": 2, "terms": "ab"},
    {"rank": 2, "terms": [["point", "coeff"]]},
    {"rank": 2, "terms": [{"point": 5, "coeff": "1/1"}]},
    {"rank": 2, "terms": [{"point": [0, 0]}]},
    # an extra key
    {"rank": 2, "terms": [], "den": 1},
    {"rank": 2, "terms": [dict(ORIGIN_TERM, weight=1)]},
    # a point listed twice, which would be summed, and a zero coefficient, which would be dropped
    {"rank": 2, "terms": [ORIGIN_TERM, ORIGIN_TERM]},
    {"rank": 2, "terms": [ORIGIN_TERM, {"point": [0, 0], "coeff": "-1/2"}]},
    {"rank": 2, "terms": [{"point": [1, 0], "coeff": "0/1"}]},
    {"rank": 2, "terms": [ORIGIN_TERM, {"point": [1, 0], "coeff": "0"}]},
])
def test_reader_rejects_other_shapes_repeated_points_and_zeros(data):
    with pytest.raises(ValueError):
        Cycle.from_json_dict(data)


def test_cycles_are_immutable():
    c = Cycle.point(X)
    with pytest.raises(AttributeError):
        c.rank = 3


# ---------------------------------------------------------------------------
# differential test: the integer core against a naive Fraction oracle
# ---------------------------------------------------------------------------


def oracle_reduce(pairs):
    """dict[coords, Fraction] with zero coefficients dropped."""
    acc = {}
    for p, c in pairs:
        acc[p] = acc.get(p, Fraction(0)) + c
    return {p: c for p, c in acc.items() if c != 0}


def oracle_products(a, b):
    return [(tuple(x + y for x, y in zip(p, q)), c * d) for p, c in a.items() for q, d in b.items()]


def oracle_json(rank, terms):
    return json.dumps(
        {
            "rank": rank,
            "terms": [
                {"point": list(p), "coeff": f"{c.numerator}/{c.denominator}"}
                for p, c in sorted(terms.items())
            ],
        },
        sort_keys=True,
    )


def assert_matches(cycle, rank, terms):
    assert cycle.rank == rank
    assert cycle == Cycle(rank, terms)
    assert cycle.den == lcm(*(c.denominator for c in terms.values()))
    assert gcd(cycle.den, *cycle.num.values()) == 1
    assert dict(cycle.items()) == terms
    assert cycle.sorted_items() == sorted(terms.items())
    assert cycle.degree() == sum(terms.values(), Fraction(0))
    for p, c in terms.items():
        assert cycle.coeff(p) == c
    assert cycle.coeff((99,) * rank) == 0
    assert cycle.to_json() == oracle_json(rank, terms)


def awkward_terms(rng, rank):
    """Input pairs with negative coordinates, denominators 1..6 and
    repeated points, some of which cancel exactly."""
    pool = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 5))]
    pairs = []
    for _ in range(rng.randint(0, 7)):
        p = rng.choice(pool)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        pairs.append((p, c))
        if rng.random() < 0.3:
            pairs.append((p, -c))
    return pairs


def test_integer_core_matches_fraction_oracle():
    rng = random.Random(31)
    for trial in range(300):
        rank = rng.randint(1, 3)
        ctx = RingContext(rank=rank, geom_dim=2, support_cap=10**6)
        pa, pb = awkward_terms(rng, rank), awkward_terms(rng, rank)
        a = Cycle(rank, [(list(p) if i % 2 else p, c) for i, (p, c) in enumerate(pa)])
        b = Cycle(rank, pb)
        oa, ob = oracle_reduce(pa), oracle_reduce(pb)
        assert_matches(a, rank, oa)
        assert_matches(b, rank, ob)

        assert_matches(a + b, rank, oracle_reduce(list(oa.items()) + list(ob.items())))
        assert_matches(a - b, rank, oracle_reduce(list(oa.items()) + [(p, -c) for p, c in ob.items()]))
        assert_matches(-a, rank, {p: -c for p, c in oa.items()})
        s = rng.choice([0, 1, -2, Fraction(-3, 4), Fraction(5, 6), Fraction(-7, 2)])
        assert_matches(a.scale(s), rank, oracle_reduce((p, s * c) for p, c in oa.items()))

        assert_matches(pontryagin(a, b, ctx), rank, oracle_reduce(oracle_products(oa, ob)))
        k = rng.randint(0, 3)
        power = {(0,) * rank: Fraction(1)}
        for _ in range(k):
            power = oracle_reduce(oracle_products(power, oa))
        assert_matches(star_power(a, k, ctx), rank, power)
        n = rng.randint(-2, 3)
        assert_matches(pushforward(a, n), rank, oracle_reduce((tuple(n * x for x in p), c) for p, c in oa.items()))

        cap = rng.randint(0, 4)
        small = RingContext(rank=rank, geom_dim=2, support_cap=cap)
        over_input = any(sum(map(abs, p)) > cap for p in list(oa) + list(ob))
        over_product = any(sum(map(abs, p)) > cap for p, _ in oracle_products(oa, ob))
        if over_input or over_product:
            with pytest.raises(SupportCapExceeded) as info:
                pontryagin(a, b, small)
            assert info.value.where == ("input" if over_input else "product")
            if not over_input:
                # the first product point above the cap in c1-major pair order
                pairs = (tuple(x + y for x, y in zip(p, q)) for p, _ in a.items() for q, _ in b.items())
                assert info.value.point == next(s for s in pairs if sum(map(abs, s)) > cap)
        else:
            assert pontryagin(a, b, small) == pontryagin(a, b, ctx)


# ---------------------------------------------------------------------------
# the packed point keys: digit range, order, rank checks, hashing
# ---------------------------------------------------------------------------

# coordinates are limited to |c| < L
L = 2**46


def test_digit_range_boundary_round_trips_and_orders():
    edge = [(-1, L - 1), (0, -(L - 1)), (L - 1, -(L - 1)), (-(L - 1), L - 1), (0, 0),
            (-1, -(L - 1)), (0, L - 1), (L - 1, L - 1), (-(L - 1), -(L - 1)), (1, -1)]
    terms = {p: Fraction(i + 1, 3) for i, p in enumerate(edge)}
    c = Cycle(2, terms)
    assert_matches(c, 2, terms)
    assert Cycle.from_json_dict(json.loads(c.to_json())) == c
    assert [p for p, _ in c.sorted_items()] == sorted(edge)
    assert [t["point"] for t in c.to_json_dict()["terms"]] == [list(p) for p in sorted(edge)]
    assert c.max_height() == 2 * (L - 1)
    # a point outside the range is in no cycle, even where its packing would alias
    assert Cycle.point(X).coeff((0, 2**48)) == 0
    assert Cycle.point((1, -1)).coeff((0, 2**48 - 1)) == 0


@pytest.mark.parametrize("bad", [L, -L, 2**48, -(2**61)])
def test_coordinates_outside_the_digit_range_raise(bad):
    with pytest.raises(ValueError):
        Cycle(2, {(0, bad): 1})
    with pytest.raises(ValueError):
        Cycle.from_json_dict({"rank": 2, "terms": [{"point": [bad, 0], "coeff": "1/1"}]})


def test_pushforward_at_the_digit_limit():
    half = Cycle(2, {(L // 2, 0): 1, (0, -1): 2})
    for n in (2, -2, 3):
        with pytest.raises(ValueError):
            pushforward(half, n)
    assert pushforward(Cycle.point((L - 1, 1 - L)), -1) == Cycle.point((1 - L, L - 1))
    # a loose height bound decodes instead of raising
    loose = Cycle.point((L // 2, 0)) + Cycle.point(X) - Cycle.point((L // 2, 0))
    assert pushforward(loose, 4) == Cycle.point((4, 0))


def test_pontryagin_at_the_digit_limit():
    wide = RingContext(rank=2, geom_dim=1, support_cap=4 * L)
    edge = Cycle.point((L - 2, 0))
    assert pontryagin(edge, Cycle.point(X), wide) == Cycle.point((L - 1, 0))
    for a, b in [((L - 1, 0), (1, 0)), ((0, 1 - L), (0, -1)), ((L - 1, 5), (L - 1, -5))]:
        with pytest.raises(ValueError):
            pontryagin(Cycle.point(a), Cycle.point(b), wide)
    # below the limit the cap is checked first
    narrow = RingContext(rank=2, geom_dim=1, support_cap=L - 1)
    with pytest.raises(SupportCapExceeded) as info:
        pontryagin(Cycle.point((L - 1, 0)), Cycle.point(X), narrow)
    assert info.value.where == "product" and info.value.point == (L, 0)
    # a product point that cancels still counts
    u = Cycle.point((L - 1, 0)) - Cycle.point((L - 2, 0))
    with pytest.raises(ValueError):
        pontryagin(u, Cycle.point(X) + Cycle.unit(2), wide)


def test_overflow_names_the_first_point_in_c1_major_order():
    # c1 has more terms, so it runs inside; the first product point above
    # the cap is a1 + b2 in c1-major pair order and a2 + b1 in c2-major
    c1 = Cycle(1, {(2,): 1, (-2,): 1, (0,): 1})
    c2 = Cycle(1, {(-2,): 1, (1,): 1})
    with pytest.raises(SupportCapExceeded) as info:
        pontryagin(c1, c2, RingContext(rank=1, geom_dim=1, support_cap=2))
    assert info.value.where == "product" and info.value.point == (3,)
    # the same for a product point outside the digit range
    c1 = Cycle(1, {(L - 1,): 1, (1 - L,): 1, (0,): 1})
    c2 = Cycle(1, {(1 - L,): 1, (1,): 1})
    with pytest.raises(ValueError, match=rf"point \({L},\) has a coordinate"):
        pontryagin(c1, c2, RingContext(rank=1, geom_dim=1, support_cap=4 * L))


COORD = st.one_of(st.sampled_from([0, 1, -1, L - 1, 1 - L]), st.integers(1 - L, L - 1))
NUMER = st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80))
DENOM = st.one_of(st.integers(1, 6), st.integers(2**64, 2**80))


def indented(text, depth):
    return text.replace("\n", "\n" + "  " * depth)


def draw_terms(data, rank, max_size=6):
    """Terms of a rank-``rank`` cycle.  Half of the draws take coordinates,
    numerators and denominators from pools of at most two values, so that
    points share halves and terms share numerators."""
    coord, numer, denom = COORD, NUMER, DENOM
    if data.draw(st.booleans()):
        coord, numer, denom = (st.sampled_from(data.draw(st.lists(s, min_size=1, max_size=2)))
                               for s in (COORD, NUMER, DENOM))
    pairs = data.draw(st.lists(st.tuples(st.tuples(*[coord] * rank), numer, denom), max_size=max_size))
    return [(p, Fraction(n, d)) for p, n, d in pairs]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_write_json_matches_stdlib_layout(data):
    # ranks 0..9: rank 1 has an empty low half, odd ranks unequal halves
    rank = data.draw(st.integers(0, 9))
    terms = draw_terms(data, rank, max_size=8)
    if data.draw(st.booleans()):
        terms += [(p, -c) for p, c in terms]  # the zero cycle
    depth = data.draw(st.integers(0, 4))
    c = Cycle(rank, terms)
    text = _json_text(c.to_json_dict(), "\n" + "  " * depth)
    stdlib = json.dumps(c.to_json_dict(), indent=2, sort_keys=True)
    assert text == indented(stdlib, depth)
    oracle = json.loads(oracle_json(rank, oracle_reduce(terms)))
    assert stdlib == json.dumps(oracle, indent=2, sort_keys=True)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_integer_coefficients_match_fraction_path(data):
    # int-only terms skip Fraction and clear_denominators; the cycle must be
    # the one the same terms give as Fractions, cancelling terms included
    rank = data.draw(st.integers(0, 3))
    points = st.tuples(*[COORD] * rank)
    pairs = data.draw(st.lists(st.tuples(points, NUMER), max_size=6))
    if data.draw(st.booleans()):
        pairs += [(p, -n) for p, n in data.draw(st.permutations(pairs))]
    if pairs and data.draw(st.booleans()):
        pairs.append((pairs[0][0], data.draw(NUMER)))
    by_int = Cycle(rank, pairs)
    by_fraction = Cycle(rank, [(p, Fraction(n)) for p, n in pairs])
    for c in (by_int, by_fraction):
        assert all(type(v) is int for v in c.num.values())
    assert (by_int.den, by_int.num, by_int.hb, by_int._exact) == (
        by_fraction.den, by_fraction.num, by_fraction.hb, by_fraction._exact
    )


def test_write_json_zero_and_rank_zero():
    text = (_json_text(Cycle.zero(2).to_json_dict(), "\n  ")
            + _json_text(Cycle(0, {(): Fraction(-3, 2)}).to_json_dict(), "\n"))
    assert text == (
        '{\n    "rank": 2,\n    "terms": []\n  }'
        '{\n  "rank": 0,\n  "terms": [\n    {\n      "coeff": "-3/2",\n      "point": []\n    }\n  ]\n}'
    )
    # a document holds a cycle as its dict: the cycle itself is not JSON
    with pytest.raises(TypeError):
        cycles.json_text({"cycle": Cycle.zero(2)})


def test_rank_zero_cycles():
    c = Cycle(0, {(): Fraction(3, 2)})
    assert c == Cycle(0, [((), 1), ((), Fraction(1, 2))])
    assert c.coeff(()) == Fraction(3, 2)
    assert c.sorted_items() == [((), Fraction(3, 2))]
    assert Cycle.from_json_dict(json.loads(c.to_json())) == c
    assert c.to_json_dict() == {"rank": 0, "terms": [{"point": [], "coeff": "3/2"}]}
    assert Cycle.unit(0).scale(Fraction(3, 2)) == c
    assert pushforward(c, 5) == c and c.max_height() == 0
    assert (c - c).is_zero() and Cycle.zero(0).max_height() == 0


def test_coeff_of_another_rank_raises():
    c = Cycle(3, {(0, 0, 1): 5})
    assert c.coeff((0, 0, 1)) == 5
    with pytest.raises(ValueError):
        c.coeff((0, 1))
    with pytest.raises(ValueError):
        Cycle(2, {(0, 1): 1}).coeff((0, 0, 1))


def test_certificate_keys_hash_apart():
    # ints hash modulo 2**61 - 1: with a key width that is a multiple of 61,
    # the points of a multiplier would collide in every dict they enter
    from pontcalc.relations import verify_relation

    cert = verify_relation(8, 1)
    assert not cert.nilpotent_part
    # each table on points: n at every point of each orbit (a_1, 0^(7-s), 1^s)
    multipliers = [Cycle(8, [((a_1, *(int(i in ones) for i in range(7))), n)
                             for (a_1, s), n in term.multiplier.orbits.items()
                             for ones in itertools.combinations(range(7), s)]).num
                   for term in cert.generators]
    for keys in multipliers:
        assert len({hash(key) for key in keys}) == len(keys)
    assert sum(map(len, multipliers)) > 1000
