"""Threshold formulas, recurrences, and inverse lookups."""

import pytest

from pontcalc.bounds import (
    conjectured_gonality_threshold,
    descent_thresholds,
    induction_closed_form,
    induction_sequence,
    max_proven_gonality,
    thresholds,
)


def test_small_tables():
    t2 = thresholds(2)
    assert t2.g_gonality == 3
    assert t2.g_orbit_all == 12
    assert t2.g_orbit_weierstrass == 3
    assert t2.g_orbit_countable == 3
    t3 = thresholds(3)
    assert t3.g_gonality == 11
    assert t3.g_orbit_countable == 5


def test_rejects_small_k():
    with pytest.raises(ValueError):
        thresholds(1)
    with pytest.raises(ValueError):
        induction_sequence(0)
    with pytest.raises(ValueError):
        induction_closed_form(2, -1)
    with pytest.raises(ValueError):
        conjectured_gonality_threshold(1)


def test_induction_sequence():
    assert induction_sequence(3)[:2] == [5, 11]
    assert induction_sequence(2) == [3 * 2**l for l in range(3)]
    for k in range(2, 21):
        seq = induction_sequence(k)
        assert len(seq) == k + 1
        for l, val in enumerate(seq):
            assert val == induction_closed_form(k, l)


def test_recurrence_matches_closed_form_beyond_k():
    for k in range(2, 21):
        val = 2 * k - 1
        for l in range(31):
            assert val == induction_closed_form(k, l)
            val = 2 * val + (k - 2)


def test_table_endpoints_match_induction():
    for k in range(2, 12):
        t = thresholds(k)
        assert t.induction_G[0] == t.g_orbit_countable
        assert t.induction_G[k] == t.g_orbit_all
        assert t.g_orbit_weierstrass == t.g_gonality


def test_monotonicity_in_k():
    prev = thresholds(3)
    for k in range(4, 31):
        cur = thresholds(k)
        assert cur.g_gonality > prev.g_gonality
        assert cur.g_orbit_all > prev.g_orbit_all
        assert cur.g_orbit_countable > prev.g_orbit_countable
        prev = cur


def test_descent_thresholds():
    assert descent_thresholds(3, 2) == (5, 4)
    for k in range(1, 21):
        assert descent_thresholds(k + 1, k) == (2 * k + 1, 2 * k)
    with pytest.raises(ValueError):
        descent_thresholds(0, 1)


def test_max_proven_gonality():
    assert max_proven_gonality(3) == 2
    assert max_proven_gonality(10) == 2
    assert max_proven_gonality(11) == 3
    assert max_proven_gonality(1) == 1
    assert max_proven_gonality(2) == 1
    for k in range(2, 31):
        assert max_proven_gonality(thresholds(k).g_gonality) == k
        assert max_proven_gonality(thresholds(k).g_gonality - 1) == k - 1


def test_conjecture_is_separate_from_proven():
    for k in range(2, 12):
        assert conjectured_gonality_threshold(k) == 2 * k - 1
        # the proven bound is much larger for k >= 3
        if k >= 3:
            assert thresholds(k).g_gonality > conjectured_gonality_threshold(k)
