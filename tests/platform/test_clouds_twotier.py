"""Tests for cloud inventory, delegation assignment, and Two-Tier math."""

import pytest

from repro.platform import (
    DELEGATION_SET_SIZE,
    DelegationAssigner,
    TOTAL_CLOUDS,
    all_clouds,
    average_rtt,
    expected_rt,
    speedup,
    weighted_rtt,
)
from repro.platform.clouds import AnycastCloudSpec


class TestCloudInventory:
    def test_24_clouds(self):
        clouds = all_clouds()
        assert len(clouds) == TOTAL_CLOUDS
        assert len({c.prefix for c in clouds}) == TOTAL_CLOUDS
        assert len({str(c.ns_hostname) for c in clouds}) == TOTAL_CLOUDS

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AnycastCloudSpec.build(24)


class TestDelegationAssigner:
    def test_set_size(self):
        assigner = DelegationAssigner()
        assert len(assigner.assign("e1")) == DELEGATION_SET_SIZE

    def test_stable_assignment(self):
        assigner = DelegationAssigner()
        assert assigner.assign("e1") == assigner.assign("e1")

    def test_uniqueness(self):
        assigner = DelegationAssigner()
        seen = set()
        for i in range(500):
            combo = tuple(c.index for c in assigner.assign(f"e{i}"))
            assert combo not in seen
            seen.add(combo)

    def test_every_pair_differs(self):
        assigner = DelegationAssigner()
        sets = [frozenset(c.index for c in assigner.assign(f"e{i}"))
                for i in range(100)]
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                assert a != b

    def test_early_assignments_spread_clouds(self):
        assigner = DelegationAssigner()
        used = set()
        for i in range(8):
            used.update(c.index for c in assigner.assign(f"e{i}"))
        assert len(used) >= 18  # not clustered lexicographically

    def test_reduced_universe(self):
        assigner = DelegationAssigner(total=8, set_size=4)
        assert assigner.capacity == 70
        combos = {tuple(c.index for c in assigner.assign(f"e{i}"))
                  for i in range(70)}
        assert len(combos) == 70
        with pytest.raises(RuntimeError):
            assigner.assign("one-too-many")

    def test_set_size_bound(self):
        with pytest.raises(ValueError):
            DelegationAssigner(total=3, set_size=4)


class TestSpeedupModel:
    def test_equation_1(self):
        # T=100, L=10, rT=0: S = 100/10 = 10.
        assert speedup(100.0, 10.0, 0.0) == pytest.approx(10.0)
        # rT=1: S = T/(L+T).
        assert speedup(100.0, 10.0, 1.0) == pytest.approx(100.0 / 110.0)

    def test_break_even(self):
        # S=1 when (1-rT)L + rT(L+T) = T.
        t, l = 50.0, 20.0
        r = (t - l) / t
        assert speedup(t, l, r) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            speedup(10.0, 5.0, 1.5)
        with pytest.raises(ValueError):
            speedup(0.0, 5.0, 0.5)

    def test_two_tier_wins_when_lowlevel_near(self):
        assert speedup(80.0, 8.0, 0.1) > 1.0

    def test_two_tier_loses_when_toplevel_always_needed(self):
        assert speedup(30.0, 25.0, 0.9) < 1.0


class TestExpectedRT:
    def test_zero_demand_always_toplevel(self):
        assert expected_rt(0.0) == 1.0

    def test_tiny_demand_near_one(self):
        assert expected_rt(1e-5) == 1.0

    def test_busy_resolver_near_zero(self):
        assert expected_rt(10.0) < 0.01

    def test_monotone_decreasing(self):
        rates = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]
        values = [expected_rt(q) for q in rates]
        assert values == sorted(values, reverse=True)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expected_rt(-1.0)


class TestRTTAggregation:
    def test_average(self):
        assert average_rtt([10.0, 20.0, 30.0]) == pytest.approx(20.0)

    def test_weighted_prefers_low(self):
        rtts = [10.0, 100.0]
        assert weighted_rtt(rtts) < average_rtt(rtts)

    def test_weighted_equal_rtts(self):
        assert weighted_rtt([42.0, 42.0]) == pytest.approx(42.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_rtt([])
        with pytest.raises(ValueError):
            weighted_rtt([])
