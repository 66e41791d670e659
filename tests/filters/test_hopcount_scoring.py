"""Tests for the hop-count filter, the scoring pipeline, and queue policy."""

import pytest

from repro.dnscore import RType, name
from repro.filters import (
    HopCountFilter,
    QueryContext,
    QueuePolicy,
    ScoringPipeline,
)


def ctx(source="r1", now=0.0, ip_ttl=58):
    return QueryContext(source=source, qname=name("ex.com"),
                        qtype=RType.A, now=now, ip_ttl=ip_ttl)


class TestHopCount:
    def test_no_enforcement_without_history(self):
        f = HopCountFilter()
        assert f.score(ctx(ip_ttl=10)) == 0.0

    def test_enforces_once_ten_observations_deep(self):
        f = HopCountFilter()
        for i in range(9):
            f.score(ctx(now=float(i), ip_ttl=58))
        assert f.score(ctx(now=9.0, ip_ttl=44)) == 0.0
        f.score(ctx(now=10.0, ip_ttl=58))
        assert f.score(ctx(now=11.0, ip_ttl=44)) > 0

    def test_consistent_ttl_never_penalized(self):
        f = HopCountFilter()
        for i in range(50):
            assert f.score(ctx(now=float(i), ip_ttl=58)) == 0.0

    def test_tolerance_allows_small_jitter(self):
        f = HopCountFilter()
        f.prime("r1", 58)
        assert f.score(ctx(ip_ttl=57)) == 0.0
        assert f.score(ctx(ip_ttl=59)) == 0.0

    def test_spoofed_ttl_penalized(self):
        f = HopCountFilter()
        f.prime("r1", 58)
        assert f.score(ctx(ip_ttl=44)) > 0
        assert f.penalized == 1

    def test_first_observation_sets_expectation(self):
        f = HopCountFilter()
        f.score(ctx(ip_ttl=51))
        assert f.expected_ttl("r1") == 51

    def test_route_change_relearned_after_streak(self):
        # A genuine route change is a *clean* switch: every packet now
        # carries the new TTL, so the 200-packet streak rule relearns it.
        f = HopCountFilter()
        f.prime("r1", 58)
        for i in range(199):
            f.score(ctx(now=float(i), ip_ttl=61))
        assert f.expected_ttl("r1") == 58
        f.score(ctx(now=199.0, ip_ttl=61))
        assert f.expected_ttl("r1") == 61
        assert f.relearned == 1
        assert f.score(ctx(now=300.0, ip_ttl=61)) == 0.0

    def test_attack_cannot_poison_history(self):
        # Interleaved legitimate traffic at the true TTL keeps breaking
        # the attacker's streak, so the expectation never flips.
        f = HopCountFilter()
        f.prime("r1", 58)
        for i in range(1_510):
            # 150 attack packets for every legitimate one.
            ttl = 41 if i % 151 else 58
            f.score(ctx(now=float(i), ip_ttl=ttl))
        assert f.expected_ttl("r1") == 58
        assert f.penalized == 1_500


class TestPipeline:
    def test_sums_contributions(self):
        class Fixed:
            def __init__(self, name_, value):
                self.name = name_
                self.value = value

            def score(self, _ctx):
                return self.value

        pipeline = ScoringPipeline([Fixed("a", 5.0), Fixed("b", 0.0),
                                    Fixed("c", 7.0)])
        breakdown = pipeline.score(ctx())
        assert breakdown.total == 12.0
        assert breakdown.contributions == {"a": 5.0, "c": 7.0}
        assert pipeline.scored == 1

    def test_empty_pipeline_scores_zero(self):
        assert ScoringPipeline([]).score(ctx()).total == 0.0


class TestQueuePolicy:
    def test_zero_score_lowest_queue(self):
        policy = QueuePolicy()
        assert policy.queue_for(0.0) == 0

    def test_band_assignment(self):
        policy = QueuePolicy(max_scores=(0.0, 10.0, 50.0), s_max=100.0)
        assert policy.queue_for(5.0) == 1
        assert policy.queue_for(10.0) == 1
        assert policy.queue_for(11.0) == 2
        assert policy.queue_for(75.0) == 2  # above all bounds, below s_max

    def test_s_max_discards(self):
        policy = QueuePolicy(max_scores=(0.0, 10.0), s_max=50.0)
        assert policy.queue_for(50.0) is None
        assert policy.queue_for(500.0) is None

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            QueuePolicy(max_scores=())
        with pytest.raises(ValueError):
            QueuePolicy(max_scores=(10.0, 5.0))
