"""Tests for the leaky-bucket rate-limit filter, at the platform's
operating point: limit = max(10 qps, 4 x learned rate), a bucket five
seconds of limit deep, 60 s learning windows weighted 0.3, discard at
fifty buckets."""

import pytest

from repro.dnscore import RType, name
from repro.filters import QueryContext, QueuePolicy, RateLimitFilter, ratelimit


def ctx(source: str, now: float) -> QueryContext:
    return QueryContext(source=source, qname=name("ex.com"),
                        qtype=RType.A, now=now)


class TestPriming:
    def test_priming_sets_the_limit_with_headroom(self):
        f = RateLimitFilter()
        f.prime("r1", 100.0)
        # 400 qps limit, 2,000-deep bucket: a 2,000-query burst in 2 ms
        # fits, the queries after it do not.
        penalties = [f.score(ctx("r1", i * 1e-6)) for i in range(2_100)]
        assert not any(penalties[:2_000])
        assert penalties[-1] == ratelimit.PENALTY


class TestEnforcement:
    def test_within_limit_never_penalized(self):
        f = RateLimitFilter()
        f.prime("calm", 5.0)
        # 1 qps against a 20 qps limit.
        for i in range(200):
            assert f.score(ctx("calm", float(i))) == 0.0

    def test_sustained_excess_penalized(self):
        f = RateLimitFilter()
        f.prime("hot", 5.0)
        # 100 qps against 20: the 100-deep bucket fills in ~125 queries.
        penalties = [f.score(ctx("hot", i * 0.01)) for i in range(400)]
        assert sum(1 for p in penalties if p) > 100

    def test_burst_tolerated_then_drains(self):
        f = RateLimitFilter()
        f.prime("bursty", 10.0)
        # A 150-query burst fits in the 200-deep bucket.
        assert all(f.score(ctx("bursty", 1.0 + i * 0.001)) == 0.0
                   for i in range(150))
        # After a quiet period the bucket has drained fully.
        assert f.score(ctx("bursty", 50.0)) == 0.0
        assert f._buckets["bursty"].level == 1.0

    def test_per_source_isolation(self):
        f = RateLimitFilter()
        f.prime("attacker", 5.0)
        f.prime("victim", 5.0)
        for i in range(200):
            f.score(ctx("attacker", i * 0.001))
        assert f.penalized > 0
        # The victim's bucket is untouched.
        assert f.score(ctx("victim", 1.0)) == 0.0


class TestLearning:
    def test_learned_rate_tracks_traffic(self):
        f = RateLimitFilter()
        for i in range(610):
            f.score(ctx("r", i * 0.1))  # 10 qps for 61 s
        # One 60 s window has closed: 0.3 of the 10 qps it saw.
        assert f.learned_rate("r") == pytest.approx(3.0, rel=0.01)

    def test_attack_cannot_self_legitimize_quickly(self):
        # 1000 qps burst for 5 s: shorter than the learning window, so
        # the learned rate stays untouched and penalties accrue.
        f = RateLimitFilter()
        f.prime("spoof", 10.0)
        penalties = [f.score(ctx("spoof", i * 0.001)) for i in range(5000)]
        assert sum(1 for p in penalties if p) > 4000
        assert f.learned_rate("spoof") == 10.0

    def test_learned_rate_zero_for_unknown(self):
        f = RateLimitFilter()
        assert f.learned_rate("ghost") == 0.0

    def test_penalized_counter(self):
        f = RateLimitFilter()
        f.prime("x", 1.0)
        for i in range(100):
            f.score(ctx("x", i * 0.001))
        assert f.penalized == 50


class TestEgregiousDiscard:
    def test_extreme_flood_scores_past_s_max(self):
        f = RateLimitFilter()
        f.prime("flood", 1.0)
        policy = QueuePolicy()
        discarded = []
        for i in range(10_000):
            penalty = f.score(ctx("flood", i * 0.0005))  # 2,000 qps
            if policy.queue_for(penalty) is None:
                discarded.append(i)
        # Fifty 50-deep buckets on, the flood is dropped outright rather
        # than merely deprioritized.
        assert 2_500 <= discarded[0] < 2_600
        assert len(discarded) > 7_000

    def test_moderate_excess_only_deprioritized(self):
        f = RateLimitFilter()
        f.prime("warm", 10.0)
        policy = QueuePolicy()
        scores = [f.score(ctx("warm", i * 0.0125))   # 80 qps vs 40
                  for i in range(1_000)]
        assert ratelimit.PENALTY in scores
        assert all(policy.queue_for(s) is not None for s in scores)


class TestColdStartEdges:
    """Edge cases the defense ladder's mid-attack insertion hits."""

    def test_unseen_source_gets_min_limit_floor(self):
        # A fresh filter dropped into an attack in progress: an unseen
        # well-behaved source rides the 10 qps floor un-penalized.
        f = RateLimitFilter()
        assert all(f.score(ctx("fresh", i * 0.5)) == 0.0
                   for i in range(100))   # 2 qps

    def test_unseen_flood_penalized_after_capacity(self):
        f = RateLimitFilter()
        # 1000 qps from a source with no history: the first 50 arrivals
        # fit the floor's bucket however fast they come, the rest are
        # penalized.
        penalties = [f.score(ctx("flood", i * 0.001)) for i in range(200)]
        assert not any(penalties[:50])
        assert all(penalties[52:])

    def test_prime_zero_qps_keeps_floor(self):
        f = RateLimitFilter()
        f.prime("idle", 0.0)
        assert f.learned_rate("idle") == 0.0
        # Primed-at-zero still gets the floor: 2 qps is never penalized.
        assert all(f.score(ctx("idle", i * 0.5)) == 0.0
                   for i in range(40))

    def test_prime_negative_qps_clamped(self):
        f = RateLimitFilter()
        f.prime("weird", -25.0)
        assert f.learned_rate("weird") == 0.0
        assert f.score(ctx("weird", 0.0)) == 0.0


class TestLearnedRateDecayVsBands:
    @staticmethod
    def faded(rate: float) -> RateLimitFilter:
        """A source primed at ``rate`` that then sends one query a
        minute for six minutes."""
        f = RateLimitFilter()
        f.prime("fading", rate)
        for i in range(6):
            f.score(ctx("fading", i * 60.0 + 60.0))
        return f

    def test_quiet_period_decays_learned_rate(self):
        # A source that stops talking decays toward zero via the EWMA,
        # window by window, rather than keeping its old entitlement.
        learned = self.faded(64.0).learned_rate("fading")
        assert 64.0 * 0.7 ** 6 < learned < 64.0 * 0.7 ** 5

    def test_decayed_source_lands_in_penalty_band_not_discard(self):
        # After decay (50 qps -> ~6, a 23.5 qps limit), a burst the old
        # entitlement covered draws the standard penalty: deprioritized
        # into a penalty queue, never discarded outright.
        f = self.faded(50.0)
        policy = QueuePolicy()
        scores = [f.score(ctx("fading", 370.0 + i * 0.01))
                  for i in range(400)]   # 100 qps
        assert ratelimit.PENALTY in scores
        assert all(policy.queue_for(s) is not None for s in scores)
