"""Tests for the leaky-bucket rate-limit filter."""

from repro.dnscore import RType, name
from repro.filters import (
    QueryContext,
    RateLimitConfig,
    RateLimitFilter,
    ratelimit,
)


def ctx(source: str, now: float) -> QueryContext:
    return QueryContext(source=source, qname=name("ex.com"),
                        qtype=RType.A, now=now)


class TestWarmup:
    def test_no_penalty_during_warmup(self):
        f = RateLimitFilter(RateLimitConfig(warmup_queries=50))
        # Even an absurd burst draws no penalty before history exists.
        assert all(f.score(ctx("r1", i * 1e-4)) == 0.0 for i in range(50))

    def test_priming_skips_warmup(self):
        f = RateLimitFilter(RateLimitConfig(min_limit_qps=1.0,
                                            headroom=2.0,
                                            burst_seconds=1.0))
        f.prime("r1", 1.0)
        # 100 queries in 100 ms blows a 2 qps limit with 2-deep bucket.
        penalties = [f.score(ctx("r1", i * 0.001)) for i in range(100)]
        assert any(p > 0 for p in penalties)


class TestEnforcement:
    def test_within_limit_never_penalized(self):
        f = RateLimitFilter(RateLimitConfig(min_limit_qps=10.0))
        f.prime("calm", 5.0)
        # 1 qps against a >= 10 qps limit.
        for i in range(200):
            assert f.score(ctx("calm", float(i))) == 0.0

    def test_sustained_excess_penalized(self):
        config = RateLimitConfig(min_limit_qps=5.0, headroom=1.0,
                                 burst_seconds=2.0, warmup_queries=5)
        f = RateLimitFilter(config)
        f.prime("hot", 5.0)
        penalties = [f.score(ctx("hot", i * 0.01)) for i in range(400)]
        assert sum(1 for p in penalties if p) > 100

    def test_burst_tolerated_then_drains(self):
        config = RateLimitConfig(min_limit_qps=10.0, headroom=1.0,
                                 burst_seconds=5.0, warmup_queries=0,
                                 learning_alpha=0.0)
        f = RateLimitFilter(config)
        f.prime("bursty", 10.0)
        # A 30-query burst fits in the 50-deep bucket.
        assert all(f.score(ctx("bursty", 100.0 + i * 0.001)) == 0.0
                   for i in range(30))
        # After a long quiet period the bucket drains fully.
        assert f.score(ctx("bursty", 200.0)) == 0.0

    def test_per_source_isolation(self):
        config = RateLimitConfig(min_limit_qps=5.0, headroom=1.0,
                                 burst_seconds=1.0, warmup_queries=0)
        f = RateLimitFilter(config)
        f.prime("attacker", 5.0)
        f.prime("victim", 5.0)
        for i in range(200):
            f.score(ctx("attacker", i * 0.001))
        # The victim's bucket is untouched.
        assert f.score(ctx("victim", 1.0)) == 0.0


class TestLearning:
    def test_learned_rate_tracks_traffic(self):
        f = RateLimitFilter(RateLimitConfig(learning_alpha=0.3,
                                            learning_window=10.0))
        for i in range(1000):
            f.score(ctx("r", i * 0.1))  # 10 qps over 100 s
        assert 2.0 < f.learned_rate("r") < 40.0

    def test_attack_cannot_self_legitimize_quickly(self):
        # 1000 qps burst for 5 s: shorter than the learning window, so
        # the learned rate stays untouched and penalties accrue.
        config = RateLimitConfig(min_limit_qps=10.0, headroom=1.0,
                                 burst_seconds=1.0, warmup_queries=0,
                                 learning_window=60.0)
        f = RateLimitFilter(config)
        f.prime("spoof", 10.0)
        penalties = [f.score(ctx("spoof", i * 0.001)) for i in range(5000)]
        assert sum(1 for p in penalties if p) > 4000
        assert f.learned_rate("spoof") == 10.0

    def test_learned_rate_zero_for_unknown(self):
        f = RateLimitFilter()
        assert f.learned_rate("ghost") == 0.0

    def test_penalized_counter(self):
        config = RateLimitConfig(min_limit_qps=1.0, headroom=1.0,
                                 burst_seconds=0.5, warmup_queries=0)
        f = RateLimitFilter(config)
        f.prime("x", 1.0)
        for i in range(100):
            f.score(ctx("x", i * 0.001))
        assert f.penalized > 0


class TestEgregiousDiscard:
    def test_extreme_flood_scores_past_s_max(self):
        from repro.filters import QueuePolicy
        config = RateLimitConfig(min_limit_qps=1.0, headroom=1.0,
                                 burst_seconds=1.0, warmup_queries=0,
                                 egregious_multiplier=20.0)
        f = RateLimitFilter(config)
        f.prime("flood", 1.0)
        policy = QueuePolicy()
        discarded = 0
        for i in range(5_000):
            penalty = f.score(ctx("flood", i * 0.0005))  # 2,000 qps
            if policy.queue_for(penalty) is None:
                discarded += 1
        # The flood eventually crosses the egregious threshold and is
        # dropped outright rather than merely deprioritized.
        assert discarded > 3_000

    def test_moderate_excess_only_deprioritized(self):
        from repro.filters import QueuePolicy
        config = RateLimitConfig(min_limit_qps=10.0, headroom=1.0,
                                 burst_seconds=1.0, warmup_queries=0,
                                 egregious_multiplier=50.0)
        f = RateLimitFilter(config)
        f.prime("warm", 10.0)
        policy = QueuePolicy()
        for i in range(500):
            penalty = f.score(ctx("warm", i * 0.05))  # 20 qps vs 10
            assert policy.queue_for(penalty) is not None


class TestColdStartEdges:
    """Edge cases the defense ladder's mid-attack insertion hits."""

    def test_unseen_source_gets_min_limit_floor(self):
        # A fresh filter dropped into an attack in progress: an unseen
        # well-behaved source rides the min_limit floor un-penalized
        # once warmup passes.
        config = RateLimitConfig(min_limit_qps=10.0, burst_seconds=1.0,
                                 warmup_queries=0)
        f = RateLimitFilter(config)
        assert all(f.score(ctx("fresh", i * 0.5)) == 0.0
                   for i in range(100))   # 2 qps << 10 qps floor

    def test_unseen_flood_penalized_after_capacity(self):
        config = RateLimitConfig(min_limit_qps=10.0, headroom=4.0,
                                 burst_seconds=5.0, warmup_queries=0)
        f = RateLimitFilter(config)
        # 1000 qps from a source with no history: the first ~50
        # arrivals fit the floor's bucket, the rest are penalized.
        penalties = [f.score(ctx("flood", i * 0.001)) for i in range(200)]
        assert penalties[0] == 0.0
        assert penalties[-1] > 0.0
        assert sum(1 for p in penalties if p) >= 140

    def test_prime_zero_qps_keeps_floor(self):
        config = RateLimitConfig(min_limit_qps=10.0, headroom=4.0,
                                 burst_seconds=1.0, warmup_queries=20)
        f = RateLimitFilter(config)
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
    def test_quiet_period_decays_learned_rate(self):
        # A source that stops talking decays toward zero via the EWMA,
        # window by window, rather than keeping its old entitlement.
        config = RateLimitConfig(min_limit_qps=1.0, headroom=1.0,
                                 burst_seconds=1.0, warmup_queries=0,
                                 learning_window=10.0, learning_alpha=0.5)
        f = RateLimitFilter(config)
        f.prime("fading", 64.0)
        # One query per window: ~0.1 qps observed.
        for i in range(6):
            f.score(ctx("fading", i * 10.0 + 10.0))
        assert f.learned_rate("fading") < 64.0 * 0.5 ** 4

    def test_decayed_source_lands_in_penalty_band_not_discard(self):
        from repro.filters import QueuePolicy
        # After decay, a moderate burst draws the standard penalty —
        # deprioritized into a penalty queue, never discarded outright.
        config = RateLimitConfig(min_limit_qps=1.0, headroom=1.0,
                                 burst_seconds=1.0, warmup_queries=0,
                                 learning_window=10.0, learning_alpha=0.5)
        f = RateLimitFilter(config)
        f.prime("fading", 50.0)
        for i in range(6):
            f.score(ctx("fading", i * 10.0 + 10.0))
        policy = QueuePolicy()
        scores = [f.score(ctx("fading", 70.0 + i * 0.1))
                  for i in range(40)]  # 10 qps vs decayed ~1-2 qps limit
        assert any(s == ratelimit.PENALTY for s in scores)
        for s in scores:
            assert policy.queue_for(s) is not None
