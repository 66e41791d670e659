"""Per-resolver rate limiting with learned limits (paper section 4.3.4, #2).

The filter learns each resolver's "typical" query rate from historically
observed traffic and enforces a leaky-bucket limit with headroom above it.
DNS traffic is bursty (paper Figure 3), which is exactly why a leaky
bucket — rather than a hard per-second cap — is used: short bursts from a
legitimate resolver drain without penalty, while a sustained excess fills
the bucket and draws penalties.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import QueryContext


@dataclass(slots=True)
class _Bucket:
    """Leaky-bucket state for one resolver."""

    level: float = 0.0
    last_update: float = 0.0
    learned_rate: float = 0.0     # EWMA of per-window arrival rate, qps
    window_start: float = 0.0
    window_count: int = 0
    observed: int = 0


PENALTY = 20.0
EGREGIOUS_PENALTY = 10_000.0


@dataclass(slots=True)
class RateLimitConfig:
    """Tunables for the rate-limit filter."""

    headroom: float = 4.0          # limit = learned_rate * headroom
    min_limit_qps: float = 10.0    # floor so tiny resolvers are not penalized
    burst_seconds: float = 5.0     # bucket capacity = limit * burst_seconds
    learning_alpha: float = 0.3    # EWMA weight per learning window
    learning_window: float = 60.0  # seconds per learning window
    #: A source this far past its bucket is not merely bursty — it is
    #: definitively malicious; the score alone exceeds ``s_max`` so the
    #: query is discarded outright (paper section 4.3.3).
    egregious_multiplier: float = 50.0
    warmup_queries: int = 20       # arrivals before the limit is enforced


class RateLimitFilter:
    """Leaky-bucket limiter keyed by resolver source address."""

    name = "ratelimit"

    def __init__(self, config: RateLimitConfig | None = None) -> None:
        self.config = config or RateLimitConfig()
        self._buckets: dict[str, _Bucket] = {}
        self.penalized = 0

    def prime(self, source: str, typical_qps: float) -> None:
        """Seed the learned rate from offline history (the paper's
        'historically-observed query rates').

        Negative history is clamped to zero: a primed-at-zero source
        still gets the ``min_limit_qps`` floor, it is never penalized
        for merely existing.
        """
        bucket = self._buckets.setdefault(source, _Bucket())
        bucket.learned_rate = max(0.0, typical_qps)
        bucket.observed = self.config.warmup_queries

    def learned_rate(self, source: str) -> float:
        bucket = self._buckets.get(source)
        return bucket.learned_rate if bucket else 0.0

    def _limit_for(self, bucket: _Bucket) -> float:
        return max(self.config.min_limit_qps,
                   bucket.learned_rate * self.config.headroom)

    def score(self, ctx: QueryContext) -> float:
        config = self.config
        bucket = self._buckets.get(ctx.source)
        if bucket is None:
            bucket = self._buckets[ctx.source] = _Bucket()
        limit = self._limit_for(bucket)
        capacity = limit * config.burst_seconds

        # Drain since last update, then add this query.
        elapsed = max(0.0, ctx.now - bucket.last_update)
        bucket.level = max(0.0, bucket.level - elapsed * limit) + 1.0
        bucket.last_update = ctx.now

        # Learn from completed windows only: "historical data" adapts on
        # the order of minutes, so an attack cannot legitimize its own
        # rate before the bucket has penalized it.
        if bucket.observed == 0:
            bucket.window_start = ctx.now
        if ctx.now - bucket.window_start >= config.learning_window:
            window_rate = bucket.window_count / max(
                1e-9, ctx.now - bucket.window_start)
            alpha = config.learning_alpha
            bucket.learned_rate = ((1 - alpha) * bucket.learned_rate
                                   + alpha * window_rate)
            bucket.window_start = ctx.now
            bucket.window_count = 0
        bucket.window_count += 1
        bucket.observed += 1

        if bucket.observed <= config.warmup_queries:
            return 0.0
        if bucket.level > capacity * config.egregious_multiplier:
            self.penalized += 1
            return EGREGIOUS_PENALTY
        if bucket.level > capacity:
            self.penalized += 1
            return PENALTY
        return 0.0
