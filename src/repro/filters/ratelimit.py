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


PENALTY = 20.0
EGREGIOUS_PENALTY = 10_000.0

HEADROOM = 4.0          # limit = learned_rate * HEADROOM
MIN_LIMIT_QPS = 10.0    # floor so tiny resolvers are not penalized
BURST_SECONDS = 5.0     # bucket capacity = limit * BURST_SECONDS
LEARNING_ALPHA = 0.3    # EWMA weight per learning window
LEARNING_WINDOW = 60.0  # seconds per learning window
#: A source this far past its bucket is not merely bursty — it is
#: definitively malicious; the score alone exceeds ``s_max`` so the
#: query is discarded outright (paper section 4.3.3).
EGREGIOUS_MULTIPLIER = 50.0


class RateLimitFilter:
    """Leaky-bucket limiter keyed by resolver source address.

    A source with no history starts on the ``MIN_LIMIT_QPS`` floor with
    an empty bucket, so its first ``MIN_LIMIT_QPS * BURST_SECONDS``
    arrivals draw no penalty however fast they come.
    """

    name = "ratelimit"

    def __init__(self) -> None:
        self._buckets: dict[str, _Bucket] = {}
        self.penalized = 0

    def prime(self, source: str, typical_qps: float) -> None:
        """Seed the learned rate from offline history (the paper's
        'historically-observed query rates').

        Negative history is clamped to zero: a primed-at-zero source
        still gets the ``MIN_LIMIT_QPS`` floor, it is never penalized
        for merely existing.
        """
        bucket = self._buckets.setdefault(source, _Bucket())
        bucket.learned_rate = max(0.0, typical_qps)

    def learned_rate(self, source: str) -> float:
        bucket = self._buckets.get(source)
        return bucket.learned_rate if bucket else 0.0

    def score(self, ctx: QueryContext) -> float:
        bucket = self._buckets.get(ctx.source)
        if bucket is None:
            bucket = self._buckets[ctx.source] = _Bucket(
                window_start=ctx.now)
        limit = max(MIN_LIMIT_QPS, bucket.learned_rate * HEADROOM)
        capacity = limit * BURST_SECONDS

        # Drain since last update, then add this query.
        elapsed = max(0.0, ctx.now - bucket.last_update)
        bucket.level = max(0.0, bucket.level - elapsed * limit) + 1.0
        bucket.last_update = ctx.now

        # Learn from completed windows only: "historical data" adapts on
        # the order of minutes, so an attack cannot legitimize its own
        # rate before the bucket has penalized it.
        if ctx.now - bucket.window_start >= LEARNING_WINDOW:
            window_rate = bucket.window_count / max(
                1e-9, ctx.now - bucket.window_start)
            bucket.learned_rate = ((1 - LEARNING_ALPHA) * bucket.learned_rate
                                   + LEARNING_ALPHA * window_rate)
            bucket.window_start = ctx.now
            bucket.window_count = 0
        bucket.window_count += 1

        if bucket.level > capacity * EGREGIOUS_MULTIPLIER:
            self.penalized += 1
            return EGREGIOUS_PENALTY
        if bucket.level > capacity:
            self.penalized += 1
            return PENALTY
        return 0.0
