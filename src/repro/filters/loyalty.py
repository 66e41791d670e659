"""Loyalty filter against fully spoofed attacks (paper section 4.3.4, #5).

Anycast routes each resolver to one PoP, so a given nameserver only ever
hears from the resolvers in its catchment. Each nameserver independently
tracks who historically queries *it*; a query claiming to be from an
allowlisted resolver that this nameserver has never served implies the
packet was routed differently than the real resolver — i.e. spoofed from
elsewhere — even if source address and IP TTL were both forged correctly.

Loyalty is earned, not granted on first contact: a source must have been
querying this nameserver for at least ``MATURITY_SECONDS`` before it
counts as loyal, so an attack cannot prime the filter with its own
packets.
"""

from __future__ import annotations

from .base import QueryContext


PENALTY = 25.0

MEMORY_SECONDS = 7 * 86400.0   # loyalty expires if silent this long
MATURITY_SECONDS = 3600.0      # history span required to be loyal
MIN_HISTORY_SOURCES = 10       # don't enforce on a cold server


class LoyaltyFilter:
    """Per-nameserver resolver history; penalizes unfamiliar senders."""

    name = "loyalty"

    def __init__(self) -> None:
        #: source -> (first seen, last seen) at this nameserver
        self._seen: dict[str, tuple[float, float]] = {}
        self.penalized = 0

    def prime(self, source: str, when: float = 0.0) -> None:
        """Seed mature history (resolver known from before the simulation)."""
        self._seen[source] = (when - MATURITY_SECONDS, when)

    def is_loyal(self, source: str, now: float) -> bool:
        span = self._seen.get(source)
        if span is None:
            return False
        first, last = span
        return (now - first >= MATURITY_SECONDS
                and now - last <= MEMORY_SECONDS)

    def known_sources(self) -> int:
        return len(self._seen)

    def score(self, ctx: QueryContext) -> float:
        loyal = self.is_loyal(ctx.source, ctx.now)
        enforce = len(self._seen) >= MIN_HISTORY_SOURCES
        first, _ = self._seen.get(ctx.source, (ctx.now, ctx.now))
        self._seen[ctx.source] = (first, ctx.now)
        if loyal or not enforce:
            return 0.0
        self.penalized += 1
        return PENALTY
