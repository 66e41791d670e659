"""Hop-count filter against spoofed-source attacks (paper section 4.3.4, #4).

An attacker who spoofs an allowlisted resolver's address almost certainly
sits in a different topological location, so the spoofed packets arrive
with a different IP TTL than the real resolver's. The filter learns the
expected TTL per source from historical traffic — the paper observes only
12% of sources show any TTL variation within an hour and 4.7% ever vary
by more than +-1 — and penalizes divergence beyond a small tolerance.

Learning is *validated* (the approach of hop-count filtering, the
paper's [22]): only TTLs consistent with the current expectation update
the history, so attack packets cannot poison the table. Genuine route
changes — where the source's TTL really moves — are tracked by a
long consecutive-streak rule: if every one of the last
``RELEARN_STREAK`` observations carries the same new TTL (no interleaved
legitimate traffic at the old value), the expectation switches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import QueryContext


@dataclass(slots=True)
class _TTLHistory:
    """Validated TTL expectation for one source."""

    expected: int | None = None
    total: int = 0
    candidate: int | None = None
    candidate_streak: int = 0


PENALTY = 25.0
TOLERANCE = 1   # |observed - expected| beyond this penalizes
MIN_OBSERVATIONS = 10   # history needed before enforcing
RELEARN_STREAK = 200    # consecutive new-TTL packets to switch


class HopCountFilter:
    """Penalizes queries whose IP TTL diverges from the learned value."""

    name = "hopcount"

    def __init__(self) -> None:
        self._history: dict[str, _TTLHistory] = {}
        self.penalized = 0
        self.relearned = 0

    def prime(self, source: str, ttl: int, weight: int = 100) -> None:
        """Seed the expectation from offline (pre-attack) data."""
        history = self._history.setdefault(source, _TTLHistory())
        history.expected = ttl
        history.total += weight

    def expected_ttl(self, source: str) -> int | None:
        history = self._history.get(source)
        return history.expected if history else None

    def score(self, ctx: QueryContext) -> float:
        history = self._history.get(ctx.source)
        if history is None:
            history = self._history[ctx.source] = _TTLHistory()
        if history.expected is None:
            history.expected = ctx.ip_ttl
            history.total += 1
            return 0.0
        matches = abs(ctx.ip_ttl - history.expected) <= TOLERANCE
        if matches:
            # Validated observation: reinforce and clear any candidate.
            history.total += 1
            history.candidate = None
            history.candidate_streak = 0
            return 0.0
        # Divergent TTL: track a possible route change, penalize if the
        # history is deep enough to trust.
        if history.candidate == ctx.ip_ttl:
            history.candidate_streak += 1
        else:
            history.candidate = ctx.ip_ttl
            history.candidate_streak = 1
        if history.candidate_streak >= RELEARN_STREAK:
            history.expected = ctx.ip_ttl
            history.candidate = None
            history.candidate_streak = 0
            history.total = max(history.total, MIN_OBSERVATIONS)
            self.relearned += 1
            return 0.0
        if history.total < MIN_OBSERVATIONS:
            return 0.0
        self.penalized += 1
        return PENALTY
