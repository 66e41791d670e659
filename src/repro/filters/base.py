"""Query scoring framework (paper section 4.3.3).

Every query passes through a sequence of filters; each filter inspects the
query's parameters and may add a penalty score. The total score measures
how suspicious the query is: score 0 flows into the lowest-penalty queue,
larger scores into higher-penalty queues, and scores at or above ``s_max``
are discarded outright as definitively malicious.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..dnscore.name import Name
from ..dnscore.rrtypes import RType
from ..telemetry import state as _telemetry


@dataclass(slots=True)
class QueryContext:
    """Everything a filter may inspect about one arriving query."""

    source: str              # resolver source address
    qname: Name
    qtype: RType
    now: float               # arrival time (simulation seconds)
    ip_ttl: int = 64         # IP TTL observed on the arriving packet


class Filter(Protocol):
    """One stage of the scoring pipeline."""

    name: str

    def score(self, ctx: QueryContext) -> float:
        """Penalty contributed by this filter for ``ctx`` (0 = clean)."""


@dataclass(slots=True)
class ScoreBreakdown:
    """Total penalty plus the per-filter contributions, for observability."""

    total: float
    contributions: dict[str, float]


class ScoringPipeline:
    """Runs a query through every filter and sums penalties.

    Filters that also need to *observe* traffic (to learn rates, TTLs,
    loyalty) do that inside their ``score`` implementations — scoring and
    learning happen on the same pass, as in the production design where
    historical state is updated continuously.
    """

    def __init__(self, filters: list[Filter] | None = None) -> None:
        self.filters: list[Filter] = list(filters or [])
        self.scored = 0

    def add(self, filter_: Filter) -> None:
        self.filters.append(filter_)

    #: Shared zero-penalty result for clean queries; treated as
    #: read-only by every consumer (the machine only reads ``total``).
    _CLEAN = ScoreBreakdown(0.0, {})

    def score(self, ctx: QueryContext) -> ScoreBreakdown:
        """Total penalty and per-filter breakdown for one query."""
        self.scored += 1
        contributions: dict[str, float] | None = None
        total = 0.0
        for filter_ in self.filters:
            penalty = filter_.score(ctx)
            if penalty:
                if contributions is None:
                    contributions = {}
                contributions[filter_.name] = penalty
                total += penalty
        _telemetry.record("filter_penalty_score", value=total)
        if contributions is None:
            # Clean query: skip the per-query dict/breakdown allocation
            # (the dominant cost under flood load, where nearly every
            # query scores zero until a filter tree is built).
            return self._CLEAN
        for filter_name in contributions:
            _telemetry.record("filter_penalties_total", filter_name)
        return ScoreBreakdown(total, contributions)
