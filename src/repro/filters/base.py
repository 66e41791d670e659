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

    def score(self, ctx: QueryContext) -> float:
        """Total penalty for one query: the sum over the filters. The
        ``filter_penalty_score`` row samples it, and each filter that
        added a penalty counts a ``filter_penalties_total`` row."""
        self.scored += 1
        total = 0.0
        penalized = ()
        for filter_ in self.filters:
            penalty = filter_.score(ctx)
            if penalty:
                total += penalty
                penalized += (filter_.name,)
        _telemetry.record("filter_penalty_score", value=total)
        for filter_name in penalized:
            _telemetry.record("filter_penalties_total", (filter_name,))
        return total
