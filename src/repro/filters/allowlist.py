"""Allowlist filter (paper section 4.3.4, #2, second stage).

The resolvers that drive most queries to Akamai DNS are highly consistent
over weeks (paper section 2), so a slowly changing allowlist of
historically-known resolvers separates them from the wide, shallow source
sets of botnet attacks. The filter stays dormant until an activation
policy — watching aggregate query rate and source diversity — switches it
on, because penalizing unknown-but-legitimate resolvers is only worth it
while an attack is underway.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .base import QueryContext


PENALTY = 30.0
WINDOW_SECONDS = 10.0    # the sliding window both rates are taken over
DEACTIVATE_QPS = 500.0   # aggregate rate at which the filter stands down


@dataclass(slots=True)
class AllowlistConfig:
    """The activation policy's thresholds."""

    activate_qps: float = 2000.0        # aggregate rate threshold
    activate_unique_sources: int = 500  # source diversity threshold


class ActivationPolicy:
    """Sliding-window monitor deciding when the allowlist engages."""

    def __init__(self, config: AllowlistConfig) -> None:
        self._config = config
        self._arrivals: deque[tuple[float, str]] = deque()
        #: Arrival count per source within the window, maintained
        #: incrementally so source diversity is O(1) per query instead
        #: of a full set comprehension over the window.
        self._source_counts: dict[str, int] = {}
        self.active = False

    def observe(self, now: float, source: str) -> bool:
        """Record an arrival; returns whether the filter is active."""
        config = self._config
        arrivals = self._arrivals
        counts = self._source_counts
        arrivals.append((now, source))
        counts[source] = counts.get(source, 0) + 1
        cutoff = now - WINDOW_SECONDS
        while arrivals and arrivals[0][0] < cutoff:
            _, expired = arrivals.popleft()
            remaining = counts[expired] - 1
            if remaining:
                counts[expired] = remaining
            else:
                del counts[expired]
        qps = len(arrivals) / WINDOW_SECONDS
        if not self.active:
            if qps >= config.activate_qps \
                    and len(counts) >= config.activate_unique_sources:
                self.active = True
        elif qps <= DEACTIVATE_QPS:
            self.active = False
        return self.active


class AllowlistFilter:
    """Penalizes sources not on the historically-known resolver list."""

    name = "allowlist"

    def __init__(self, config: AllowlistConfig | None = None,
                 allowlist: set[str] | None = None) -> None:
        self.config = config or AllowlistConfig()
        self.allowlist: set[str] = set(allowlist or ())
        self.policy = ActivationPolicy(self.config)
        self.penalized = 0

    def add(self, source: str) -> None:
        """Add one resolver to the allowlist (gradual weekly refresh)."""
        self.allowlist.add(source)

    def refresh(self, sources: set[str]) -> None:
        """Replace the allowlist, as the weekly top-resolver job would."""
        self.allowlist = set(sources)

    @property
    def active(self) -> bool:
        return self.policy.active

    def score(self, ctx: QueryContext) -> float:
        active = self.policy.observe(ctx.now, ctx.source)
        if not active:
            return 0.0
        if ctx.source in self.allowlist:
            return 0.0
        self.penalized += 1
        return PENALTY
