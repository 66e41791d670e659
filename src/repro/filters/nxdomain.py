"""NXDOMAIN filter against random-subdomain attacks (paper section 4.3.4, #3).

Random-subdomain attacks pass *through* legitimate resolvers, so
per-source filters cannot separate attack from legitimate queries. This
filter exploits the attack's signature instead: the random hostnames do
not exist. It tracks NXDOMAIN responses per zone; when a zone's count
exceeds a threshold, it builds a tree of all valid hostnames in that zone
and penalizes queries that will miss the tree — identifying
NXDOMAIN-bound queries before they consume full processing. The tree is
the zone's exact :class:`~repro.dnscore.zone.NxdomainIndex`, the same
object the engine's negative lane answers from: a name that exists, is
synthesizable from a wildcard, or falls at or below a delegation cut
(where the correct answer is a referral) is never penalized.

Building trees only for zones above the threshold (rather than one global
tree) keeps the structure small and update contention low, the trade-off
paper section 4.3.4 describes; the ablation benchmark quantifies it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..dnscore.message import Message
from ..dnscore.name import Name
from ..dnscore.rrtypes import RCode
from ..dnscore.zone import NxdomainIndex, Zone
from .base import QueryContext


PENALTY = 40.0


@dataclass(slots=True)
class NXDomainConfig:
    """When a zone's tree is built, and over what."""

    trigger_count: int = 100        # NXDOMAINs in window before tree build
    window_seconds: float = 30.0
    global_tree: bool = False       # ablation: one tree over all zones


class NXDomainFilter:
    """Tracks NXDOMAIN responses per zone and penalizes tree misses."""

    name = "nxdomain"

    def __init__(self, zone_provider, config: NXDomainConfig | None = None
                 ) -> None:
        """``zone_provider`` maps a query name to its Zone (the ZoneStore)."""
        self.config = config or NXDomainConfig()
        self._zone_provider = zone_provider
        self._nxd_counts: dict[Name, deque[float]] = {}
        self._trees: dict[Name, NxdomainIndex] = {}
        self.penalized = 0
        self.trees_built = 0

    # -- learning ------------------------------------------------------------

    def observe_response(self, query: Message, response: Message,
                         now: float) -> None:
        """Count an NXDOMAIN response against its zone; build trees on
        threshold crossing."""
        if response.flags.rcode != RCode.NXDOMAIN:
            return
        try:
            qname = query.question.qname
        except Exception:
            return
        zone = self._zone_provider.find(qname)
        if zone is None:
            return
        stamps = self._nxd_counts.get(zone.origin)
        if stamps is None:
            stamps = self._nxd_counts[zone.origin] = deque()
        stamps.append(now)
        cutoff = now - self.config.window_seconds
        while stamps[0] < cutoff:
            stamps.popleft()
        if (len(stamps) >= self.config.trigger_count
                and zone.origin not in self._trees):
            self._build_tree(zone)

    def _build_tree(self, zone: Zone) -> None:
        # Ablation mode: building any tree triggers building all.
        zones = (self._zone_provider.zones() if self.config.global_tree
                 else [zone])
        for zone in zones:
            if zone.origin not in self._trees:
                self._trees[zone.origin] = zone.derived(NxdomainIndex)
                self.trees_built += 1

    def tree_for(self, origin: Name) -> NxdomainIndex | None:
        return self._trees.get(origin)

    def invalidate(self, origin: Name) -> None:
        """Drop a zone's tree (zone content changed)."""
        self._trees.pop(origin, None)

    # -- scoring --------------------------------------------------------------

    def score(self, ctx: QueryContext) -> float:
        trees = self._trees
        if not trees:
            # Armed but idle (no zone has crossed the flood threshold):
            # nothing can score, so skip the per-query zone lookup.
            return 0.0
        zone = self._zone_provider.find(ctx.qname)
        if zone is None:
            return 0.0
        tree = trees.get(zone.origin)
        if tree is None:
            return 0.0
        if not tree.is_nxdomain(ctx.qname.labels):
            return 0.0
        self.penalized += 1
        return PENALTY
