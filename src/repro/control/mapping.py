"""Mapping Intelligence: tailored answers for CDN and GTM names.

The mapping system (paper section 3.2, [11, 36]) decides which edge
servers an end-user should reach; Akamai DNS merely *delivers* that
answer. We model the split faithfully:

* :class:`MappingIntelligence` owns ground truth — edge server pools with
  locations, liveness, and load, plus GTM properties with weighted
  datacenters — and publishes versioned snapshots on the near-real-time
  multicast channel whenever conditions change.
* :class:`MappingView` is one nameserver's possibly-stale copy of the
  latest snapshot; the authoritative engine consults it per query,
  choosing edges proximal to the querying client (source address or ECS
  subnet). Serving from a stale view is exactly the failure mode the
  staleness checks of section 4.2.2 bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from ..dnscore.name import Name
from ..dnscore.rdata import A
from ..dnscore.records import RRset, make_rrset
from ..dnscore.rrtypes import RType
from ..netsim.clock import EventLoop
from ..netsim.geo import GeoPoint
from .pubsub import MULTICAST_CHANNEL, MetadataBus, MetadataMessage

#: TTL of mapped CDN answers (paper section 5.2: "currently 20 seconds").
CDN_ANSWER_TTL = 20
#: Edge addresses in one mapped answer.
ANSWER_COUNT = 2


@dataclass(frozen=True, slots=True)
class EdgeServer:
    """One CDN edge (or GTM datacenter endpoint)."""

    address: str
    location: GeoPoint
    alive: bool = True
    load: float = 0.0      # 0..1; loaded servers are deprioritized


@dataclass(frozen=True, slots=True)
class GTMProperty:
    """A GTM load-balanced hostname: weighted candidate datacenters."""

    hostname: Name
    datacenters: tuple[EdgeServer, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.datacenters) != len(self.weights):
            raise ValueError("datacenters and weights must align")


@dataclass(frozen=True, slots=True)
class MapSnapshot:
    """A versioned, immutable view of mapping state."""

    version: int
    edges: tuple[EdgeServer, ...]
    gtm: dict[Name, GTMProperty] = field(default_factory=dict)


Locator = Callable[[str], GeoPoint | None]


class MappingIntelligence:
    """Ground truth and publisher of mapping snapshots."""

    def __init__(self, loop: EventLoop, bus: MetadataBus) -> None:
        self.loop = loop
        self.bus = bus
        self._edges: dict[str, EdgeServer] = {}
        self._gtm: dict[Name, GTMProperty] = {}
        self._version = 0

    def add_edge(self, edge: EdgeServer) -> None:
        self._edges[edge.address] = edge

    def add_gtm_property(self, prop: GTMProperty) -> None:
        self._gtm[prop.hostname] = prop

    def set_edge_alive(self, address: str, alive: bool) -> None:
        """Liveness change: triggers an immediate snapshot publish."""
        edge = self._edges[address]
        if edge.alive != alive:
            self._edges[address] = replace(edge, alive=alive)
            self.publish()

    def set_edge_load(self, address: str, load: float) -> None:
        self._edges[address] = replace(self._edges[address], load=load)

    def set_gtm_datacenter_alive(self, hostname: Name, address: str,
                                 alive: bool) -> None:
        """Flip one GTM datacenter's liveness; publishes on change."""
        prop = self._gtm[hostname]
        changed = False
        datacenters = []
        for dc in prop.datacenters:
            if dc.address == address and dc.alive != alive:
                datacenters.append(replace(dc, alive=alive))
                changed = True
            else:
                datacenters.append(dc)
        if changed:
            self._gtm[hostname] = replace(prop,
                                          datacenters=tuple(datacenters))
            self.publish()

    def snapshot(self) -> MapSnapshot:
        self._version += 1
        return MapSnapshot(self._version, tuple(self._edges.values()),
                           dict(self._gtm))

    def publish(self) -> MapSnapshot:
        """Publish the current state on the multicast channel."""
        snapshot = self.snapshot()
        self.bus.publish(MULTICAST_CHANNEL, "mapping", "global", snapshot)
        return snapshot


class MappingView:
    """One nameserver's local copy of the latest mapping snapshot.

    Implements the engine's ``MappingProvider`` protocol. ``dynamic
    domains`` whose names end with the configured CDN suffix get
    proximity answers; GTM hostnames get weighted-liveness answers.
    """

    def __init__(self, locator: Locator, rng: random.Random) -> None:
        self.locator = locator
        self.rng = rng
        self.snapshot: MapSnapshot | None = None

    def apply(self, message: MetadataMessage) -> None:
        """Metadata handler: install a newer snapshot (ignore stale ones)."""
        snapshot = message.payload
        assert isinstance(snapshot, MapSnapshot)
        if self.snapshot is None or snapshot.version > self.snapshot.version:
            self.snapshot = snapshot

    # -- MappingProvider -------------------------------------------------------

    def answer(self, qname: Name, qtype: RType,
               client_key: str | None) -> RRset | None:
        if self.snapshot is None or qtype != RType.A:
            return None
        gtm_prop = self.snapshot.gtm.get(qname)
        if gtm_prop is not None:
            return self._gtm_answer(qname, gtm_prop)
        return self._cdn_answer(qname, client_key)

    def _cdn_answer(self, qname: Name, client_key: str | None) -> RRset | None:
        assert self.snapshot is not None
        alive = [e for e in self.snapshot.edges if e.alive]
        if not alive:
            return None
        location = self.locator(client_key) if client_key else None
        if location is not None:
            alive.sort(key=lambda e: (e.location.distance_km(location)
                                      * (1.0 + e.load)))
        chosen = alive[:ANSWER_COUNT]
        return make_rrset(qname, RType.A, CDN_ANSWER_TTL,
                          [A(e.address) for e in chosen])

    def _gtm_answer(self, qname: Name, prop: GTMProperty) -> RRset | None:
        candidates = [(dc, w) for dc, w in zip(prop.datacenters, prop.weights)
                      if dc.alive and w > 0]
        if not candidates:
            return None
        datacenters, weights = zip(*candidates)
        chosen = self.rng.choices(datacenters, weights=weights, k=1)[0]
        return make_rrset(qname, RType.A, CDN_ANSWER_TTL, [A(chosen.address)])


def nearest_edges(snapshot: MapSnapshot, location: GeoPoint,
                  count: int) -> list[EdgeServer]:
    """The ``count`` nearest alive edges to ``location``."""
    alive = [e for e in snapshot.edges if e.alive]
    alive.sort(key=lambda e: e.location.distance_km(location))
    return alive[:count]
