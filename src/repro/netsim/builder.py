"""Synthetic Internet topology generator.

Builds a three-tier AS graph (tier-1 clique, regional tier-2 transits,
eyeball/stub ASes) with valley-free relationships and geo-derived link
latencies, then attaches Akamai-style PoP routers (paper section 3.1):
eyeball PoPs single-homed inside an access network, and IXP PoPs
multi-homed to many peers. Vantage-point and resolver hosts hang off stub
ASes. Every random choice draws from the caller's seeded RNG, so topology
generation is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .geo import GeoModel, GeoPoint
from .topology import LinkRelation, Node, NodeKind, Topology

AKAMAI_ASN = 20940


#: Providers a tier-2 or stub AS buys transit from, drawn uniformly.
MIN_PROVIDERS, MAX_PROVIDERS = 1, 3
#: Chance two tier-2s peer, before the same-region weighting.
TIER2_PEER_PROBABILITY = 0.12


@dataclass(slots=True)
class InternetParams:
    """How many ASes of each tier the synthetic Internet has."""

    n_tier1: int = 8
    n_tier2: int = 40
    n_stub: int = 160


@dataclass(slots=True)
class Internet:
    """The generated graph plus the id lists experiments need."""

    topology: Topology
    geo: GeoModel
    tier1: list[str] = field(default_factory=list)
    tier2: list[str] = field(default_factory=list)
    stubs: list[str] = field(default_factory=list)
    pops: list[str] = field(default_factory=list)
    hosts: list[str] = field(default_factory=list)
    next_asn: int = 64512

    def allocate_asn(self) -> int:
        asn = self.next_asn
        self.next_asn += 1
        return asn


def build_internet(rng: random.Random,
                   params: InternetParams | None = None) -> Internet:
    """Generate the AS-level graph. PoPs and hosts are attached separately."""
    params = params or InternetParams()
    topology = Topology()
    geo = GeoModel(rng)
    internet = Internet(topology=topology, geo=geo)

    # Tier-1: a full mesh of peers, located in the most-populous regions.
    for i in range(params.n_tier1):
        region = geo.pick_region()
        node_id = f"t1-{i}"
        topology.add_node(Node(node_id, internet.allocate_asn(),
                               NodeKind.TRANSIT,
                               geo.point_in_region(region), region))
        internet.tier1.append(node_id)
    for i, a in enumerate(internet.tier1):
        for b in internet.tier1[i + 1:]:
            topology.connect(a, b, LinkRelation.PEER)

    # Tier-2: regional transits, customers of 1-3 tier-1s (nearest ones
    # preferred), with some same-region lateral peering.
    for i in range(params.n_tier2):
        region, point = geo.random_point()
        node_id = f"t2-{i}"
        topology.add_node(Node(node_id, internet.allocate_asn(),
                               NodeKind.TRANSIT, point, region))
        internet.tier2.append(node_id)
        providers = _nearest(topology, point, internet.tier1,
                             rng.randint(MIN_PROVIDERS, MAX_PROVIDERS), rng)
        for provider in providers:
            topology.connect(provider, node_id, LinkRelation.CUSTOMER)
    for i, a in enumerate(internet.tier2):
        for b in internet.tier2[i + 1:]:
            same_region = topology.node(a).region == topology.node(b).region
            p = TIER2_PEER_PROBABILITY * (3.0 if same_region else 0.5)
            if rng.random() < min(1.0, p):
                topology.connect(a, b, LinkRelation.PEER)

    # Stubs: eyeball/enterprise ASes, customers of nearby tier-2s.
    for i in range(params.n_stub):
        region, point = geo.random_point()
        node_id = f"stub-{i}"
        topology.add_node(Node(node_id, internet.allocate_asn(),
                               NodeKind.TRANSIT, point, region))
        internet.stubs.append(node_id)
        providers = _nearest(topology, point, internet.tier2,
                             rng.randint(MIN_PROVIDERS, MAX_PROVIDERS), rng)
        for provider in providers:
            topology.connect(provider, node_id, LinkRelation.CUSTOMER)

    return internet


def _nearest(topology: Topology, point: GeoPoint, candidates: list[str],
             count: int, rng: random.Random) -> list[str]:
    """Pick ``count`` candidates biased toward geographic proximity."""
    ranked = sorted(candidates,
                    key=lambda n: topology.node(n).location.distance_km(point))
    pool = ranked[:max(count * 3, 4)]
    rng.shuffle(pool)
    return pool[:count]


def attach_pop(internet: Internet, rng: random.Random, *,
               pop_id: str | None = None,
               ixp_probability: float = 0.35) -> str:
    """Attach one PoP router to the Internet.

    With probability ``ixp_probability`` the PoP models an IXP deployment
    (customer of one transit, peer of several others); otherwise it models
    an eyeball deployment (customer of a single stub network).
    """
    topology = internet.topology
    if pop_id is None:
        pop_id = f"pop-{len(internet.pops)}"
    region, point = internet.geo.random_point()
    topology.add_node(Node(pop_id, AKAMAI_ASN, NodeKind.POP_ROUTER,
                           point, region))
    internet.pops.append(pop_id)
    if rng.random() < ixp_probability:
        transit = _nearest(topology, point, internet.tier2, 1, rng)[0]
        topology.connect(transit, pop_id, LinkRelation.CUSTOMER)
        peer_count = rng.randint(2, 6)
        peers = _nearest(topology, point,
                         [s for s in internet.stubs + internet.tier2
                          if s != transit],
                         peer_count, rng)
        for peer in peers:
            topology.connect(pop_id, peer, LinkRelation.PEER)
    else:
        eyeball = _nearest(topology, point, internet.stubs, 1, rng)[0]
        topology.connect(eyeball, pop_id, LinkRelation.CUSTOMER)
    return pop_id


def attach_host(internet: Internet, rng: random.Random, *,
                host_id: str | None = None,
                attach_to: str | None = None,
                location: GeoPoint | None = None,
                region: str = "") -> str:
    """Attach a host (vantage point, resolver, machine) to a stub AS."""
    topology = internet.topology
    if host_id is None:
        host_id = f"host-{len(internet.hosts)}"
    if attach_to is None:
        attach_to = rng.choice(internet.stubs)
    anchor = topology.node(attach_to)
    if location is None:
        location = internet.geo.point_in_region(anchor.region or "europe", 4.0)
        region = anchor.region
    topology.add_node(Node(host_id, anchor.asn, NodeKind.HOST,
                           location, region or anchor.region))
    topology.connect(attach_to, host_id, LinkRelation.ACCESS,
                     latency_ms=max(0.5, rng.gauss(4.0, 2.0)))
    internet.hosts.append(host_id)
    return host_id
