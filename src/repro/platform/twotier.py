"""The Two-Tier delegation system and its performance model (section 5.2).

CDN resolution path: "a1.w10.akamai.net" is served by *lowlevel* unicast
nameservers co-located with the CDN edge; the zone "akamai.net" lives on
13 anycast *toplevel* clouds and delegates "w10.akamai.net" to a
per-resolver-tailored lowlevel set with a long TTL (4000 s), while the
CDN hostnames themselves carry 20 s TTLs. Most refreshes therefore hit
the nearby lowlevels and the toplevels are consulted rarely.

This module provides both the analytic model (Eq. 1 speedup, expected
rT under Poisson demand) and the machinery to build the Two-Tier zones
with a mapping-driven :class:`TailoredDelegationProvider`.
"""

from __future__ import annotations

from ..dnscore.name import Name, name
from ..dnscore.rdata import A, NS, SOA
from ..dnscore.records import RRset, make_rrset
from ..dnscore.rrtypes import RType
from ..dnscore.zone import Zone, make_zone
from ..control.mapping import MapSnapshot, nearest_edges

#: Paper values (section 5.2).
HOSTNAME_TTL = 20
DELEGATION_TTL = 4000
#: Lowlevel nameservers in one tailored delegation.
LOWLEVELS_PER_DELEGATION = 2


def speedup(toplevel_rtt: float, lowlevel_rtt: float, r_t: float) -> float:
    """Equation 1: average-resolution-time speedup of Two-Tier.

    ``S > 1`` means Two-Tier beats answering from the toplevels alone.
    """
    if not 0.0 <= r_t <= 1.0:
        raise ValueError(f"rT must be within [0, 1], got {r_t}")
    if lowlevel_rtt <= 0 or toplevel_rtt <= 0:
        raise ValueError("RTTs must be positive")
    denominator = (1 - r_t) * lowlevel_rtt + r_t * (lowlevel_rtt
                                                    + toplevel_rtt)
    return toplevel_rtt / denominator


def expected_rt(demand_qps: float, hostname_ttl: float = HOSTNAME_TTL,
                delegation_ttl: float = DELEGATION_TTL) -> float:
    """Expected fraction of resolutions that must contact the toplevels.

    Under Poisson end-user demand at ``demand_qps``, the resolver's
    cache-miss (authoritative fetch) rate for a hostname with TTL ``t``
    is ``q / (1 + q t)`` (renewal theory for TTL caches). Each fetch
    needs the toplevels only when the delegation (TTL ``D``) has also
    expired, which happens roughly once per ``D`` seconds of fetching:

        rT ~= 1 / max(1, miss_rate * D)

    Low-demand resolvers therefore see rT -> 1 (both records expired on
    every arrival) while heavy resolvers see rT -> 1/(miss_rate*D) -> 0,
    matching the paper's skew: mean rT 0.48 but query-weighted mean
    0.008.
    """
    if demand_qps < 0:
        raise ValueError("demand must be non-negative")
    if demand_qps == 0:
        return 1.0
    miss_rate = demand_qps / (1.0 + demand_qps * hostname_ttl)
    fetches_per_delegation_period = miss_rate * delegation_ttl
    return 1.0 / max(1.0, fetches_per_delegation_period)


def average_rtt(rtts: list[float]) -> float:
    """Aggregate RTT under uniform delegation selection (best case)."""
    if not rtts:
        raise ValueError("need at least one RTT")
    return sum(rtts) / len(rtts)


def weighted_rtt(rtts: list[float]) -> float:
    """Aggregate RTT when preference is inversely proportional to RTT.

    The paper's worst case for Two-Tier: resolvers that favor their
    fastest delegation blunt the toplevel RTT penalty.
    """
    if not rtts:
        raise ValueError("need at least one RTT")
    weights = [1.0 / max(1e-9, r) for r in rtts]
    total = sum(weights)
    return sum(r * w for r, w in zip(rtts, weights)) / total


class TwoTierNames:
    """The domain names the Two-Tier hierarchy hangs on."""

    apex = name("akamai.net")
    lowlevel_zone = name("w10.akamai.net")

    def hostname(self, index: int = 1) -> Name:
        return name(f"a{index}.w10.akamai.net")


class TailoredDelegationProvider:
    """Mapping-driven lowlevel NS sets, one per querying resolver.

    The lowlevel nameservers are drawn from the mapping snapshot's edge
    inventory: the ``LOWLEVELS_PER_DELEGATION`` nearest alive edges to
    the client. Falls back to a deterministic sample when the client
    cannot be located.
    """

    def __init__(self, snapshot_source, locator) -> None:
        """``snapshot_source`` is a callable returning the current
        :class:`MapSnapshot`; ``locator`` maps client keys to GeoPoints."""
        self._snapshot_source = snapshot_source
        self._locator = locator

    def delegation(self, cut: Name, client_key: str | None
                   ) -> tuple[RRset, list[RRset]] | None:
        snapshot: MapSnapshot | None = self._snapshot_source()
        if snapshot is None:
            return None
        location = self._locator(client_key) if client_key else None
        if location is None:
            alive = [e for e in snapshot.edges if e.alive]
            if not alive:
                return None
            chosen = alive[:LOWLEVELS_PER_DELEGATION]
        else:
            chosen = nearest_edges(snapshot, location,
                                   LOWLEVELS_PER_DELEGATION)
            if not chosen:
                return None
        ns_targets = [self._ns_name(e.address) for e in chosen]
        ns_rrset = make_rrset(cut, RType.NS, DELEGATION_TTL,
                              [NS(t) for t in ns_targets])
        glue = [make_rrset(target, RType.A, DELEGATION_TTL,
                           [A(edge.address)])
                for target, edge in zip(ns_targets, chosen)]
        return ns_rrset, glue

    def _ns_name(self, address: str) -> Name:
        slug = address.replace(".", "-")
        return name(f"n{slug}.{TwoTierNames.lowlevel_zone}")


def build_toplevel_zone(names: TwoTierNames,
                        toplevel_ns: list[tuple[Name, str]],
                        static_lowlevels: list[tuple[Name, str]],
                        serial: int = 1) -> Zone:
    """The "akamai.net" zone served by the anycast toplevels.

    ``toplevel_ns`` and ``static_lowlevels`` are (hostname, address)
    pairs; the static lowlevel set is the fallback delegation when no
    tailoring applies.
    """
    zone = make_zone(
        names.apex,
        SOA(toplevel_ns[0][0], name("hostmaster.akamai.com"), serial,
            7200, 3600, 1209600, 300),
        [hostname for hostname, _ in toplevel_ns],
        ttl=86400)
    for hostname, address in toplevel_ns:
        # Toplevel NS hostnames typically live in a sibling zone
        # (akam.net); only in-zone names may carry address records here.
        if hostname.is_subdomain_of(names.apex):
            zone.add_rrset(make_rrset(hostname, RType.A, 86400,
                                      [A(address)]))
    zone.add_rrset(make_rrset(
        names.lowlevel_zone, RType.NS, DELEGATION_TTL,
        [NS(hostname) for hostname, _ in static_lowlevels]))
    for hostname, address in static_lowlevels:
        zone.add_rrset(make_rrset(hostname, RType.A, DELEGATION_TTL,
                                  [A(address)]))
    return zone


def build_lowlevel_zone(names: TwoTierNames,
                        lowlevel_ns: list[tuple[Name, str]],
                        serial: int = 1) -> Zone:
    """The "w10.akamai.net" zone the lowlevel nameservers serve.

    Hostnames under it are dynamic (answered through the mapping view
    with 20 s TTLs); the zone itself only needs apex records.
    """
    zone = make_zone(
        names.lowlevel_zone,
        SOA(lowlevel_ns[0][0], name("hostmaster.akamai.com"), serial,
            7200, 3600, 1209600, 60),
        [hostname for hostname, _ in lowlevel_ns],
        ttl=DELEGATION_TTL)
    for hostname, address in lowlevel_ns:
        zone.add_rrset(make_rrset(hostname, RType.A, DELEGATION_TTL,
                                  [A(address)]))
    return zone
