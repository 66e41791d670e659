"""Anycast cloud management over the BGP substrate.

An anycast cloud (paper section 3.1) is one prefix advertised from a set
of PoPs. This module drives origination/withdrawal per PoP and computes
catchments — which PoP currently serves each node — by walking converged
FIBs, which the traffic-engineering and failover experiments both use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bgp import LOCAL
from .network import Network
from .packet import Datagram


@dataclass(slots=True)
class AnycastCloud:
    """One anycast prefix and the PoP routers advertising it."""

    prefix: str
    network: Network
    advertising: set[str] = field(default_factory=set)

    def advertise(self, pop_router_id: str, med: int = 0) -> None:
        """Start advertising the cloud's prefix from a PoP router."""
        self.advertising.add(pop_router_id)
        self.network.speaker(pop_router_id).originate(self.prefix, med)

    def withdraw(self, pop_router_id: str) -> None:
        """Withdraw the prefix from a PoP router."""
        self.advertising.discard(pop_router_id)
        self.network.speaker(pop_router_id).withdraw_origin(self.prefix)

    def catchment_of(self, node_id: str, max_hops: int = 64) -> str | None:
        """The PoP a packet from ``node_id`` reaches right now, if any.

        Walks FIB next-hops without advancing time. Returns None when the
        walk finds no route or loops (tables not yet converged).
        """
        topology = self.network.topology
        current = node_id
        if topology.node(node_id).kind.value == "host":
            current = topology.attachment_router(node_id)
        seen = set()
        for _ in range(max_hops):
            if current in seen:
                return None
            seen.add(current)
            next_hop = self.network.fib_entry(current, self.prefix)
            if next_hop == LOCAL:
                return current
            if next_hop is None:
                return None
            current = next_hop
        return None

    def catchments(self, node_ids: list[str]) -> dict[str, str | None]:
        """Catchment PoP for each node in ``node_ids``."""
        return {n: self.catchment_of(n) for n in node_ids}


def measure_catchments(network: Network, hosts: list[str], prefix: str,
                       *, window: float = 5.0) -> dict[str, str | None]:
    """Data-plane catchment measurement (Verfploeter-style, paper [16]).

    Instead of walking FIBs, actively probe: every host sends one packet
    to the anycast prefix and each advertising PoP's delivery handler is
    wrapped to record who answered. Unlike :meth:`AnycastCloud.
    catchment_of`, this sees exactly what production traffic would see —
    including in-flight convergence — at the cost of simulated time.
    """
    results: dict[str, str | None] = {host: None for host in hosts}
    originals: dict[tuple[str, str], object] = {}

    def wrap(pop_id: str, handler):
        def wrapped(dgram):
            payload = dgram.payload
            if (isinstance(payload, tuple) and len(payload) == 2
                    and payload[0] == "catchment-probe"):
                results[payload[1]] = pop_id
                return
            handler(dgram)
        return wrapped

    delivery = network._local_delivery
    for (router_id, pfx), handler in list(delivery.items()):
        if pfx == prefix:
            originals[(router_id, pfx)] = handler
            delivery[(router_id, pfx)] = wrap(router_id, handler)
    try:
        for host in hosts:
            network.send(Datagram(src=host, dst=prefix,
                                  payload=("catchment-probe", host)))
        network.loop.run_until(network.loop.now + window)
    finally:
        delivery.update(originals)
    return results
