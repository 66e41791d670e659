"""A point of presence: router, machines, ECMP, and origination logic.

The PoP router advertises an anycast cloud upstream while at least one
resident machine advertises it over its BGP session (paper Figure 6).
Arriving packets are spread across the advertising machines by ECMP hash
of (source address, source port, destination address, destination port):
resolvers using random ephemeral ports spread across machines, while a
resolver with a fixed source port always lands on the same machine
(paper section 3.1). Among advertising machines, only those with the
lowest MED are in the ECMP set — the mechanism that keeps input-delayed
machines idle until every regular machine has withdrawn.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

from ..dnscore.message import Message
from ..netsim.clock import EventLoop
from ..netsim.network import Network
from ..netsim.packet import Datagram
from ..telemetry import state as _telemetry
from .machine import NameserverMachine, QueryEnvelope

#: One-way latency from PoP router to a machine's NIC, seconds.
INTRA_POP_LATENCY_S = 0.0002


@dataclass(slots=True)
class ResponseEnvelope:
    """A response message plus which machine answered (the gray-failure
    prober attributes evidence by it). The transport carries the
    ``Message`` itself, never its wire encoding."""

    message: Message
    machine_id: str


def send_reply(network: Network, address: str, machine: NameserverMachine,
               query_dgram: Datagram, response: Message) -> None:
    """Send ``machine``'s ``response`` from ``address`` back to the
    querier, ports swapped, as a ``Message``: nothing is encoded or
    truncated on the way."""
    network.send(Datagram(
        src=address, dst=query_dgram.src,
        payload=ResponseEnvelope(response, machine.machine_id),
        src_port=query_dgram.dst_port, dst_port=query_dgram.src_port))


def ecmp_hash(flow_key: tuple[str, int, str, int]) -> int:
    """Deterministic ECMP hash over the flow 4-tuple."""
    return zlib.crc32(("%s|%s|%s|%s" % flow_key).encode("ascii"))


class PoP:
    """One PoP's router-side state and machine fleet.

    ``ingress_capacity_pps`` models the PoP's aggregate peering
    bandwidth in packets/sec: volumetric attacks (paper section
    4.3.4, #1) saturate it, dropping legitimate and attack packets
    alike in the router queues. Non-DNS junk that *does* get through is
    filtered at the machine firewall for free — the paper notes compute
    for firewall filtering exceeds available bandwidth, so volumetric
    attacks are bandwidth-, never compute-, limited.
    """

    def __init__(self, loop: EventLoop, network: Network,
                 router_id: str, *,
                 ingress_capacity_pps: float | None = None) -> None:
        self.loop = loop
        self.network = network
        self.router_id = router_id
        self.machines: dict[str, NameserverMachine] = {}
        #: prefix -> machine_id -> MED
        self._adverts: dict[str, dict[str, int]] = {}
        #: prefix -> ordered ECMP set (lowest-MED advertisers)
        self._ecmp: dict[str, list[str]] = {}
        self.queries_forwarded = 0
        self.ingress_capacity_pps = ingress_capacity_pps
        self.dropped_ingress = 0
        self.junk_filtered = 0
        self._ingress_tokens = (ingress_capacity_pps or 0.0) * 0.05
        self._ingress_last = 0.0

    # -- fleet -----------------------------------------------------------------

    def add_machine(self, machine: NameserverMachine) -> None:
        if machine.machine_id in self.machines:
            raise ValueError(f"duplicate machine {machine.machine_id}")
        self.machines[machine.machine_id] = machine
        machine.respond = partial(send_reply, self.network, self.router_id,
                                  machine)

    # -- machine BGP sessions -----------------------------------------------------

    def machine_advertise(self, machine_id: str, prefix: str,
                          med: int) -> None:
        """A machine's speaker advertised ``prefix`` to the router."""
        advertisers = self._adverts.setdefault(prefix, {})
        newly_originated = not advertisers
        advertisers[machine_id] = med
        self._recompute_ecmp(prefix)
        if newly_originated:
            self.network.register_local_delivery(self.router_id, prefix,
                                                 self._deliver)
            self.network.speaker(self.router_id).originate(prefix)

    def machine_withdraw(self, machine_id: str, prefix: str) -> None:
        """A machine's speaker withdrew ``prefix``."""
        advertisers = self._adverts.get(prefix)
        if advertisers is None or machine_id not in advertisers:
            return
        del advertisers[machine_id]
        self._recompute_ecmp(prefix)
        if not advertisers:
            del self._adverts[prefix]
            self.network.speaker(self.router_id).withdraw_origin(prefix)

    def _recompute_ecmp(self, prefix: str) -> None:
        advertisers = self._adverts.get(prefix, {})
        if not advertisers:
            self._ecmp.pop(prefix, None)
            return
        best_med = min(advertisers.values())
        self._ecmp[prefix] = sorted(m for m, med in advertisers.items()
                                    if med == best_med)

    def ecmp_set(self, prefix: str) -> list[str]:
        """The machines currently receiving traffic for ``prefix``."""
        return list(self._ecmp.get(prefix, ()))

    def advertises(self, prefix: str) -> bool:
        return bool(self._adverts.get(prefix))

    # -- data plane ----------------------------------------------------------------

    def _ingress_admit(self) -> bool:
        """Token bucket over the PoP's aggregate peering bandwidth; asked
        only when ``ingress_capacity_pps`` is set."""
        elapsed = self.loop.now - self._ingress_last
        self._ingress_last = self.loop.now
        cap = self.ingress_capacity_pps * 0.05
        self._ingress_tokens = min(
            cap, self._ingress_tokens + elapsed * self.ingress_capacity_pps)
        if self._ingress_tokens >= 1.0:
            self._ingress_tokens -= 1.0
            return True
        return False

    def _deliver(self, dgram: Datagram) -> None:
        """Router handed us a packet for an anycast prefix we originate."""
        if self.ingress_capacity_pps is not None \
                and not self._ingress_admit():
            self.dropped_ingress += 1
            return
        if dgram.dst_port != 53 \
                or not isinstance(dgram.payload, QueryEnvelope):
            # Firewall rules drop anything not destined to port 53 and
            # reflection traffic recognizable by the QR bit — at line
            # rate, before it reaches the nameserver software.
            self.junk_filtered += 1
            return
        ecmp = self._ecmp.get(dgram.dst)
        if not ecmp:
            return
        # ecmp_hash of the flow 4-tuple, its key text built in place.
        machine_id = ecmp[zlib.crc32(
            f"{dgram.src}|{dgram.src_port}|{dgram.dst}|{dgram.dst_port}"
            .encode("ascii")) % len(ecmp)]
        machine = self.machines[machine_id]
        self.queries_forwarded += 1
        span = dgram.payload.trace
        if span is not None:
            _telemetry.instant(span, "pop.ecmp", "pop", self.loop.now,
                               pop=self.router_id, machine=machine_id)
        self.loop.call_later(INTRA_POP_LATENCY_S,
                             machine.receive_query, dgram)
