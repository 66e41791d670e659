"""Unicast nameserver deployment: a machine answering at a host address.

Used for the Two-Tier *lowlevels* — nameservers co-located with CDN edge
deployments, including co-location sites where eBGP route injection is
impossible and anycast therefore unusable (paper section 5.2) — and for
the simulated root/TLD servers the resolver hierarchy needs.
"""

from __future__ import annotations

from ..dnscore.message import Message
from ..netsim.clock import EventLoop
from ..netsim.network import Network
from ..netsim.packet import Datagram
from .machine import NameserverMachine, QueryEnvelope
from .pop import ResponseEnvelope, encode_response


class HostNameserver:
    """Endpoint adapter binding a nameserver machine to a host node."""

    def __init__(self, loop: EventLoop, network: Network, host_id: str,
                 machine: NameserverMachine) -> None:
        self.loop = loop
        self.network = network
        self.host_id = host_id
        self.machine = machine
        machine.respond = self._respond
        network.attach_endpoint(host_id, self)

    def handle_datagram(self, dgram: Datagram) -> None:
        """A query datagram arrived at this host address."""
        if isinstance(dgram.payload, QueryEnvelope):
            self.machine.receive_query(dgram)

    def _respond(self, query_dgram: Datagram, response: Message) -> None:
        wire = encode_response(self.machine, query_dgram.payload, response)
        envelope = ResponseEnvelope(
            response, machine_id=self.machine.machine_id, wire=wire)
        reply = Datagram(src=self.host_id, dst=query_dgram.src,
                         payload=envelope, src_port=query_dgram.dst_port,
                         dst_port=query_dgram.src_port)
        self.network.send(reply)
