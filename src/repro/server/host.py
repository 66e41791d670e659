"""Unicast nameserver deployment: a machine answering at a host address.

Used for the Two-Tier *lowlevels* — nameservers co-located with CDN edge
deployments, including co-location sites where eBGP route injection is
impossible and anycast therefore unusable (paper section 5.2) — and for
the simulated root/TLD servers the resolver hierarchy needs.
"""

from __future__ import annotations

from functools import partial

from ..netsim.clock import EventLoop
from ..netsim.network import Network
from ..netsim.packet import Datagram
from .machine import NameserverMachine, QueryEnvelope
from .pop import send_reply


class HostNameserver:
    """Endpoint adapter binding a nameserver machine to a host node."""

    def __init__(self, loop: EventLoop, network: Network, host_id: str,
                 machine: NameserverMachine) -> None:
        self.loop = loop
        self.network = network
        self.host_id = host_id
        self.machine = machine
        machine.respond = partial(send_reply, network, host_id, machine)
        network.attach_endpoint(host_id, self)

    def handle_datagram(self, dgram: Datagram) -> None:
        """A query datagram arrived at this host address."""
        if isinstance(dgram.payload, QueryEnvelope):
            self.machine.receive_query(dgram)
