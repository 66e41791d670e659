"""Discrete-event network simulation substrate.

Provides the event loop, geo latency model, AS-level topology generation,
path-vector BGP with Gao-Rexford policy and MRAI, hop-by-hop anycast
forwarding with IP TTL semantics, and anycast cloud/catchment management.
"""

from .anycast import AnycastCloud, measure_catchments
from .bgp import LOCAL, BGPSpeaker, Route
from .builder import (
    AKAMAI_ASN,
    Internet,
    InternetParams,
    attach_host,
    attach_pop,
    build_internet,
)
from .clock import EventHandle, EventLoop, PeriodicTask
from .geo import GeoModel, GeoPoint
from .network import Endpoint, Network, NetworkStats
from .packet import DEFAULT_IP_TTL, Datagram
from .topology import Link, LinkRelation, Node, NodeKind, Topology

__all__ = [
    "AKAMAI_ASN", "AnycastCloud", "BGPSpeaker", "Datagram",
    "DEFAULT_IP_TTL", "Endpoint", "EventHandle", "EventLoop", "GeoModel",
    "GeoPoint", "Internet", "InternetParams", "LOCAL", "Link",
    "LinkRelation", "Network", "NetworkStats", "Node", "NodeKind",
    "PeriodicTask", "Route", "Topology", "attach_host", "attach_pop",
    "build_internet", "measure_catchments",
]
