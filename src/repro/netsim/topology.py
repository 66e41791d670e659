"""Network topology: routers, hosts, and typed inter-AS links.

Links carry a business relationship (customer/provider/peer) so the BGP
layer can apply Gao-Rexford export policy, which is what produces
realistic path hunting — and therefore realistic withdrawal convergence
tails — in the failover experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .geo import GeoPoint


def link_key(a: str, b: str) -> tuple[str, str]:
    """Canonical ordered-tuple key for an undirected link.

    Cheaper than hashing a fresh ``frozenset((a, b))`` on every lookup:
    building a two-element tuple and comparing two interned-ish strings
    wins measurably on the per-hop forwarding path.
    """
    return (a, b) if a <= b else (b, a)


class NodeKind(enum.Enum):
    """What a topology node represents."""

    TRANSIT = "transit"      # transit/eyeball AS router
    POP_ROUTER = "pop"       # router fronting an Akamai PoP
    HOST = "host"            # end host (vantage point, resolver, machine)


class LinkRelation(enum.Enum):
    """Business relationship of a link, from a's perspective toward b."""

    CUSTOMER = "customer"    # b is a's customer
    PROVIDER = "provider"    # b is a's provider
    PEER = "peer"            # settlement-free peering
    ACCESS = "access"        # host attachment, no BGP


_INVERSE = {
    LinkRelation.CUSTOMER: LinkRelation.PROVIDER,
    LinkRelation.PROVIDER: LinkRelation.CUSTOMER,
    LinkRelation.PEER: LinkRelation.PEER,
    LinkRelation.ACCESS: LinkRelation.ACCESS,
}


@dataclass(slots=True)
class Node:
    """A router or host in the simulated internetwork."""

    node_id: str
    asn: int
    kind: NodeKind
    location: GeoPoint
    region: str = ""


@dataclass(slots=True)
class Link:
    """An undirected link with one-way latency and a relationship type.

    ``capacity_pps`` bounds the packet rate the link carries (both
    directions combined); None means uncongestible. Volumetric attacks
    saturate links, dropping legitimate and attack packets alike in the
    router queues (paper section 4.3.4, class 1).
    """

    a: str
    b: str
    latency_ms: float
    relation: LinkRelation = LinkRelation.PEER
    capacity_pps: float | None = None


    def relation_from(self, node_id: str) -> LinkRelation:
        """The relationship as seen from ``node_id`` toward the other end."""
        if node_id == self.a:
            return self.relation
        if node_id == self.b:
            return _INVERSE[self.relation]
        raise KeyError(f"{node_id} is not on link {self.a}<->{self.b}")


class Topology:
    """A mutable graph of nodes and links with adjacency indexing."""

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._adjacency: dict[str, list[str]] = {}
        #: node -> the far end of its first access link
        self._attachment: dict[str, str] = {}
        #: Mutation counter so route caches can detect topology growth.
        self.version = 0

    def add_node(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node {node.node_id}")
        self._nodes[node.node_id] = node
        self._adjacency[node.node_id] = []
        self.version += 1

    def add_link(self, link: Link) -> None:
        key = link_key(link.a, link.b)
        if link.a not in self._nodes or link.b not in self._nodes:
            raise KeyError(f"link {link.a}<->{link.b} references unknown node")
        if key in self._links:
            raise ValueError(f"duplicate link {link.a}<->{link.b}")
        if link.a == link.b:
            raise ValueError("self-loops are not allowed")
        self._links[key] = link
        self._adjacency[link.a].append(link.b)
        self._adjacency[link.b].append(link.a)
        if link.relation == LinkRelation.ACCESS:
            self._attachment.setdefault(link.a, link.b)
            self._attachment.setdefault(link.b, link.a)
        self.version += 1

    def connect(self, a: str, b: str,
                relation: LinkRelation = LinkRelation.PEER,
                latency_ms: float | None = None) -> Link:
        """Create a link, deriving latency from node locations if omitted."""
        if latency_ms is None:
            latency_ms = self._nodes[a].location.latency_ms(
                self._nodes[b].location)
        link = Link(a, b, latency_ms, relation)
        self.add_link(link)
        return link

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def link(self, a: str, b: str) -> Link:
        return self._links[link_key(a, b)]

    def neighbors(self, node_id: str) -> list[str]:
        return list(self._adjacency[node_id])

    def bgp_neighbors(self, node_id: str) -> list[str]:
        """Neighbors over non-access links (BGP sessions)."""
        return [n for n in self._adjacency[node_id]
                if self.link(node_id, n).relation != LinkRelation.ACCESS]

    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    def links(self) -> list[Link]:
        return list(self._links.values())

    def routers(self) -> list[Node]:
        return [n for n in self._nodes.values() if n.kind != NodeKind.HOST]

    def attachment_router(self, host_id: str) -> str:
        """The router a host hangs off (its single access-link neighbor)."""
        try:
            return self._attachment[host_id]
        except KeyError:
            raise KeyError(f"host {host_id} has no access link") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)
