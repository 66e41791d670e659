"""``Network._dijkstra``, which never pushes a node with one live link,
against the algorithm that pushes every node (``dijkstra_reference.py``).

Drawn topologies mix routers of several degrees with single-homed stub
routers and hosts (the leaves), on awkward latencies so float addition
order shows, and then cut or degrade drawn links: a leaf whose access
link is down is unreachable, and a router left with one live link
becomes a leaf. From every source the two must give equal distances,
as bit-equal floats, first reached in the same order.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim import (
    EventLoop,
    GeoPoint,
    LinkRelation,
    Network,
    Node,
    NodeKind,
    Topology,
)
from repro.netsim.topology import Link

from .dijkstra_reference import reference_dijkstra


@st.composite
def worlds(draw):
    """A built ``Network`` whose link state was changed after its view
    was first read, and its node ids."""
    latency = st.sampled_from((0.3, 1.1, 2.7, 5.3, 11.9)).flatmap(
        lambda base: st.integers(0, 9).map(lambda k: base + k / 7.0))
    n_routers = draw(st.integers(1, 8))
    topology = Topology()
    for i in range(n_routers):
        topology.add_node(Node(f"r{i}", 100 + i, NodeKind.TRANSIT,
                               GeoPoint(0, i)))
    for b in range(1, n_routers):
        ends = {draw(st.integers(0, b - 1))}
        ends |= draw(st.sets(st.integers(0, b - 1), max_size=2))
        for a in sorted(ends):
            topology.add_link(Link(f"r{a}", f"r{b}", draw(latency),
                                   LinkRelation.PEER))
    n_stubs = draw(st.integers(0, 3))
    for i in range(n_stubs):
        stub = f"s{i}"
        topology.add_node(Node(stub, 200 + i, NodeKind.TRANSIT,
                               GeoPoint(2, i)))
        topology.add_link(Link(f"r{draw(st.integers(0, n_routers - 1))}",
                               stub, draw(latency), LinkRelation.CUSTOMER))
    attach = [f"r{i}" for i in range(n_routers)] + \
        [f"s{i}" for i in range(n_stubs)]
    for i in range(draw(st.integers(1, 5))):
        host = f"h{i}"
        topology.add_node(Node(host, 900, NodeKind.HOST, GeoPoint(1, i)))
        topology.add_link(Link(host, draw(st.sampled_from(attach)),
                               draw(latency), LinkRelation.ACCESS))
    net = Network(EventLoop(), topology, None)
    links = [(link.a, link.b) for link in topology.links()]
    for a, b in draw(st.lists(st.sampled_from(links), max_size=4)):
        if draw(st.booleans()):
            net.set_link_up(a, b, not net.link_is_up(a, b))
        else:
            net.set_link_degraded(
                a, b, loss=draw(st.sampled_from((0.0, 0.5))),
                extra_latency_ms=draw(st.sampled_from((0.0, 3.3, 40.1))))
    return net, [node.node_id for node in topology.nodes()]


@given(worlds())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_distances_and_their_order_match_the_reference(world):
    net, nodes = world
    for src in nodes:
        got = net._dijkstra(net._view(), src)
        want = reference_dijkstra(net, net._view(), src)
        assert list(got.items()) == list(want.items())


def test_a_leaf_behind_a_down_access_link_is_unreachable():
    topology = Topology()
    for node_id, kind in (("r0", NodeKind.TRANSIT), ("r1", NodeKind.TRANSIT),
                          ("h0", NodeKind.HOST), ("h1", NodeKind.HOST)):
        topology.add_node(Node(node_id, 1, kind, GeoPoint(0, 0)))
    topology.add_link(Link("r0", "r1", 1.1, LinkRelation.PEER))
    topology.add_link(Link("h0", "r0", 0.3, LinkRelation.ACCESS))
    topology.add_link(Link("h1", "r1", 0.3, LinkRelation.ACCESS))
    net = Network(EventLoop(), topology, None)
    net.set_link_up("h1", "r1", False)
    got = net._dijkstra(net._view(), "h0")
    assert list(got.items()) == list(
        reference_dijkstra(net, net._view(), "h0").items())
    assert set(got) == {"h0", "r0", "r1"}
