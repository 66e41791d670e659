"""Link failure semantics: session teardown, withdrawal, degradation."""

import random

import pytest
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
from repro.netsim.network import _LinkView
from repro.netsim.packet import Datagram

from .test_dijkstra_oracle import worlds


def build_line(*relations):
    t = Topology()
    n = len(relations) + 1
    for i in range(n):
        t.add_node(Node(f"r{i}", 100 + i, NodeKind.TRANSIT,
                        GeoPoint(0, i * 2)))
    for i, rel in enumerate(relations):
        t.connect(f"r{i}", f"r{i+1}", rel)
    return t


def make_network(topology, seed=1):
    loop = EventLoop()
    net = Network(loop, topology, random.Random(seed))
    net.build_speakers()
    return loop, net


class _Sink:
    def __init__(self, loop=None):
        self.loop = loop
        self.received = []
        self.times = []

    def handle_datagram(self, dgram):
        self.received.append(dgram)
        if self.loop is not None:
            self.times.append(self.loop.now)


def two_routers_two_hosts(seed=1):
    """h0 -- r0 -- r1 -- h1, with a sink listening on h1."""
    t = Topology()
    t.add_node(Node("r0", 100, NodeKind.TRANSIT, GeoPoint(0, 0)))
    t.add_node(Node("r1", 101, NodeKind.TRANSIT, GeoPoint(0, 2)))
    t.connect("r0", "r1", LinkRelation.CUSTOMER)
    t.add_node(Node("h0", 0, NodeKind.HOST, GeoPoint(0, 0)))
    t.add_node(Node("h1", 0, NodeKind.HOST, GeoPoint(0, 2)))
    t.connect("h0", "r0", LinkRelation.ACCESS)
    t.connect("h1", "r1", LinkRelation.ACCESS)
    loop = EventLoop()
    net = Network(loop, t, random.Random(seed))
    net.build_speakers()
    sink = _Sink(loop)
    net.attach_endpoint("h1", sink)
    return loop, net, sink


class TestLinkDownTearsSessionDown:
    def test_link_down_withdraws_routes_learned_over_it(self):
        # r0 - r1 - r2, r2 originates. Cutting r1-r2 must withdraw the
        # route everywhere, not just drop datagrams on the floor.
        t = build_line(LinkRelation.CUSTOMER, LinkRelation.CUSTOMER)
        loop, net = make_network(t)
        net.speaker("r2").originate("p")
        loop.run_until(10)
        assert net.speaker("r0").best_route("p") is not None

        net.set_link_up("r1", "r2", False)
        loop.run_until(70)
        assert not net.speaker("r1").session_is_up("r2")
        assert net.speaker("r1").best_route("p") is None
        assert net.speaker("r0").best_route("p") is None
        assert net.fib_entry("r0", "p") is None

    def test_link_down_fails_over_to_other_origin(self):
        # Anycast from both ends of a line; cut the link toward the
        # preferred origin and traffic must reconverge onto the other.
        t = build_line(*[LinkRelation.CUSTOMER] * 3)
        loop, net = make_network(t)
        net.speaker("r0").originate("p")
        net.speaker("r3").originate("p")
        loop.run_until(10)
        # Gao-Rexford: r1 prefers the customer route toward r3.
        assert net.fib_entry("r1", "p") == "r2"

        net.set_link_up("r2", "r3", False)
        loop.run_until(70)
        # The customer path is gone; traffic reconverges toward r0.
        assert net.fib_entry("r2", "p") == "r1"
        assert net.fib_entry("r1", "p") == "r0"

    def test_link_up_restores_routes(self):
        t = build_line(LinkRelation.CUSTOMER, LinkRelation.CUSTOMER)
        loop, net = make_network(t)
        net.speaker("r2").originate("p")
        loop.run_until(10)
        net.set_link_up("r1", "r2", False)
        loop.run_until(70)
        assert net.speaker("r0").best_route("p") is None

        net.set_link_up("r1", "r2", True)
        loop.run_until(140)
        assert net.speaker("r1").session_is_up("r2")
        assert net.speaker("r0").best_route("p") is not None
        assert net.fib_entry("r0", "p") == "r1"

    def test_set_link_up_is_idempotent(self):
        t = build_line(LinkRelation.CUSTOMER)
        loop, net = make_network(t)
        net.speaker("r1").originate("p")
        loop.run_until(10)
        updates_before = sum(s.updates_sent
                             for s in net.speakers().values())
        # Re-asserting the current state must not reset sessions or
        # trigger re-advertisement churn.
        net.set_link_up("r0", "r1", True)
        loop.run_until(20)
        updates_after = sum(s.updates_sent
                            for s in net.speakers().values())
        assert updates_after == updates_before


class TestSessionReset:
    def test_session_down_without_link_down(self):
        # BGP-only failure: the session drops, the link stays usable.
        t = build_line(LinkRelation.CUSTOMER, LinkRelation.CUSTOMER)
        loop, net = make_network(t)
        net.speaker("r2").originate("p")
        loop.run_until(10)

        net.speaker("r1").session_down("r2")
        net.speaker("r2").session_down("r1")
        loop.run_until(70)
        assert net.speaker("r0").best_route("p") is None

        net.speaker("r1").session_up("r2")
        net.speaker("r2").session_up("r1")
        loop.run_until(140)
        assert net.speaker("r0").best_route("p") is not None

    def test_updates_in_flight_at_reset_are_dropped(self):
        t = build_line(LinkRelation.CUSTOMER)
        loop, net = make_network(t)
        net.speaker("r1").originate("p")
        # Reset before the initial update can possibly deliver.
        net.speaker("r0").session_down("r1")
        net.speaker("r1").session_down("r0")
        loop.run_until(30)
        assert net.speaker("r0").best_route("p") is None


class TestLinkDegradation:
    def test_total_loss_drops_every_datagram(self):
        loop, net, sink = two_routers_two_hosts()
        loop.run_until(10)
        net.set_link_degraded("h1", "r1", loss=1.0)
        for _ in range(20):
            net.send(Datagram(src="h0", dst="h1", payload="x"))
        loop.run_until(20)
        assert sink.received == []
        assert net.stats.dropped_loss == 20

    def test_partial_loss_is_deterministic_per_seed(self):
        def deliver_count(seed):
            loop, net, sink = two_routers_two_hosts(seed)
            loop.run_until(10)
            net.set_link_degraded("h1", "r1", loss=0.5)
            for _ in range(40):
                net.send(Datagram(src="h0", dst="h1", payload="x"))
            loop.run_until(20)
            return len(sink.received)

        first = deliver_count(3)
        assert first == deliver_count(3)
        assert 0 < first < 40

    def test_extra_latency_slows_delivery(self):
        loop, net, sink = two_routers_two_hosts()
        loop.run_until(10)
        sent = loop.now
        net.send(Datagram(src="h0", dst="h1", payload="x"))
        loop.run_until(sent + 10)
        baseline = sink.times[-1] - sent

        net.set_link_degraded("r0", "r1", extra_latency_ms=200.0)
        sent = loop.now
        net.send(Datagram(src="h0", dst="h1", payload="x"))
        loop.run_until(sent + 10)
        slowed = sink.times[-1] - sent
        assert slowed >= baseline + 0.19

    def test_clearing_degradation_restores_delivery(self):
        loop, net, sink = two_routers_two_hosts()
        loop.run_until(10)
        net.set_link_degraded("h1", "r1", loss=1.0)
        net.send(Datagram(src="h0", dst="h1", payload="x"))
        loop.run_until(20)
        assert sink.received == []
        net.set_link_degraded("h1", "r1")   # back to healthy
        net.send(Datagram(src="h0", dst="h1", payload="y"))
        loop.run_until(40)
        assert [d.payload for d in sink.received] == ["y"]

    def test_loss_validation(self):
        loop, net, sink = two_routers_two_hosts()
        with pytest.raises(ValueError):
            net.set_link_degraded("r0", "r1", loss=1.5)

    def test_degrading_unfaulted_run_unchanged(self):
        # Declaring 0-loss degradation must not perturb the RNG stream:
        # a run that never draws loss is bit-identical to one that
        # never touched the API.
        def run(touch):
            loop, net, sink = two_routers_two_hosts(5)
            loop.run_until(10)
            if touch:
                net.set_link_degraded("r0", "r1", loss=0.0,
                                      extra_latency_ms=0.0)
            for _ in range(10):
                net.send(Datagram(src="h0", dst="h1", payload="x"))
            loop.run_until(20)
            return sink.times

        assert run(False) == run(True)


@given(worlds(), st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_link_change_leaves_the_view_reading_as_a_fresh_one(world, data):
    """A link goes down, comes back and degrades, each after every edge
    map and distance table was built: the edge maps the view keeps and
    every ``unicast_latency`` then equal a view built from scratch."""
    net, nodes = world
    links = [(link.a, link.b) for link in net.topology.links()]

    def check():
        kept = net._view().edges
        fresh = _LinkView(net.topology.version)
        for node, edges in kept.items():
            assert list(edges.items()) == \
                list(net._edges(fresh, node).items()), node
        for src in nodes:
            want = net._dijkstra(fresh, src)
            for dst in nodes:
                assert net.unicast_latency(src, dst) == want.get(dst)

    check()
    a, b = data.draw(st.sampled_from(links))
    net.set_link_up(a, b, False)
    check()
    net.set_link_up(a, b, True)
    check()
    net.set_link_degraded(a, b, loss=0.5, extra_latency_ms=3.3)
    check()
