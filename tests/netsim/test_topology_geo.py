"""Tests for topology structure and the geo latency model."""

import random

import pytest

from repro.netsim import (
    GeoModel,
    GeoPoint,
    Link,
    LinkRelation,
    Node,
    NodeKind,
    Topology,
)
from repro.netsim.geo import REGIONS


def node(node_id, kind=NodeKind.TRANSIT, lat=0.0, lon=0.0, asn=1):
    return Node(node_id, asn, kind, GeoPoint(lat, lon))


class TestGeo:
    def test_haversine_known_distance(self):
        nyc = GeoPoint(40.7, -74.0)
        london = GeoPoint(51.5, -0.1)
        d = nyc.distance_km(london)
        assert 5400 < d < 5700  # ~5570 km

    def test_latency_scales_with_distance(self):
        a = GeoPoint(0, 0)
        assert a.latency_ms(GeoPoint(0, 50)) > a.latency_ms(GeoPoint(0, 5))

    def test_latency_floor(self):
        a = GeoPoint(10, 10)
        assert a.latency_ms(a) >= 0.2

    def test_region_weights_sum_to_one(self):
        assert abs(sum(weight for *_, weight in REGIONS) - 1.0) < 1e-9

    def test_geo_model_deterministic(self):
        points1 = [GeoModel(random.Random(7)).random_point()
                   for _ in range(1)]
        points2 = [GeoModel(random.Random(7)).random_point()
                   for _ in range(1)]
        assert points1 == points2

    def test_points_within_bounds(self):
        model = GeoModel(random.Random(3))
        for _ in range(200):
            _, p = model.random_point()
            assert -90 <= p.lat <= 90
            assert -180 <= p.lon <= 180


class TestTopology:
    def test_add_and_query(self):
        t = Topology()
        t.add_node(node("a"))
        t.add_node(node("b", lat=10))
        link = t.connect("a", "b", LinkRelation.CUSTOMER)
        assert t.neighbors("a") == ["b"]
        assert link.latency_ms > 0

    def test_duplicate_node_rejected(self):
        t = Topology()
        t.add_node(node("a"))
        with pytest.raises(ValueError):
            t.add_node(node("a"))

    def test_duplicate_link_rejected(self):
        t = Topology()
        t.add_node(node("a"))
        t.add_node(node("b"))
        t.connect("a", "b")
        with pytest.raises(ValueError):
            t.connect("b", "a")

    def test_self_loop_rejected(self):
        t = Topology()
        t.add_node(node("a"))
        with pytest.raises(ValueError):
            t.add_link(Link("a", "a", 1.0))

    def test_link_to_unknown_node_rejected(self):
        t = Topology()
        t.add_node(node("a"))
        with pytest.raises(KeyError):
            t.connect("a", "ghost")

    def test_relation_perspective(self):
        t = Topology()
        t.add_node(node("provider"))
        t.add_node(node("customer"))
        t.connect("provider", "customer", LinkRelation.CUSTOMER)
        link = t.link("provider", "customer")
        assert link.relation_from("provider") == LinkRelation.CUSTOMER
        assert link.relation_from("customer") == LinkRelation.PROVIDER

    def test_peer_relation_symmetric(self):
        t = Topology()
        t.add_node(node("a"))
        t.add_node(node("b"))
        t.connect("a", "b", LinkRelation.PEER)
        link = t.link("a", "b")
        assert link.relation_from("a") == link.relation_from("b")

    def test_bgp_neighbors_exclude_access(self):
        t = Topology()
        t.add_node(node("r"))
        t.add_node(node("r2"))
        t.add_node(node("h", kind=NodeKind.HOST))
        t.connect("r", "r2", LinkRelation.PEER)
        t.connect("r", "h", LinkRelation.ACCESS)
        assert t.bgp_neighbors("r") == ["r2"]

    def test_attachment_router(self):
        t = Topology()
        t.add_node(node("r"))
        t.add_node(node("h", kind=NodeKind.HOST))
        t.connect("r", "h", LinkRelation.ACCESS)
        assert t.attachment_router("h") == "r"
        t.add_node(node("lonely", kind=NodeKind.HOST))
        with pytest.raises(KeyError):
            t.attachment_router("lonely")

    def test_hosts_and_routers_partition(self):
        t = Topology()
        t.add_node(node("r"))
        t.add_node(node("p", kind=NodeKind.POP_ROUTER))
        t.add_node(node("h", kind=NodeKind.HOST))
        assert {n.node_id for n in t.routers()} == {"r", "p"}
