"""Tests for mapping intelligence, views, and the management portal."""

import random

import pytest

from repro.control import (
    EdgeServer,
    GTMProperty,
    ManagementPortal,
    MappingIntelligence,
    MappingView,
    MetadataBus,
    MULTICAST_CHANNEL,
    PortalLimits,
    ValidationError,
    nearest_edges,
)
from repro.dnscore import RType, name
from repro.netsim import EventLoop, GeoPoint


@pytest.fixture
def world():
    loop = EventLoop()
    bus = MetadataBus(loop, random.Random(2))
    mapping = MappingIntelligence(loop, bus)
    mapping.add_edge(EdgeServer("10.0.0.1", GeoPoint(40.0, -74.0)))   # NYC
    mapping.add_edge(EdgeServer("10.0.0.2", GeoPoint(51.5, -0.1)))    # LON
    mapping.add_edge(EdgeServer("10.0.0.3", GeoPoint(35.7, 139.7)))   # TYO
    return loop, bus, mapping


def make_view(snapshot, locations=None):
    locations = locations or {}
    view = MappingView(lambda key: locations.get(key), random.Random(1))
    view.snapshot = snapshot
    return view


class TestMappingAnswers:
    def test_proximity_answer(self, world):
        loop, bus, mapping = world
        view = make_view(mapping.snapshot(),
                         {"client-eu": GeoPoint(48.8, 2.3)})  # Paris
        rrset = view.answer(name("a1.w10.akamai.net"), RType.A,
                            "client-eu")
        assert rrset.records[0].rdata.address == "10.0.0.2"
        assert rrset.ttl == 20

    def test_unknown_client_still_answered(self, world):
        loop, bus, mapping = world
        view = make_view(mapping.snapshot())
        rrset = view.answer(name("a1.w10.akamai.net"), RType.A, "mystery")
        assert rrset is not None

    def test_dead_edges_skipped(self, world):
        loop, bus, mapping = world
        mapping.set_edge_alive("10.0.0.2", False)
        view = make_view(mapping.snapshot(),
                         {"client-eu": GeoPoint(48.8, 2.3)})
        rrset = view.answer(name("a1.w10.akamai.net"), RType.A,
                            "client-eu")
        assert "10.0.0.2" not in [r.rdata.address for r in rrset]

    def test_load_biases_choice(self, world):
        loop, bus, mapping = world
        mapping.set_edge_load("10.0.0.2", 0.95)
        view = make_view(mapping.snapshot(),
                         {"client-eu": GeoPoint(50.0, 1.0)})
        rrset = view.answer(name("a1.w10.akamai.net"), RType.A,
                            "client-eu")
        # The nearby-but-loaded London edge can lose to NYC.
        assert rrset is not None

    def test_non_a_queries_fall_through(self, world):
        loop, bus, mapping = world
        view = make_view(mapping.snapshot())
        assert view.answer(name("a1.w10.akamai.net"), RType.TXT,
                           None) is None

    def test_gtm_weighted_choice(self, world):
        loop, bus, mapping = world
        dc1 = EdgeServer("172.16.1.1", GeoPoint(0, 0))
        dc2 = EdgeServer("172.16.1.2", GeoPoint(0, 0))
        mapping.add_gtm_property(GTMProperty(
            name("app.gtm.example"), (dc1, dc2), (0.9, 0.1)))
        view = make_view(mapping.snapshot())
        picks = [view.answer(name("app.gtm.example"), RType.A,
                             None).records[0].rdata.address
                 for _ in range(200)]
        assert picks.count("172.16.1.1") > 140

    def test_gtm_dead_datacenter_excluded(self, world):
        loop, bus, mapping = world
        dc1 = EdgeServer("172.16.1.1", GeoPoint(0, 0), alive=False)
        dc2 = EdgeServer("172.16.1.2", GeoPoint(0, 0))
        mapping.add_gtm_property(GTMProperty(
            name("app.gtm.example"), (dc1, dc2), (0.9, 0.1)))
        view = make_view(mapping.snapshot())
        picks = {view.answer(name("app.gtm.example"), RType.A,
                             None).records[0].rdata.address
                 for _ in range(50)}
        assert picks == {"172.16.1.2"}

    def test_gtm_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            GTMProperty(name("x.example"),
                        (EdgeServer("1.1.1.1", GeoPoint(0, 0)),), (1.0, 2.0))


class TestSnapshotPropagation:
    def test_liveness_change_publishes(self, world):
        loop, bus, mapping = world
        view = MappingView(lambda k: None, random.Random(1))

        class Adapter:
            def receive_metadata_message(self, message):
                view.apply(message)

        bus.subscribe(MULTICAST_CHANNEL, Adapter())
        mapping.publish()
        loop.run_until(2.0)
        v1 = view.snapshot.version
        mapping.set_edge_alive("10.0.0.1", False)
        loop.run_until(4.0)
        assert view.snapshot.version > v1
        assert not [e for e in view.snapshot.edges
                    if e.address == "10.0.0.1"][0].alive

    def test_stale_snapshot_ignored(self, world):
        loop, bus, mapping = world
        view = MappingView(lambda k: None, random.Random(1))
        new = mapping.snapshot()
        # Apply v2 then a stale v1: v1 must not regress the view.
        from repro.control.pubsub import MetadataMessage
        view.apply(MetadataMessage("mapping", "g", new, 0.0, 1))
        first = view.snapshot.version

        from dataclasses import replace
        stale = replace(new, version=new.version - 1)
        view.apply(MetadataMessage("mapping", "g", stale, 0.0, 2))
        assert view.snapshot.version == first

    def test_nearest_edges_helper(self, world):
        loop, bus, mapping = world
        snapshot = mapping.snapshot()
        nearest = nearest_edges(snapshot, GeoPoint(52.0, 0.0), 2)
        assert nearest[0].address == "10.0.0.2"


ZONE_TEXT = """\
$ORIGIN cust.net.
$TTL 300
@ IN SOA a0-64.akam.net. admin.cust.net. {serial} 7200 3600 1209600 300
@ IN NS a0-64.akam.net.
www IN A 203.0.113.5
"""


class TestPortal:
    def make(self):
        loop = EventLoop()
        bus = MetadataBus(loop, random.Random(4))
        return loop, bus, ManagementPortal(bus)

    def test_zone_submission_publishes(self):
        loop, bus, portal = self.make()
        portal.register_enterprise("acme")
        zone = portal.submit_zone_text("acme",
                                       ZONE_TEXT.format(serial=1))
        assert zone.origin == name("cust.net")
        assert portal.zones_published == 1
        assert bus.published == 1

    def test_unknown_enterprise_rejected(self):
        loop, bus, portal = self.make()
        with pytest.raises(ValidationError):
            portal.submit_zone_text("ghost", ZONE_TEXT.format(serial=1))

    def test_invalid_zone_rejected(self):
        loop, bus, portal = self.make()
        portal.register_enterprise("acme")
        with pytest.raises(ValidationError):
            portal.submit_zone_text("acme", "$ORIGIN x.net.\n"
                                            "www IN A 1.2.3.4\n")
        assert portal.rejections == 1

    def test_same_serial_is_idempotent(self):
        loop, bus, portal = self.make()
        portal.register_enterprise("acme")
        portal.submit_zone_text("acme", ZONE_TEXT.format(serial=1))
        portal.submit_zone_text("acme", ZONE_TEXT.format(serial=1))
        assert portal.zones_published == 1
        portal.submit_zone_text("acme", ZONE_TEXT.format(serial=2))
        assert portal.zones_published == 2

    def test_older_serial_rejected_and_publishes_nothing(self):
        loop, bus, portal = self.make()
        portal.register_enterprise("acme")
        portal.submit_zone_text("acme", ZONE_TEXT.format(serial=5))
        with pytest.raises(ValidationError,
                           match=r"serial 3 does not advance past 5 "
                                 r"\(serials must advance\)"):
            portal.submit_zone_text("acme", ZONE_TEXT.format(serial=3))
        # The live zone is untouched by the rejected submission.
        assert portal.enterprises["acme"].zones[name("cust.net")].serial == 5
        assert portal.rejections == 1
        assert portal.zones_published == 1
        assert bus.published == 1

    def test_zone_ownership_enforced(self):
        loop, bus, portal = self.make()
        portal.register_enterprise("acme")
        portal.register_enterprise("evil")
        portal.submit_zone_text("acme", ZONE_TEXT.format(serial=1))
        with pytest.raises(ValidationError):
            portal.submit_zone_text("evil", ZONE_TEXT.format(serial=9))

    def test_delegation_set_validated(self):
        loop, bus, portal = self.make()
        portal.register_enterprise("acme",
                                   ("a5-64.akam.net.", "a9-64.akam.net."))
        with pytest.raises(ValidationError):
            # Apex NS references none of the assigned clouds.
            portal.submit_zone_text("acme", ZONE_TEXT.format(serial=1))

    def test_rrset_limit(self):
        loop, bus, portal = self.make()
        portal = ManagementPortal(bus, PortalLimits(max_rrsets_per_zone=3))
        portal.register_enterprise("acme")
        big = ZONE_TEXT.format(serial=1) + "a IN A 10.0.0.1\n" \
            + "b IN A 10.0.0.2\n"
        with pytest.raises(ValidationError):
            portal.submit_zone_text("acme", big)
