"""Tests for Two-Tier zone construction and tailored delegations."""

import random

import pytest

from repro.control.mapping import EdgeServer, MapSnapshot
from repro.dnscore import LookupStatus, RType, name
from repro.netsim.geo import GeoPoint
from repro.platform.twotier import (
    DELEGATION_TTL,
    HOSTNAME_TTL,
    TailoredDelegationProvider,
    TwoTierNames,
    build_lowlevel_zone,
    build_toplevel_zone,
)

NAMES = TwoTierNames()
TOPLEVEL_NS = [(name(f"a{i}-64.akam.net"), f"23.{192 + i}.61.64")
               for i in range(13)]
LOWLEVELS = [(name(f"n{i}.w10.akamai.net"), f"172.16.0.{i + 1}")
             for i in range(4)]


class TestZoneBuilders:
    def test_toplevel_zone_delegates_lowlevel(self):
        zone = build_toplevel_zone(NAMES, TOPLEVEL_NS, LOWLEVELS[:2])
        result = zone.lookup(name("a1.w10.akamai.net"), RType.A)
        assert result.status == LookupStatus.DELEGATION
        assert result.delegation.ttl == DELEGATION_TTL
        assert len(result.glue) == 2

    def test_toplevel_zone_validates(self):
        zone = build_toplevel_zone(NAMES, TOPLEVEL_NS, LOWLEVELS[:2])
        zone.validate()
        assert zone.origin == name("akamai.net")

    def test_out_of_zone_ns_hosts_carry_no_glue(self):
        zone = build_toplevel_zone(NAMES, TOPLEVEL_NS, LOWLEVELS[:2])
        # aX-64.akam.net live in a sibling zone; no A records here.
        assert zone.get_rrset(name("a0-64.akam.net"), RType.A) is None

    def test_lowlevel_zone_serves_apex(self):
        zone = build_lowlevel_zone(NAMES, LOWLEVELS)
        zone.validate()
        result = zone.lookup(name("w10.akamai.net"), RType.NS)
        assert result.status == LookupStatus.SUCCESS
        assert len(result.rrset) == 4


def snapshot(edges):
    return MapSnapshot(1, tuple(edges))


class TestTailoredDelegationProvider:
    def edges(self):
        return [
            EdgeServer("172.16.0.1", GeoPoint(40.0, -74.0)),   # NYC
            EdgeServer("172.16.0.2", GeoPoint(51.5, -0.1)),    # LON
            EdgeServer("172.16.0.3", GeoPoint(35.7, 139.7)),   # TYO
        ]

    def provider(self, edges, locations):
        snap = snapshot(edges)
        return TailoredDelegationProvider(lambda: snap, locations.get)

    def test_nearest_edge_selected_per_client(self):
        locations = {"eu-client": GeoPoint(48.8, 2.3),
                     "jp-client": GeoPoint(34.7, 135.5)}
        provider = self.provider(self.edges(), locations)
        cut = NAMES.lowlevel_zone
        ns_eu, glue_eu = provider.delegation(cut, "eu-client")
        ns_jp, glue_jp = provider.delegation(cut, "jp-client")
        assert glue_eu[0].records[0].rdata.address == "172.16.0.2"
        assert glue_jp[0].records[0].rdata.address == "172.16.0.3"

    def test_delegation_ttl_applied(self):
        provider = self.provider(self.edges(), {})
        ns, glue = provider.delegation(NAMES.lowlevel_zone, None)
        assert ns.ttl == DELEGATION_TTL
        assert all(g.ttl == DELEGATION_TTL for g in glue)

    def test_ns_names_live_under_lowlevel_zone(self):
        provider = self.provider(self.edges(), {})
        ns, _ = provider.delegation(NAMES.lowlevel_zone, None)
        for record in ns:
            assert record.rdata.target.is_subdomain_of(
                NAMES.lowlevel_zone)

    def test_dead_edges_excluded(self):
        edges = self.edges()
        edges[1] = EdgeServer("172.16.0.2", GeoPoint(51.5, -0.1),
                              alive=False)
        locations = {"eu-client": GeoPoint(48.8, 2.3)}
        provider = self.provider(edges, locations)
        _, glue = provider.delegation(NAMES.lowlevel_zone, "eu-client")
        assert glue[0].records[0].rdata.address != "172.16.0.2"

    def test_no_snapshot_falls_back_to_static(self):
        provider = TailoredDelegationProvider(lambda: None, lambda k: None)
        assert provider.delegation(NAMES.lowlevel_zone, "x") is None

    def test_no_alive_edges_falls_back(self):
        edges = [EdgeServer("172.16.0.1", GeoPoint(0, 0), alive=False)]
        provider = self.provider(edges, {})
        assert provider.delegation(NAMES.lowlevel_zone, None) is None

    def test_constants_match_paper(self):
        assert HOSTNAME_TTL == 20
        assert DELEGATION_TTL == 4000
