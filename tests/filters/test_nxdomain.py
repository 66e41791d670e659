"""Tests for the NXDOMAIN filter and zone name tree."""

import pytest

from repro.dnscore import (
    A,
    NS,
    RType,
    SOA,
    make_query,
    make_rrset,
    make_zone,
    name,
    parse_zone_text,
)
from repro.filters import NXDomainConfig, NXDomainFilter, QueryContext
from repro.dnscore.zone import NxdomainIndex
from repro.server.engine import AuthoritativeEngine, ZoneStore


@pytest.fixture
def zone():
    z = parse_zone_text(
        "$ORIGIN tree.example.\n$TTL 300\n"
        "@ IN SOA ns1.tree.example. admin.tree.example. 1 2 3 4 300\n"
        "@ IN NS ns1.tree.example.\n"
        "www IN A 10.0.0.1\n"
        "deep.a.b IN A 10.0.0.2\n"
        "*.wild IN A 10.0.0.3\n"
        "sub IN NS ns.elsewhere.net.\n")
    return z


@pytest.fixture
def store(zone):
    s = ZoneStore()
    s.add(zone)
    return s


def covers(zone, qname: str) -> bool:
    """Whether the zone's name tree says ``qname`` gets a
    non-NXDOMAIN answer."""
    tree = zone.derived(NxdomainIndex)
    return not tree.is_nxdomain(name(qname))


class TestZoneNameTree:
    def test_exact_names_covered(self, zone):
        assert covers(zone, "www.tree.example")
        assert covers(zone, "tree.example")

    def test_empty_nonterminals_covered(self, zone):
        assert covers(zone, "a.b.tree.example")
        assert covers(zone, "b.tree.example")

    def test_random_names_not_covered(self, zone):
        assert not covers(zone, "a3n92nv9.tree.example")
        assert not covers(zone, "x.y.z.tree.example")

    def test_wildcard_children_covered(self, zone):
        assert covers(zone, "anything.wild.tree.example")
        assert covers(zone, "a.b.wild.tree.example")

    def test_below_delegation_covered(self, zone):
        # Names under a zone cut get referrals, not NXDOMAIN.
        assert covers(zone, "whatever.sub.tree.example")

    def test_below_leaf_not_covered(self, zone):
        assert not covers(zone, "below.www.tree.example")

    def test_one_tree_per_zone_content(self, zone):
        # Every holder (each machine's engine and filter) shares the
        # zone's one tree until the content changes.
        tree = zone.derived(NxdomainIndex)
        assert zone.derived(NxdomainIndex) is tree
        zone.add_rrset(make_rrset(name("new.tree.example"), RType.A, 60,
                                  [A("10.0.0.4")]))
        assert zone.derived(NxdomainIndex) is not tree
        assert covers(zone, "new.tree.example")


def drive_nxdomains(filter_, engine, store, count, start=0.0):
    import random
    rng = random.Random(4)
    for i in range(count):
        label = "".join(rng.choice("abcdefgh0123") for _ in range(10))
        query = make_query(i & 0xFFFF, name(f"{label}.tree.example"),
                           RType.A)
        response = engine.respond(query)
        filter_.observe_response(query, response, now=start + i * 0.01)


class TestFilter:
    def test_tree_builds_after_threshold(self, store):
        engine = AuthoritativeEngine(store)
        f = NXDomainFilter(store, NXDomainConfig(trigger_count=20,
                                                 window_seconds=60.0))
        drive_nxdomains(f, engine, store, 19)
        assert f.trees_built == 0
        drive_nxdomains(f, engine, store, 2, start=1.0)
        assert f.trees_built == 1
        assert f.tree_for(name("tree.example")) is not None

    def test_window_expiry_prevents_slow_trigger(self, store):
        engine = AuthoritativeEngine(store)
        f = NXDomainFilter(store, NXDomainConfig(trigger_count=20,
                                                 window_seconds=1.0))
        # 30 NXDOMAINs spread over 60 s: never 20 within 1 s.
        import random
        rng = random.Random(9)
        for i in range(30):
            label = "".join(rng.choice("abcdef") for _ in range(8))
            q = make_query(i, name(f"{label}.tree.example"), RType.A)
            f.observe_response(q, engine.respond(q), now=i * 2.0)
        assert f.trees_built == 0

    def test_scoring_before_tree_is_free(self, store):
        f = NXDomainFilter(store)
        ctx = QueryContext(source="r", qname=name("rnd.tree.example"),
                           qtype=RType.A, now=0.0)
        assert f.score(ctx) == 0.0

    def test_scoring_after_tree(self, store):
        engine = AuthoritativeEngine(store)
        f = NXDomainFilter(store, NXDomainConfig(trigger_count=10,
                                                 window_seconds=60.0))
        drive_nxdomains(f, engine, store, 15)
        bad = QueryContext(source="r", qname=name("zzz9.tree.example"),
                           qtype=RType.A, now=1.0)
        good = QueryContext(source="r", qname=name("www.tree.example"),
                            qtype=RType.A, now=1.0)
        wild = QueryContext(source="r",
                            qname=name("any.wild.tree.example"),
                            qtype=RType.A, now=1.0)
        assert f.score(bad) > 0
        assert f.score(good) == 0.0
        assert f.score(wild) == 0.0

    def test_referral_bound_query_below_occluded_glue_not_penalized(self):
        # ns.child sits under the child cut, so lookups at or below it
        # are referrals; two labels further down there is no existing
        # parent to stop at, which a heuristic tree mistook for a miss.
        store = ZoneStore()
        store.add(parse_zone_text(
            "$ORIGIN cut.example.\n$TTL 300\n"
            "@ IN SOA ns1.cut.example. admin.cut.example. 1 2 3 4 300\n"
            "@ IN NS ns1.cut.example.\n"
            "child IN NS ns.child.cut.example.\n"
            "ns.child IN A 10.0.0.53\n"))
        engine = AuthoritativeEngine(store)
        f = NXDomainFilter(store, NXDomainConfig(trigger_count=10,
                                                 window_seconds=60.0))
        for i in range(15):
            q = make_query(i, name(f"r{i}.cut.example"), RType.A)
            f.observe_response(q, engine.respond(q), now=i * 0.01)
        assert f.trees_built == 1
        qname = name("a.b.ns.child.cut.example")
        referral = engine.respond(make_query(99, qname, RType.A))
        assert referral.authority[0].rtype is RType.NS
        ctx = QueryContext(source="r", qname=qname, qtype=RType.A, now=1.0)
        assert f.score(ctx) == 0.0

    def test_unknown_zone_not_penalized(self, store):
        engine = AuthoritativeEngine(store)
        f = NXDomainFilter(store, NXDomainConfig(trigger_count=10,
                                                 window_seconds=60.0))
        drive_nxdomains(f, engine, store, 15)
        ctx = QueryContext(source="r", qname=name("other.org"),
                           qtype=RType.A, now=1.0)
        assert f.score(ctx) == 0.0

    def test_invalidate_drops_tree(self, store):
        engine = AuthoritativeEngine(store)
        f = NXDomainFilter(store, NXDomainConfig(trigger_count=10,
                                                 window_seconds=60.0))
        drive_nxdomains(f, engine, store, 15)
        f.invalidate(name("tree.example"))
        assert f.tree_for(name("tree.example")) is None

    def test_global_tree_mode_builds_everything(self, store):
        second = make_zone(
            name("other.example"),
            SOA(name("ns.other.example"), name("h.other.example"),
                1, 2, 3, 4, 300),
            [name("ns.other.example")])
        second.add_rrset(make_rrset(name("a.other.example"), RType.A, 60,
                                    [A("10.0.0.9")]))
        store.add(second)
        engine = AuthoritativeEngine(store)
        f = NXDomainFilter(store, NXDomainConfig(trigger_count=10,
                                                 window_seconds=60.0,
                                                 global_tree=True))
        drive_nxdomains(f, engine, store, 15)
        assert f.trees_built == 2
        assert f.tree_for(name("other.example")) is not None
