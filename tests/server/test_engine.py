"""Tests for the authoritative engine and zone store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import (
    A,
    SOA,
    Opcode,
    RClass,
    RCode,
    RType,
    make_query,
    make_rrset,
    make_zone,
    name,
    parse_zone_text,
)
from repro.server.engine import AuthoritativeEngine, ZoneStore

PARENT = """\
$ORIGIN ex.com.
$TTL 300
@ IN SOA ns1.ex.com. admin.ex.com. 1 7200 3600 1209600 300
@ IN NS ns1.ex.com.
ns1 IN A 192.0.2.53
www IN A 192.0.2.1
alias IN CNAME www
ext IN CNAME target.other.org.
child IN NS ns.child.ex.com.
ns.child IN A 192.0.2.54
"""

CHILD = """\
$ORIGIN child.ex.com.
$TTL 300
@ IN SOA ns.child.ex.com. admin.ex.com. 1 7200 3600 1209600 300
@ IN NS ns.child.ex.com.
host IN A 192.0.2.99
"""


@pytest.fixture
def store():
    s = ZoneStore()
    s.add(parse_zone_text(PARENT))
    return s


@pytest.fixture
def engine(store):
    return AuthoritativeEngine(store)


class TestZoneStore:
    def test_longest_match(self, store):
        store.add(parse_zone_text(CHILD))
        assert store.find(name("host.child.ex.com")).origin == \
            name("child.ex.com")
        assert store.find(name("www.ex.com")).origin == name("ex.com")

    def test_find_returns_none_outside(self, store):
        assert store.find(name("nope.org")) is None

    def test_remove(self, store):
        assert store.remove(name("ex.com"))
        assert not store.remove(name("ex.com"))
        assert store.find(name("www.ex.com")) is None

    def test_invalid_zone_rejected(self, store):
        from repro.dnscore import Zone, ZoneError
        with pytest.raises(ZoneError):
            store.add(Zone(name("empty.com")))

    def test_origins_sorted(self, store):
        store.add(parse_zone_text(CHILD))
        assert store.origins() == [name("ex.com"), name("child.ex.com")]

    #: A root zone, a parent, a child and a grandchild under it, and an
    #: unrelated zone; the probes sit at, under, between and outside them.
    ORIGINS = [name(o) for o in (".", "com", "ex.com", "child.ex.com",
                                 "a.child.ex.com", "other.org")]
    PROBES = [name(q) for q in (
        ".", "com", "ex.com", "www.ex.com", "child.ex.com",
        "host.child.ex.com", "a.child.ex.com", "x.y.a.child.ex.com",
        "childish.ex.com", "other.org", "www.other.org", "nope.net")]

    @given(steps=st.lists(st.tuples(st.booleans(),
                                    st.sampled_from(ORIGINS)), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_find_agrees_with_longest_suffix_scan(self, steps):
        """After every add (a new origin, or a new Zone object over a
        served one) and every remove (a child's names re-home to its
        parent), ``find`` returns the very object a scan over every
        installed zone picks."""
        store = ZoneStore()
        installed = {}
        for adding, origin in steps:
            if adding:
                zone = make_zone(origin, SOA(name("ns.invalid"),
                                             name("admin.invalid"),
                                             1, 7200, 3600, 1209600, 300),
                                 [name("ns.invalid")])
                store.add(zone)
                installed[origin] = zone
            else:
                assert store.remove(origin) == (origin in installed)
                installed.pop(origin, None)
            for qname in self.PROBES:
                enclosing = [o for o in installed
                             if qname.is_subdomain_of(o)]
                expected = installed[max(enclosing, key=len)] \
                    if enclosing else None
                assert store.find(qname) is expected, (qname, steps)


class TestRespond:
    def test_positive_answer(self, engine):
        resp = engine.respond(make_query(1, name("www.ex.com"), RType.A))
        assert resp.rcode == RCode.NOERROR
        assert resp.flags.aa
        assert resp.answers[0].rdata == A("192.0.2.1")

    def test_nxdomain_with_soa(self, engine):
        resp = engine.respond(make_query(2, name("zz.ex.com"), RType.A))
        assert resp.rcode == RCode.NXDOMAIN
        assert resp.authority[0].rtype == RType.SOA
        assert engine.nxdomain_count == 1

    def test_nodata_with_soa(self, engine):
        resp = engine.respond(make_query(3, name("www.ex.com"),
                                         RType.AAAA))
        assert resp.rcode == RCode.NOERROR
        assert not resp.answers
        assert resp.authority[0].rtype == RType.SOA

    def test_cname_chain_in_answer(self, engine):
        resp = engine.respond(make_query(4, name("alias.ex.com"),
                                         RType.A))
        assert [r.rtype for r in resp.answers] == [RType.CNAME, RType.A]

    def test_cname_out_of_zone_left_to_resolver(self, engine):
        resp = engine.respond(make_query(5, name("ext.ex.com"), RType.A))
        assert resp.rcode == RCode.NOERROR
        assert len(resp.answers) == 1
        assert resp.answers[0].rtype == RType.CNAME

    def test_referral(self, engine):
        resp = engine.respond(make_query(6, name("host.child.ex.com"),
                                         RType.A))
        assert resp.rcode == RCode.NOERROR
        assert not resp.flags.aa
        assert resp.authority[0].rtype == RType.NS
        glue = {str(r.name) for r in resp.additional}
        assert "ns.child.ex.com." in glue

    def test_out_of_bailiwick_refused(self, engine):
        resp = engine.respond(make_query(7, name("other.org"), RType.A))
        assert resp.rcode == RCode.REFUSED
        assert not resp.flags.aa

    def test_non_query_opcode_notimpl(self, engine):
        query = make_query(8, name("www.ex.com"), RType.A)
        query.flags.opcode = Opcode.NOTIFY
        assert engine.respond(query).rcode == RCode.NOTIMP

    def test_chaos_class_refused(self, engine):
        query = make_query(9, name("www.ex.com"), RType.A)
        object.__setattr__(query.questions[0], "qclass", RClass.CH)
        assert engine.respond(query).rcode == RCode.REFUSED

    def test_counters(self, engine):
        engine.respond(make_query(1, name("www.ex.com"), RType.A))
        engine.respond(make_query(2, name("x.ex.com"), RType.A))
        assert engine.queries_answered == 2
        assert engine.nxdomain_count == 1


class TestMappingHook:
    def test_dynamic_domain_answered_by_provider(self, store):
        calls = []

        class Provider:
            def answer(self, qname, qtype, client_key):
                calls.append((qname, client_key))
                return make_rrset(qname, RType.A, 20, [A("10.99.0.1")])

        engine = AuthoritativeEngine(
            store, mapping=Provider(),
            dynamic_domains=[name("www.ex.com")])
        resp = engine.respond(make_query(1, name("www.ex.com"), RType.A),
                              client_key="resolver-9")
        assert resp.answers[0].rdata == A("10.99.0.1")
        assert resp.answers[0].ttl == 20
        assert calls == [(name("www.ex.com"), "resolver-9")]

    def test_ecs_overrides_client_key(self, store):
        from repro.dnscore import ClientSubnetOption, EDNSOptions
        seen = []

        class Provider:
            def answer(self, qname, qtype, client_key):
                seen.append(client_key)
                return make_rrset(qname, RType.A, 20, [A("10.99.0.2")])

        engine = AuthoritativeEngine(
            store, mapping=Provider(),
            dynamic_domains=[name("www.ex.com")])
        edns = EDNSOptions(
            client_subnet=ClientSubnetOption.for_client("198.51.100.77"))
        engine.respond(make_query(1, name("www.ex.com"), RType.A,
                                  edns=edns), client_key="resolver-9")
        assert seen == ["198.51.100.0/24"]

    def test_provider_fallthrough_uses_zone(self, store):
        class Provider:
            def answer(self, qname, qtype, client_key):
                return None

        engine = AuthoritativeEngine(
            store, mapping=Provider(),
            dynamic_domains=[name("www.ex.com")])
        resp = engine.respond(make_query(1, name("www.ex.com"), RType.A))
        assert resp.answers[0].rdata == A("192.0.2.1")


class TestDynamicDelegation:
    def test_tailored_referral(self, store):
        from repro.dnscore import NS

        class Tailor:
            def delegation(self, cut, client_key):
                ns = make_rrset(cut, RType.NS, 4000,
                                [NS(name("near.ll.ex.com"))])
                glue = [make_rrset(name("near.ll.ex.com"), RType.A, 4000,
                                   [A("172.31.0.1")])]
                return ns, glue

        engine = AuthoritativeEngine(
            store, dynamic_delegations={name("child.ex.com"): Tailor()})
        resp = engine.respond(make_query(1, name("x.child.ex.com"),
                                         RType.A))
        assert str(resp.authority[0].rdata.target) == "near.ll.ex.com."
        assert resp.additional[0].rdata == A("172.31.0.1")

    def test_provider_none_falls_back_to_static(self, store):
        class Tailor:
            def delegation(self, cut, client_key):
                return None

        engine = AuthoritativeEngine(
            store, dynamic_delegations={name("child.ex.com"): Tailor()})
        resp = engine.respond(make_query(1, name("x.child.ex.com"),
                                         RType.A))
        assert str(resp.authority[0].rdata.target) == "ns.child.ex.com."
