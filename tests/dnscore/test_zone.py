"""Tests for zone semantics: cuts, wildcards, CNAME chains, negatives."""

import pytest

from repro.dnscore import (
    A,
    CNAME,
    LookupStatus,
    NS,
    RClass,
    ResourceRecord,
    RType,
    SOA,
    Zone,
    ZoneError,
    make_rrset,
    make_zone,
    name,
    serial_gt,
)


@pytest.fixture
def zone():
    z = make_zone(
        name("ex.com"),
        SOA(name("ns1.ex.com"), name("admin.ex.com"), 1, 7200, 3600,
            1209600, 300),
        [name("a.ns.akam.net"), name("b.ns.akam.net")],
    )
    z.add_rrset(make_rrset(name("www.ex.com"), RType.A, 300,
                           [A("192.0.2.1"), A("192.0.2.2")]))
    z.add_rrset(make_rrset(name("alias.ex.com"), RType.CNAME, 300,
                           [CNAME(name("www.ex.com"))]))
    z.add_rrset(make_rrset(name("chain.ex.com"), RType.CNAME, 300,
                           [CNAME(name("alias.ex.com"))]))
    z.add_rrset(make_rrset(name("out.ex.com"), RType.CNAME, 300,
                           [CNAME(name("elsewhere.net"))]))
    z.add_rrset(make_rrset(name("*.wild.ex.com"), RType.A, 60,
                           [A("198.51.100.9")]))
    z.add_rrset(make_rrset(name("sub.ex.com"), RType.NS, 3600,
                           [NS(name("ns.sub.ex.com"))]))
    z.add_rrset(make_rrset(name("ns.sub.ex.com"), RType.A, 3600,
                           [A("203.0.113.1")]))
    z.add_rrset(make_rrset(name("deep.empty.ex.com"), RType.A, 300,
                           [A("192.0.2.77")]))
    return z


class TestLookupCore:
    def test_exact_match(self, zone):
        result = zone.lookup(name("www.ex.com"), RType.A)
        assert result.status == LookupStatus.SUCCESS
        assert len(result.rrset) == 2

    def test_nodata(self, zone):
        result = zone.lookup(name("www.ex.com"), RType.AAAA)
        assert result.status == LookupStatus.NODATA
        assert result.soa is not None

    def test_nxdomain(self, zone):
        result = zone.lookup(name("nope.ex.com"), RType.A)
        assert result.status == LookupStatus.NXDOMAIN
        assert result.soa is not None

    def test_not_in_zone(self, zone):
        result = zone.lookup(name("other.org"), RType.A)
        assert result.status == LookupStatus.NOT_IN_ZONE

    def test_name_below_leaf_is_nxdomain(self, zone):
        result = zone.lookup(name("a.www.ex.com"), RType.A)
        assert result.status == LookupStatus.NXDOMAIN

    def test_empty_nonterminal_is_nodata(self, zone):
        # "empty.ex.com" exists only because deep.empty.ex.com does.
        result = zone.lookup(name("empty.ex.com"), RType.A)
        assert result.status == LookupStatus.NODATA

    def test_apex_soa(self, zone):
        result = zone.lookup(name("ex.com"), RType.SOA)
        assert result.status == LookupStatus.SUCCESS


class TestDelegation:
    def test_below_cut_is_referral(self, zone):
        result = zone.lookup(name("x.sub.ex.com"), RType.A)
        assert result.status == LookupStatus.DELEGATION
        assert result.delegation.name == name("sub.ex.com")

    def test_at_cut_non_ns_is_referral(self, zone):
        result = zone.lookup(name("sub.ex.com"), RType.A)
        assert result.status == LookupStatus.DELEGATION

    def test_at_cut_ns_query_answers(self, zone):
        result = zone.lookup(name("sub.ex.com"), RType.NS)
        assert result.status == LookupStatus.SUCCESS

    def test_glue_included(self, zone):
        result = zone.lookup(name("x.sub.ex.com"), RType.A)
        glue_names = {g.name for g in result.glue}
        assert name("ns.sub.ex.com") in glue_names

    def test_apex_ns_is_answer_not_referral(self, zone):
        result = zone.lookup(name("ex.com"), RType.NS)
        assert result.status == LookupStatus.SUCCESS


class TestWildcard:
    def test_wildcard_synthesis(self, zone):
        result = zone.lookup(name("anything.wild.ex.com"), RType.A)
        assert result.status == LookupStatus.SUCCESS
        assert result.wildcard
        assert result.rrset.name == name("anything.wild.ex.com")

    def test_wildcard_multiple_levels(self, zone):
        result = zone.lookup(name("a.b.c.wild.ex.com"), RType.A)
        assert result.status == LookupStatus.SUCCESS

    def test_wildcard_nodata_for_other_type(self, zone):
        result = zone.lookup(name("anything.wild.ex.com"), RType.MX)
        assert result.status == LookupStatus.NODATA
        assert result.wildcard

    def test_exact_match_beats_wildcard(self, zone):
        zone.add_rrset(make_rrset(name("fixed.wild.ex.com"), RType.A, 60,
                                  [A("192.0.2.200")]))
        result = zone.lookup(name("fixed.wild.ex.com"), RType.A)
        assert not result.wildcard
        assert result.rrset.rdatas() == [A("192.0.2.200")]

    def test_wildcard_itself_queryable(self, zone):
        result = zone.lookup(name("*.wild.ex.com"), RType.A)
        assert result.status == LookupStatus.SUCCESS


class TestCNAME:
    def test_cname_returned_for_other_types(self, zone):
        result = zone.lookup(name("alias.ex.com"), RType.A)
        assert result.status == LookupStatus.CNAME

    def test_cname_query_returns_cname(self, zone):
        result = zone.lookup(name("alias.ex.com"), RType.CNAME)
        assert result.status == LookupStatus.SUCCESS

    def test_chain_following(self, zone):
        chain, final = zone.cname_chain(name("chain.ex.com"), RType.A)
        assert [c.name for c in chain] == [name("chain.ex.com"),
                                           name("alias.ex.com")]
        assert final.status == LookupStatus.SUCCESS

    def test_chain_follows_every_mutation(self, zone):
        """The same question, asked again after each kind of edit, gets
        the zone as it is now."""
        def ask():
            chain, final = zone.cname_chain(name("chain.ex.com"), RType.A)
            return ([c.name for c in chain], final.status,
                    final.rrset and final.rrset.rdatas())

        via_alias = [name("chain.ex.com"), name("alias.ex.com")]
        assert ask() == (via_alias, LookupStatus.SUCCESS,
                         [A("192.0.2.1"), A("192.0.2.2")])
        zone.add_record(ResourceRecord(name("www.ex.com"), RType.A,
                                       RClass.IN, 300, A("192.0.2.3")))
        assert ask() == (via_alias, LookupStatus.SUCCESS,
                         [A("192.0.2.1"), A("192.0.2.2"), A("192.0.2.3")])
        zone.remove_rrset(name("www.ex.com"), RType.A)
        assert ask() == (via_alias, LookupStatus.NXDOMAIN, None)
        zone.add_rrset(make_rrset(name("chain.ex.com"), RType.CNAME, 300,
                                  [CNAME(name("deep.empty.ex.com"))]))
        assert ask() == ([name("chain.ex.com")], LookupStatus.SUCCESS,
                         [A("192.0.2.77")])

    def test_chain_out_of_zone(self, zone):
        chain, final = zone.cname_chain(name("out.ex.com"), RType.A)
        assert len(chain) == 1
        assert final.status == LookupStatus.NOT_IN_ZONE

    def test_chain_loop_bounded(self):
        z = make_zone(name("loop.com"),
                      SOA(name("ns.loop.com"), name("a.loop.com"), 1, 2, 3,
                          4, 5), [name("ns.loop.com")])
        z.add_rrset(make_rrset(name("a.loop.com"), RType.CNAME, 60,
                               [CNAME(name("b.loop.com"))]))
        z.add_rrset(make_rrset(name("b.loop.com"), RType.CNAME, 60,
                               [CNAME(name("a.loop.com"))]))
        chain, final = z.cname_chain(name("a.loop.com"), RType.A, max_depth=8)
        assert len(chain) == 8
        assert final.status == LookupStatus.CNAME


class TestAuthoring:
    def test_cname_conflict_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_rrset(make_rrset(name("www.ex.com"), RType.CNAME, 60,
                                      [CNAME(name("x.ex.com"))]))
        with pytest.raises(ZoneError):
            zone.add_rrset(make_rrset(name("alias.ex.com"), RType.A, 60,
                                      [A("10.0.0.1")]))

    def test_out_of_zone_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_rrset(make_rrset(name("other.org"), RType.A, 60,
                                      [A("10.0.0.1")]))

    def test_soa_not_at_apex_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_rrset(make_rrset(
                name("sub2.ex.com"), RType.SOA, 60,
                [SOA(name("a"), name("b"), 1, 2, 3, 4, 5)]))

    def test_validate_requires_soa_and_ns(self):
        z = Zone(name("bare.com"))
        with pytest.raises(ZoneError):
            z.validate()

    def test_remove_rrset(self, zone):
        assert zone.remove_rrset(name("www.ex.com"), RType.A)
        assert zone.lookup(name("www.ex.com"), RType.A).status == \
            LookupStatus.NXDOMAIN
        assert not zone.remove_rrset(name("www.ex.com"), RType.A)

    def test_remove_cut_restores_authority(self, zone):
        zone.remove_rrset(name("sub.ex.com"), RType.NS)
        result = zone.lookup(name("x.sub.ex.com"), RType.A)
        assert result.status == LookupStatus.NXDOMAIN

    def test_serial(self, zone):
        assert zone.serial == 1


class TestSerials:
    def test_basic_ordering(self):
        assert serial_gt(2, 1)
        assert not serial_gt(1, 2)
        assert not serial_gt(5, 5)

    def test_wraparound(self):
        # RFC 1982: 0 is "greater" than a serial just below 2^32.
        assert serial_gt(0, 2**32 - 1)
        assert not serial_gt(2**32 - 1, 0)

    def test_newer_across_the_wrap(self):
        assert serial_gt(11, 10)
        assert not serial_gt(11, 12)
        assert serial_gt(3, 2**32 - 5)
