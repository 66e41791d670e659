"""Tests for the NSEC chain and both denial-of-existence modes."""

from repro.dnscore import A, NS, RType, SOA, make_rrset, make_zone, name
from repro.dnscore.name import Name
from repro.dnscore.rdata import NSEC
from repro.dnssec import denial
from repro.dnssec.denial import (
    NsecChainIndex,
    chain_denial,
    compact_denial,
)
from repro.dnssec.keys import KeyRing
from repro.dnssec.sign import SigningPolicy, ZoneSigner, verify_rrsig

ORIGIN = name("ex.com")


def soa(serial=1):
    return SOA(name("ns1.ex.com"), name("admin.ex.com"), serial,
               7200, 3600, 1209600, 300)


def build_signed(extra=()):
    """A signed zone with a delegation, occluded glue, an empty
    non-terminal, and a wildcard below it."""
    z = make_zone(ORIGIN, soa(), [name("a.ns.akam.net")])
    z.add_rrset(make_rrset(name("www.ex.com"), RType.A, 300,
                           [A("192.0.2.1")]))
    # Delegation: the cut is in the chain, the glue below it is not.
    z.add_rrset(make_rrset(name("child.ex.com"), RType.NS, 300,
                           [NS(name("ns.child.ex.com"))]))
    z.add_rrset(make_rrset(name("ns.child.ex.com"), RType.A, 300,
                           [A("192.0.2.53")]))
    # leaf.ent.ex.com makes ent.ex.com an empty non-terminal.
    z.add_rrset(make_rrset(name("leaf.ent.ex.com"), RType.A, 300,
                           [A("192.0.2.2")]))
    # Wildcard whose closest encloser (w.ex.com) is itself an ENT.
    z.add_rrset(make_rrset(name("*.w.ex.com"), RType.A, 300,
                           [A("192.0.2.3")]))
    for rrset in extra:
        z.add_rrset(rrset)
    keys = KeyRing(7, ORIGIN)
    ZoneSigner(keys).sign(z, 0.0)
    return z, keys


def nsec_owners(zone):
    return {rrset.name for rrset in zone.iter_rrsets()
            if rrset.rtype is RType.NSEC}


def nsec_next(zone, owner):
    rrset = zone.get_rrset(owner, RType.NSEC)
    assert rrset is not None
    return rrset.records[0].rdata.next_name


class TestChainShape:
    def test_ents_and_occluded_glue_excluded(self):
        zone, _ = build_signed()
        owners = nsec_owners(zone)
        assert name("ent.ex.com") not in owners     # empty non-terminal
        assert name("w.ex.com") not in owners       # ENT above wildcard
        assert name("ns.child.ex.com") not in owners  # occluded glue
        assert name("child.ex.com") in owners       # the cut itself
        assert name("*.w.ex.com") in owners         # the wildcard

    def test_chain_is_one_closed_cycle(self):
        zone, _ = build_signed()
        owners = nsec_owners(zone)
        current = ORIGIN
        seen = set()
        for _ in range(len(owners)):
            assert current in owners
            seen.add(current)
            current = nsec_next(zone, current)
        assert current == ORIGIN          # wraps back to the apex
        assert seen == owners             # single cycle, no islands

    def test_chain_follows_canonical_order(self):
        zone, _ = build_signed()
        owners = sorted(nsec_owners(zone), key=Name.canonical_key)
        for i, owner in enumerate(owners):
            assert nsec_next(zone, owner) == owners[(i + 1) % len(owners)]

    def test_apex_only_zone_points_at_itself(self):
        z = make_zone(ORIGIN, soa(), [name("a.ns.akam.net")])
        ZoneSigner(KeyRing(7, ORIGIN)).sign(z, 0.0)
        assert nsec_owners(z) == {ORIGIN}
        assert nsec_next(z, ORIGIN) == ORIGIN


class TestNsecChainIndex:
    def test_exact_member_returns_itself(self):
        zone, _ = build_signed()
        index = NsecChainIndex(zone)
        assert index.covering(name("www.ex.com")) == name("www.ex.com")

    def test_absent_name_returns_predecessor(self):
        zone, _ = build_signed()
        index = NsecChainIndex(zone)
        covering = index.covering(name("zzz.ex.com"))
        assert covering is not None
        assert covering.canonical_key() < name("zzz.ex.com").canonical_key()
        # And it is the *immediate* predecessor on the chain.
        owners = sorted(nsec_owners(zone), key=Name.canonical_key)
        below = [o for o in owners
                 if o.canonical_key() < name("zzz.ex.com").canonical_key()]
        assert covering == below[-1]

    def test_name_before_apex_wraps_to_last_owner(self):
        zone, _ = build_signed()
        index = NsecChainIndex(zone)
        owners = sorted(nsec_owners(zone), key=Name.canonical_key)
        # "aa.com" sorts before "ex.com" in canonical order.
        assert index.covering(name("aa.com")) == owners[-1]

    def test_unsigned_zone_has_empty_index(self):
        z = make_zone(ORIGIN, soa(), [name("a.ns.akam.net")])
        index = NsecChainIndex(z)
        assert len(index) == 0
        assert index.covering(name("www.ex.com")) is None


class TestChainDenial:
    def test_nxdomain_proof_denies_name_and_wildcard(self):
        zone, _ = build_signed()
        index = NsecChainIndex(zone)
        pairs = chain_denial(zone, index, name("zzz.ex.com"), nxdomain=True)
        assert 1 <= len(pairs) <= 2
        for nsec, sigs in pairs:
            assert nsec.rtype is RType.NSEC
            assert sigs is not None  # every NSEC travels with its RRSIG

    def test_wildcard_at_closest_encloser_is_the_denial(self):
        zone, _ = build_signed()
        index = NsecChainIndex(zone)
        # q.w.ex.com would be *synthesized* from *.w.ex.com; the NSEC
        # covering the wildcard name is the wildcard's own NSEC, which
        # proves what the expansion is allowed to claim.
        pairs = chain_denial(zone, index, name("q.w.ex.com"), nxdomain=True)
        owners = {nsec.name for nsec, _ in pairs}
        assert name("*.w.ex.com") in owners

    def test_nxdomain_proof_never_copies_the_zone_names(self, monkeypatch):
        """The closest-encloser search probes the node table: a zone
        whose ``names`` raises gives the pairs the search over a copy of
        every name gives."""
        zone, _ = build_signed()
        index = NsecChainIndex(zone)
        qnames = [name(text) for text in (
            "zzz.ex.com", "q.w.ex.com", "x.y.w.ex.com", "a.b.ent.ex.com",
            "x.leaf.ent.ex.com", "x.www.ex.com", "ex.com")]

        def by_copy(zone, qname):
            names = zone.names()
            current = qname
            while current != zone.origin:
                current = current.parent()
                if current in names:
                    return current
            return zone.origin

        with monkeypatch.context() as patch:
            patch.setattr(denial, "_closest_encloser", by_copy)
            expected = [chain_denial(zone, index, q, nxdomain=True)
                        for q in qnames]

        def no_copy():
            raise AssertionError("names() copied on the denial path")

        monkeypatch.setattr(zone, "names", no_copy)
        assert [chain_denial(zone, index, q, nxdomain=True)
                for q in qnames] == expected
        assert any(len(pairs) == 2 for pairs in expected)

    def test_nodata_proof_is_single_interval(self):
        zone, _ = build_signed()
        index = NsecChainIndex(zone)
        pairs = chain_denial(zone, index, name("www.ex.com"), nxdomain=False)
        assert len(pairs) == 1
        nsec, _ = pairs[0]
        assert nsec.name == name("www.ex.com")
        # The type bitmap proves AAAA's absence: A is present, AAAA not.
        types = nsec.records[0].rdata.types
        assert int(RType.A) in types
        assert int(RType.AAAA) not in types


class TestCompactDenial:
    def test_minimally_covering_interval(self):
        zone, keys = build_signed()
        qname = name("random123.ex.com")
        pairs = compact_denial(zone, keys, SigningPolicy(), qname, 5.0)
        assert len(pairs) == 1
        nsec, sigs = pairs[0]
        assert nsec.name == qname
        rdata = nsec.records[0].rdata
        assert rdata.next_name == qname.prepend(b"\x00")
        assert set(rdata.types) == {int(RType.NSEC), int(RType.RRSIG)}
        assert sigs is not None

    def test_synthesized_rrsig_verifies(self):
        zone, keys = build_signed()
        pairs = compact_denial(zone, keys, SigningPolicy(),
                               name("random123.ex.com"), 5.0)
        nsec, sigs = pairs[0]
        dnskeys = [r.rdata for r in
                   zone.get_rrset(ORIGIN, RType.DNSKEY).records]
        assert verify_rrsig(nsec, sigs.records[0].rdata, dnskeys, 5.0) is None

    def test_nodata_bitmap_includes_existing_types(self):
        zone, keys = build_signed()
        pairs = compact_denial(zone, keys, SigningPolicy(),
                               name("www.ex.com"), 5.0,
                               types=(int(RType.A),))
        rdata = pairs[0][0].records[0].rdata
        assert int(RType.A) in rdata.types

    def test_qname_at_wire_limit_degenerates_gracefully(self):
        zone, keys = build_signed()
        # 63+63+63+60 labels + separators = 254 octets; prepending
        # "\x00" would exceed 255, so next_name falls back to the owner.
        long_name = Name((b"a" * 63, b"b" * 63, b"c" * 63, b"d" * 60))
        assert long_name.wire_length() == 254
        pairs = compact_denial(zone, keys, SigningPolicy(), long_name, 5.0)
        rdata = pairs[0][0].records[0].rdata
        assert rdata.next_name == long_name

    def test_independent_of_zone_topology(self):
        # The proof for a name depends only on the qname and clock --
        # not on what else the zone contains (no zone walking).
        zone_a, keys = build_signed()
        zone_b = make_zone(ORIGIN, soa(), [name("a.ns.akam.net")])
        ZoneSigner(keys).sign(zone_b, 0.0)
        qname = name("probe.ex.com")
        a = compact_denial(zone_a, keys, SigningPolicy(), qname, 5.0)
        b = compact_denial(zone_b, keys, SigningPolicy(), qname, 5.0)
        assert a[0][0].rdatas() == b[0][0].rdatas()
        assert a[0][1].rdatas() == b[0][1].rdatas()
