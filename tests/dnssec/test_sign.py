"""Tests for canonical ordering, zone signing, and verification."""

from repro.dnscore import A, RType, SOA, TXT, make_rrset, make_zone, name
from repro.dnscore.name import Name
from repro.dnssec.keys import KeyRing
from repro.dnssec.sign import (
    SigningPolicy,
    ZoneSigner,
    canonical_rrset_bytes,
    covering_rrsigs,
    verify_rrsig,
    zone_is_signed,
)

ORIGIN = name("ex.com")


def soa(serial=1):
    return SOA(name("ns1.ex.com"), name("admin.ex.com"), serial,
               7200, 3600, 1209600, 300)


def build_zone():
    z = make_zone(ORIGIN, soa(), [name("a.ns.akam.net")])
    z.add_rrset(make_rrset(name("www.ex.com"), RType.A, 300,
                           [A("192.0.2.1"), A("192.0.2.2")]))
    z.add_rrset(make_rrset(name("txt.ex.com"), RType.TXT, 300,
                           [TXT((b"hello",))]))
    return z


def signed_zone(now=0.0, policy=None, seed=7):
    zone = build_zone()
    keys = KeyRing(seed, ORIGIN)
    signer = ZoneSigner(keys, policy)
    signer.sign(zone, now)
    return zone, keys, signer


def apex_dnskeys(zone):
    rrset = zone.get_rrset(ORIGIN, RType.DNSKEY)
    assert rrset is not None
    return [r.rdata for r in rrset.records]


class TestCanonicalOrder:
    def test_rfc4034_section_6_1_example(self):
        # The worked example from RFC 4034 section 6.1, case-folded
        # (Name lowercases on construction).
        expected = [
            Name((b"example",)),
            Name((b"a", b"example")),
            Name((b"yljkjljk", b"a", b"example")),
            Name((b"z", b"a", b"example")),
            Name((b"zabc", b"a", b"example")),
            Name((b"z", b"example")),
            Name((b"\x01", b"z", b"example")),
            Name((b"*", b"z", b"example")),
            Name((b"\xc8", b"z", b"example")),
        ]
        shuffled = list(reversed(expected))
        assert sorted(shuffled, key=Name.canonical_key) == expected

    def test_rrset_bytes_sort_rdata_and_track_content(self):
        a = make_rrset(name("www.ex.com"), RType.A, 300,
                       [A("192.0.2.2"), A("192.0.2.1")])
        b = make_rrset(name("www.ex.com"), RType.A, 300,
                       [A("192.0.2.1"), A("192.0.2.2")])
        assert canonical_rrset_bytes(a, 300) == canonical_rrset_bytes(b, 300)
        c = make_rrset(name("www.ex.com"), RType.A, 300, [A("192.0.2.3")])
        assert canonical_rrset_bytes(a, 300) != canonical_rrset_bytes(c, 300)


class TestSigning:
    def test_signed_zone_has_apex_dnskey(self):
        zone, keys, _ = signed_zone()
        assert zone_is_signed(zone)
        tags = {k.key_tag() for k in apex_dnskeys(zone)}
        assert tags == {k.key_tag for k in keys.published}

    def test_every_content_rrset_verifies(self):
        zone, _, _ = signed_zone()
        dnskeys = apex_dnskeys(zone)
        checked = 0
        for rrset in list(zone.iter_rrsets()):
            if rrset.rtype is RType.RRSIG:
                continue
            sigs = covering_rrsigs(zone, rrset.name, rrset.rtype)
            assert sigs is not None, f"no RRSIG for {rrset.name} {rrset.rtype}"
            reasons = [verify_rrsig(rrset, s.rdata, dnskeys, 10.0)
                       for s in sigs.records]
            assert None in reasons, reasons
            checked += 1
        assert checked >= 6  # SOA, NS, DNSKEY, A, TXT, NSECs

    def test_signing_bumps_zone_version(self):
        zone = build_zone()
        before = zone.version
        ZoneSigner(KeyRing(7, ORIGIN)).sign(zone, 0.0)
        assert zone.version > before

    def test_sign_is_deterministic(self):
        a, _, _ = signed_zone()
        b, _, _ = signed_zone()
        sig_a = covering_rrsigs(a, name("www.ex.com"), RType.A)
        sig_b = covering_rrsigs(b, name("www.ex.com"), RType.A)
        assert sig_a.rdatas() == sig_b.rdatas()

    def test_dnskey_rrset_is_ksk_signed(self):
        zone, keys, _ = signed_zone()
        sigs = covering_rrsigs(zone, ORIGIN, RType.DNSKEY)
        rrsigs = [r.rdata for r in sigs.records]
        assert {s.key_tag for s in rrsigs} == {keys.active_ksk.key_tag}


class TestVerificationFailureModes:
    def test_wrong_keys_fail(self):
        zone, _, _ = signed_zone()
        rogue = [k.rdata for k in KeyRing(8, ORIGIN).published]
        rrset = zone.get_rrset(name("www.ex.com"), RType.A)
        sig = covering_rrsigs(zone, rrset.name, RType.A).records[0].rdata
        reason = verify_rrsig(rrset, sig, rogue, 10.0)
        assert reason is not None and "key tag" in reason

    def test_expired_signature_fails(self):
        policy = SigningPolicy(sig_validity=60.0, inception_skew=0.0)
        zone, _, _ = signed_zone(now=0.0, policy=policy)
        rrset = zone.get_rrset(name("www.ex.com"), RType.A)
        sig = covering_rrsigs(zone, rrset.name, RType.A).records[0].rdata
        assert verify_rrsig(rrset, sig, apex_dnskeys(zone), 30.0) is None
        reason = verify_rrsig(rrset, sig, apex_dnskeys(zone), 61.0)
        assert reason is not None and "expired" in reason

    def test_future_inception_fails(self):
        policy = SigningPolicy(inception_skew=0.0)
        zone, _, _ = signed_zone(now=100.0, policy=policy)
        rrset = zone.get_rrset(name("www.ex.com"), RType.A)
        sig = covering_rrsigs(zone, rrset.name, RType.A).records[0].rdata
        reason = verify_rrsig(rrset, sig, apex_dnskeys(zone), 50.0)
        assert reason is not None and "not yet valid" in reason

    def test_tampered_rrset_fails(self):
        zone, _, _ = signed_zone()
        sig = covering_rrsigs(zone, name("www.ex.com"),
                              RType.A).records[0].rdata
        forged = make_rrset(name("www.ex.com"), RType.A, 300,
                            [A("203.0.113.66")])
        reason = verify_rrsig(forged, sig, apex_dnskeys(zone), 10.0)
        assert reason is not None and "mismatch" in reason


class TestWildcardSignatures:
    def test_expansion_verifies_against_wildcard_owner(self):
        zone = build_zone()
        zone.add_rrset(make_rrset(name("*.w.ex.com"), RType.A, 300,
                                  [A("198.51.100.9")]))
        ZoneSigner(KeyRing(7, ORIGIN)).sign(zone, 0.0)
        sig = covering_rrsigs(zone, name("*.w.ex.com"),
                              RType.A).records[0].rdata
        # labels excludes the leftmost "*" (RFC 4034 section 3.1.3).
        assert sig.labels == 3
        expanded = make_rrset(name("q.w.ex.com"), RType.A, 300,
                              [A("198.51.100.9")])
        assert verify_rrsig(expanded, sig, apex_dnskeys(zone), 10.0) is None


class TestResign:
    def test_unchanged_zone_reuses_signatures(self):
        zone, _, signer = signed_zone()
        stats = signer.resign(zone, 10.0)
        assert stats.signatures_created == 0
        assert stats.signatures_reused > 0
        assert stats.nsec_written == 0

    def test_content_change_resigns_only_the_delta(self):
        zone, _, signer = signed_zone()
        zone.add_rrset(make_rrset(name("www.ex.com"), RType.A, 300,
                                  [A("192.0.2.9")]))
        stats = signer.resign(zone, 10.0)
        assert stats.signatures_created == 1  # just www/A
        assert stats.signatures_reused > 0
        sig = covering_rrsigs(zone, name("www.ex.com"),
                              RType.A).records[0].rdata
        fresh = zone.get_rrset(name("www.ex.com"), RType.A)
        assert verify_rrsig(fresh, sig, apex_dnskeys(zone), 10.0) is None

    def test_near_expiry_signatures_refresh(self):
        policy = SigningPolicy(sig_validity=100.0, resign_margin=50.0,
                               inception_skew=0.0)
        zone, _, signer = signed_zone(now=0.0, policy=policy)
        stats = signer.resign(zone, 80.0)  # 20s left < 50s margin
        assert stats.signatures_reused == 0
        assert stats.signatures_created > 0

    def test_removed_name_leaves_no_dnssec_residue(self):
        zone, _, signer = signed_zone()
        zone.remove_rrset(name("txt.ex.com"), RType.TXT)
        stats = signer.resign(zone, 10.0)
        assert stats.rrsets_removed >= 2  # its NSEC and RRSIG
        assert zone.get_rrset(name("txt.ex.com"), RType.NSEC) is None
        assert zone.get_rrset(name("txt.ex.com"), RType.RRSIG) is None
