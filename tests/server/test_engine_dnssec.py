"""Engine tests for DO-bit-aware serving of signed zones.

Covers the PR's serving contract: DO=0 responses from a signed zone
are byte-identical to an unsigned zone's, DO=1 responses verify end
to end, both denial modes answer negatives correctly, and the
response-plan fast lane is invalidated by signing passes (the
``Zone.version`` / ``ZoneStore.generation`` regression), and a zone
replacement retires that origin's plans and no other's.
"""

import pytest

from repro.dnscore import (
    A,
    EDNSOptions,
    RCode,
    RType,
    make_query,
    make_rrset,
    name,
    parse_zone_text,
)
from repro.dnssec.denial import DenialMode
from repro.dnssec.keys import KeyRing
from repro.dnssec.sign import SigningPolicy, ZoneSigner, verify_message
from repro.server.engine import AuthoritativeEngine, ZoneStore

from .zonespy import zone_walks

ZONE_TEXT = """\
$ORIGIN ex.com.
$TTL 300
@ IN SOA ns1.ex.com. admin.ex.com. 1 7200 3600 1209600 300
@ IN NS ns1.ex.com.
ns1 IN A 192.0.2.53
www IN A 192.0.2.1
alias IN CNAME www
child IN NS ns.child.ex.com.
ns.child IN A 192.0.2.54
"""

ORIGIN = name("ex.com")

#: A second origin on the same store, for plans a change must spare.
OTHER_ZONE_TEXT = """\
$ORIGIN other.org.
$TTL 300
@ IN SOA ns1.other.org. admin.other.org. 1 7200 3600 1209600 300
@ IN NS ns1.other.org.
ns1 IN A 192.0.2.60
www IN A 198.51.100.4
"""

#: An origin under ``ex.com`` that takes ``www.ex.com`` over.
WWW_ZONE_TEXT = """\
$ORIGIN www.ex.com.
$TTL 300
@ IN SOA ns1.ex.com. admin.ex.com. 1 7200 3600 1209600 300
@ IN NS ns1.ex.com.
@ IN A 198.51.100.80
"""


def do_query(msg_id, qname, qtype=RType.A, do=True):
    return make_query(msg_id, name(qname), qtype,
                      edns=EDNSOptions(payload_size=1232, dnssec_ok=do))


def signed_setup(policy=None):
    zone = parse_zone_text(ZONE_TEXT)
    zone.add_rrset(make_rrset(name("*.w.ex.com"), RType.A, 300,
                              [A("198.51.100.7")]))
    keys = KeyRing(7, ORIGIN)
    signer = ZoneSigner(keys, policy)
    signer.sign(zone, 0.0)
    store = ZoneStore()
    store.add(zone)
    engine = AuthoritativeEngine(store)
    engine.dnssec.register_keyring(keys, policy)
    return engine, zone, keys, signer


@pytest.fixture
def signed():
    return signed_setup()


def count_full_assemblies(engine, monkeypatch) -> list:
    """Record every query ``engine`` answers by full assembly, not from
    a plan or a negative skeleton; returns the live list."""
    full: list = []
    respond_full = engine._respond_full

    def counted(query, *args):
        full.append(query.question.qname)
        return respond_full(query, *args)

    monkeypatch.setattr(engine, "_respond_full", counted)
    return full


def dnskeys_of(zone):
    return [r.rdata for r in zone.get_rrset(ORIGIN, RType.DNSKEY).records]


class TestDo0ByteIdentity:
    """With DO=0 (or no EDNS) a signed zone answers exactly like an
    unsigned one — the acceptance criterion that signing deploys dark."""

    def _unsigned_engine(self):
        zone = parse_zone_text(ZONE_TEXT)
        zone.add_rrset(make_rrset(name("*.w.ex.com"), RType.A, 300,
                                  [A("198.51.100.7")]))
        store = ZoneStore()
        store.add(zone)
        return AuthoritativeEngine(store)

    @pytest.mark.parametrize("qname,qtype", [
        ("www.ex.com", RType.A),        # positive
        ("alias.ex.com", RType.A),      # CNAME chain
        ("www.ex.com", RType.AAAA),     # NODATA
        ("nope.ex.com", RType.A),       # NXDOMAIN
        ("host.child.ex.com", RType.A),  # referral
        ("q.w.ex.com", RType.A),        # wildcard synthesis
    ])
    def test_wire_identical_without_do(self, signed, qname, qtype):
        engine, _, _, _ = signed
        unsigned = self._unsigned_engine()
        for msg_id, edns in ((1, None),
                             (2, EDNSOptions(payload_size=1232,
                                             dnssec_ok=False))):
            query = make_query(msg_id, name(qname), qtype, edns=edns)
            a = engine.respond(query)
            b = unsigned.respond(query)
            assert a.to_wire() == b.to_wire()

    def test_do0_never_counts_signed_responses(self, signed):
        engine, _, _, _ = signed
        engine.respond(make_query(1, name("www.ex.com"), RType.A))
        engine.respond(do_query(2, "www.ex.com", do=False))
        assert engine.signed_responses == 0


class TestDo1Responses:
    def test_positive_answer_carries_verifying_rrsig(self, signed):
        engine, zone, _, _ = signed
        resp = engine.respond(do_query(1, "www.ex.com"))
        assert resp.rcode == RCode.NOERROR
        assert any(r.rtype is RType.RRSIG for r in resp.answers)
        assert verify_message(resp, dnskeys_of(zone), 1.0) == []
        assert engine.signed_responses == 1

    def test_do_bit_echoed_in_response(self, signed):
        engine, _, _, _ = signed
        resp = engine.respond(do_query(1, "www.ex.com"))
        assert resp.edns is not None and resp.edns.dnssec_ok

    def test_nxdomain_chain_proof_verifies(self, signed):
        engine, zone, _, _ = signed
        resp = engine.respond(do_query(2, "nope.ex.com"))
        assert resp.rcode == RCode.NXDOMAIN
        types = [r.rtype for r in resp.authority]
        assert RType.SOA in types and RType.NSEC in types
        assert verify_message(resp, dnskeys_of(zone), 1.0) == []

    def test_nodata_proof_verifies(self, signed):
        engine, zone, _, _ = signed
        resp = engine.respond(do_query(3, "www.ex.com", RType.AAAA))
        assert resp.rcode == RCode.NOERROR and not resp.answers
        assert any(r.rtype is RType.NSEC for r in resp.authority)
        assert verify_message(resp, dnskeys_of(zone), 1.0) == []

    def test_wildcard_expansion_proof_verifies(self, signed):
        engine, zone, _, _ = signed
        resp = engine.respond(do_query(4, "q.w.ex.com"))
        assert resp.rcode == RCode.NOERROR
        answers = [r for r in resp.answers if r.rtype is RType.A]
        assert answers and answers[0].name == name("q.w.ex.com")
        # RFC 4035 3.1.3.3: expansion comes with a denial for the qname.
        assert any(r.rtype is RType.NSEC for r in resp.authority)
        assert verify_message(resp, dnskeys_of(zone), 1.0) == []

    def test_referral_stays_unsigned_with_nsec_at_cut(self, signed):
        engine, _, _, _ = signed
        resp = engine.respond(do_query(5, "host.child.ex.com"))
        assert not resp.flags.aa
        ns = [r for r in resp.authority if r.rtype is RType.NS]
        nsec = [r for r in resp.authority if r.rtype is RType.NSEC]
        assert ns and nsec
        assert nsec[0].name == name("child.ex.com")


class TestCompactMode:
    def test_negative_answers_become_nodata(self, signed):
        engine, zone, _, _ = signed
        engine.dnssec.denial_mode = DenialMode.COMPACT
        resp = engine.respond(do_query(1, "nope.ex.com"))
        assert resp.rcode == RCode.NOERROR          # black lies
        assert not resp.answers
        nsec = [r for r in resp.authority if r.rtype is RType.NSEC]
        assert nsec[0].name == name("nope.ex.com")
        assert verify_message(resp, dnskeys_of(zone), 1.0) == []

    def test_do0_still_sees_real_nxdomain(self, signed):
        engine, _, _, _ = signed
        engine.dnssec.denial_mode = DenialMode.COMPACT
        resp = engine.respond(make_query(1, name("nope.ex.com"), RType.A))
        assert resp.rcode == RCode.NXDOMAIN

    #: More unique qnames than the plan cache holds (4096).
    FLOOD = 4200

    def test_unique_qname_flood_keeps_negative_state_bounded(self, signed):
        engine, zone, _, _ = signed
        engine.dnssec.denial_mode = DenialMode.COMPACT
        walks = zone_walks(zone)
        for i in range(self.FLOOD):
            resp = engine.respond(do_query(i, f"atk{i}.ex.com"))
            assert resp.rcode == RCode.NOERROR
        # One per-zone skeleton, armed after a handful of slow answers;
        # no per-qname DO=1 negative plans to overflow the plan cache.
        assert engine.signed_negative_plans == 1
        assert len(walks) < 16
        assert engine.plan_cache_wipes == 0

    def test_chain_mode_floods_churn_the_plan_cache_instead(self, signed):
        engine, zone, _, _ = signed
        assert engine.dnssec.denial_mode is DenialMode.NSEC_CHAIN
        walks = zone_walks(zone)
        for i in range(self.FLOOD):
            engine.respond(do_query(i, f"atk{i}.ex.com"))
        # Every proof depends on its qname: each is walked and planned
        # per qname, which overflows the plan cache.
        assert len(walks) == self.FLOOD
        assert engine.plan_cache_wipes == 1
        assert engine.signed_negative_plans == 0
        repeat = engine.respond(do_query(1, f"atk{self.FLOOD - 1}.ex.com"))
        assert repeat.rcode == RCode.NXDOMAIN
        assert len(walks) == self.FLOOD, "signed NXDOMAIN not planned"
        # The wipe came when the cache held its bound: the last plan
        # made before it is gone, the one that met the full cache stays.
        bound = engine._PLAN_CACHE_MAX
        engine.respond(do_query(2, f"atk{bound - 1}.ex.com"))
        engine.respond(do_query(3, f"atk{bound}.ex.com"))
        assert len(walks) == self.FLOOD + 1


class TestPlanInvalidation:
    """Satellite regression: a signing pass bumps ``Zone.version`` and
    the fast lane drops its cached plans for both DO populations."""

    def test_resign_after_edit_flushes_cached_plans(self, signed):
        engine, zone, _, signer = signed
        q0 = do_query(1, "www.ex.com")
        plain = make_query(2, name("www.ex.com"), RType.A)
        walks = zone_walks(zone)
        first_signed = engine.respond(q0)
        first_plain = engine.respond(plain)
        assert len(walks) == 2
        # Both DO populations are now served from plans.
        engine.respond(q0)
        engine.respond(plain)
        assert len(walks) == 2

        version_before = zone.version
        zone.add_rrset(make_rrset(name("www.ex.com"), RType.A, 300,
                                  [A("192.0.2.99")]))
        signer.resign(zone, 10.0)
        assert zone.version > version_before

        fresh_signed = engine.respond(do_query(3, "www.ex.com"))
        fresh_plain = engine.respond(make_query(4, name("www.ex.com"),
                                                RType.A))
        for resp, old in ((fresh_signed, first_signed),
                          (fresh_plain, first_plain)):
            addresses = {r.rdata for r in resp.answers
                         if r.rtype is RType.A}
            assert addresses == {A("192.0.2.99")}
            assert addresses != {r.rdata for r in old.answers
                                 if r.rtype is RType.A}
        assert verify_message(fresh_signed, dnskeys_of(zone), 10.0) == []

    def test_store_replacement_retires_only_its_own_plans(
            self, signed, monkeypatch):
        """A same-origin replacement serves the new data at once, while a
        plan of another origin on the same store stays a fast-lane hit."""
        engine, _zone, _keys, signer = signed
        engine.store.add(parse_zone_text(OTHER_ZONE_TEXT))
        full = count_full_assemblies(engine, monkeypatch)
        engine.respond(do_query(1, "www.ex.com"))
        engine.respond(do_query(2, "www.other.org"))
        assert len(full) == 2
        replacement = parse_zone_text(ZONE_TEXT.replace(
            "www IN A 192.0.2.1", "www IN A 203.0.113.5"))
        signer.sign(replacement, 20.0)
        engine.store.add(replacement)
        resp = engine.respond(do_query(3, "www.ex.com"))
        addresses = {r.rdata for r in resp.answers
                     if r.rtype is RType.A}
        assert addresses == {A("203.0.113.5")}
        assert len(full) == 3
        other = engine.respond(do_query(4, "www.other.org"))
        assert {r.rdata for r in other.answers} == {A("198.51.100.4")}
        assert len(full) == 3, "a replacement retired another origin's plan"

    @pytest.mark.parametrize("change", ["more-specific", "new", "removed"])
    def test_origin_set_change_retires_every_plan(self, signed, monkeypatch,
                                                  change):
        """A new origin, one under an existing origin included, or a
        removed one can move qnames between zones: every plan goes."""
        engine, _zone, _keys, _signer = signed
        engine.store.add(parse_zone_text(OTHER_ZONE_TEXT))
        full = count_full_assemblies(engine, monkeypatch)
        qnames = ("www.ex.com", "www.other.org")
        for qname in qnames:
            engine.respond(do_query(1, qname))
        assert len(full) == 2
        if change == "more-specific":
            engine.store.add(parse_zone_text(WWW_ZONE_TEXT))
        elif change == "new":
            engine.store.add(parse_zone_text(
                OTHER_ZONE_TEXT.replace("other.org", "third.net")))
        else:
            assert engine.store.remove(name("other.org"))
        answers = [engine.respond(do_query(2, qname)) for qname in qnames]
        assert len(full) == 4
        www = {r.rdata for r in answers[0].answers if r.rtype is RType.A}
        assert www == ({A("198.51.100.80")} if change == "more-specific"
                       else {A("192.0.2.1")})
        assert answers[1].rcode == (RCode.REFUSED if change == "removed"
                                    else RCode.NOERROR)

    def test_same_version_replacement_gets_its_own_nsec_cover(self):
        """``Zone.version`` counts mutations of one object, so two
        differently-named zones built in the same number of steps
        share it; the NSEC chain index must follow the object."""
        def signed_zone(second_host):
            zone = parse_zone_text(ZONE_TEXT + "bbb IN A 192.0.2.2\n"
                                   + f"{second_host} IN A 192.0.2.3\n")
            ZoneSigner(KeyRing(7, ORIGIN)).sign(zone, 0.0)
            return zone

        def nsec_owners(engine):
            resp = engine.respond(do_query(1, "bzz.ex.com"))
            assert resp.rcode == RCode.NXDOMAIN
            return [r.name for r in resp.authority if r.rtype is RType.NSEC]

        zone_a, zone_b = signed_zone("ddd"), signed_zone("bcc")
        assert zone_a.version == zone_b.version
        store = ZoneStore()
        store.add(zone_a)
        engine = AuthoritativeEngine(store)
        assert name("bbb.ex.com") in nsec_owners(engine)
        store.add(zone_b)
        fresh_store = ZoneStore()
        fresh_store.add(zone_b)
        expected = nsec_owners(AuthoritativeEngine(fresh_store))
        assert name("bcc.ex.com") in expected
        assert nsec_owners(engine) == expected

    def test_signing_an_unsigned_zone_invalidates_do1_plans(self):
        zone = parse_zone_text(ZONE_TEXT)
        store = ZoneStore()
        store.add(zone)
        engine = AuthoritativeEngine(store)
        resp = engine.respond(do_query(1, "www.ex.com"))
        assert not any(r.rtype is RType.RRSIG for r in resp.answers)
        keys = KeyRing(7, ORIGIN)
        ZoneSigner(keys).sign(zone, 0.0)
        engine.dnssec.register_keyring(keys)
        resp = engine.respond(do_query(2, "www.ex.com"))
        assert any(r.rtype is RType.RRSIG for r in resp.answers)
