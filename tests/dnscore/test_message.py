"""Tests for DNS message encoding, flags, truncation, and EDNS."""

import pytest

from repro.dnscore import (
    A,
    ClientSubnetOption,
    EDNSOptions,
    Flags,
    Message,
    Opcode,
    Question,
    RClass,
    RCode,
    ResourceRecord,
    RType,
    TruncatedMessageError,
    WireFormatError,
    make_query,
    make_response,
    make_rrset,
    name,
)


def a_record(owner, addr, ttl=300):
    return ResourceRecord(name(owner), RType.A, RClass.IN, ttl, A(addr))


class TestFlags:
    def test_roundtrip_all_bits(self):
        f = Flags(qr=True, opcode=Opcode.QUERY, aa=True, tc=True, rd=True,
                  ra=True, rcode=RCode.NXDOMAIN)
        assert Flags.from_wire(f.to_wire()) == f

    def test_defaults_are_zero(self):
        assert Flags().to_wire() == 0

    def test_unknown_opcode_rejected(self):
        with pytest.raises(WireFormatError):
            Flags.from_wire(0x7800)  # opcode 15


class TestMessageRoundtrip:
    def test_query(self):
        q = make_query(0x1234, name("www.ex.com"), RType.A)
        m = Message.from_wire(q.to_wire())
        assert m.msg_id == 0x1234
        assert m.question == Question(name("www.ex.com"), RType.A)
        assert not m.flags.qr

    def test_full_response(self):
        q = make_query(7, name("www.ex.com"), RType.A)
        resp = make_response(q)
        resp.answers.append(a_record("www.ex.com", "192.0.2.1"))
        resp.authority.append(ResourceRecord(
            name("ex.com"), RType.NS, RClass.IN, 86400,
            __import__("repro.dnscore", fromlist=["NS"]).NS(name("ns1.ex.com"))))
        resp.additional.append(a_record("ns1.ex.com", "192.0.2.53"))
        m = Message.from_wire(resp.to_wire())
        assert m.flags.qr and m.flags.aa
        assert len(m.answers) == 1
        assert len(m.authority) == 1
        assert len(m.additional) == 1
        assert m.answers[0].rdata == A("192.0.2.1")

    def test_compression_shrinks_message(self):
        q = make_query(7, name("a.very.long.domain.example.com"), RType.A)
        resp = make_response(q)
        for i in range(5):
            resp.answers.append(
                a_record("a.very.long.domain.example.com", f"192.0.2.{i}"))
        compressed = resp.to_wire(compress=True)
        uncompressed = resp.to_wire(compress=False)
        assert len(compressed) < len(uncompressed)
        assert Message.from_wire(compressed).answers == \
            Message.from_wire(uncompressed).answers

    def test_edns_roundtrip(self):
        ecs = ClientSubnetOption.for_client("198.51.100.7")
        q = make_query(9, name("ex.com"), RType.A,
                       edns=EDNSOptions(payload_size=1400, client_subnet=ecs))
        m = Message.from_wire(q.to_wire())
        assert m.edns is not None
        assert m.edns.payload_size == 1400
        assert m.edns.client_subnet.address == "198.51.100.0"
        assert m.edns.client_subnet.source_prefix_length == 24

    @pytest.mark.parametrize("length", [0, 1, 6, 11])
    def test_shorter_than_a_header_is_truncated(self, length):
        wire = make_query(9, name("ex.com"), RType.A).to_wire()
        with pytest.raises(TruncatedMessageError,
                           match=f"wanted 12 octets, only {length} remain"):
            Message.from_wire(wire[:length])

    def test_duplicate_opt_rejected(self):
        q = make_query(9, name("ex.com"), RType.A, edns=EDNSOptions())
        wire = bytearray(q.to_wire())
        # Bump arcount to 2 and duplicate the OPT record bytes.
        opt = q.to_wire()[-11:]
        wire[10:12] = (2).to_bytes(2, "big")
        with pytest.raises(WireFormatError):
            Message.from_wire(bytes(wire) + opt)


class TestTruncation:
    def test_tc_set_when_over_limit(self):
        q = make_query(1, name("ex.com"), RType.TXT)
        resp = make_response(q)
        rrset = make_rrset(name("ex.com"), RType.A, 60,
                           [A(f"10.0.{i // 256}.{i % 256}") for i in range(100)])
        resp.add_rrset("answers", rrset)
        wire = resp.to_wire(max_size=512)
        assert len(wire) <= 512
        m = Message.from_wire(wire)
        assert m.flags.tc
        assert len(m.answers) < 100

    def test_no_tc_when_fits(self):
        q = make_query(1, name("ex.com"), RType.A)
        resp = make_response(q)
        resp.answers.append(a_record("ex.com", "10.0.0.1"))
        m = Message.from_wire(resp.to_wire(max_size=512))
        assert not m.flags.tc


class TestHelpers:
    def test_make_response_echoes(self):
        q = make_query(42, name("x.com"), RType.AAAA, rd=True,
                       edns=EDNSOptions(payload_size=1232))
        r = make_response(q, RCode.NXDOMAIN)
        assert r.msg_id == 42
        assert r.flags.qr and r.flags.rd
        assert r.rcode == RCode.NXDOMAIN
        assert r.questions == q.questions
        assert r.edns.payload_size == 1232

    def test_question_property_requires_one(self):
        m = Message()
        with pytest.raises(WireFormatError):
            _ = m.question

    def test_answer_rrsets_grouping(self):
        m = Message()
        m.answers.append(a_record("a.com", "10.0.0.1"))
        m.answers.append(a_record("a.com", "10.0.0.2"))
        m.answers.append(a_record("b.com", "10.0.0.3"))
        groups = m.answer_rrsets()
        assert len(groups) == 2
        assert len(groups[0]) == 2


class TestTTLClamping:
    def test_high_bit_ttl_treated_as_zero(self):
        # RFC 2181 section 8: craft a record with TTL >= 2^31 on the wire.
        q = make_query(1, name("t.example"), RType.A)
        resp = make_response(q)
        resp.answers.append(a_record("t.example", "10.0.0.1", ttl=300))
        wire = bytearray(resp.to_wire(compress=False))
        # Locate the answer TTL: question ends after qname+4; the answer
        # starts with the same name, then type(2)+class(2), then TTL(4).
        qname_len = name("t.example").wire_length()
        ttl_offset = 12 + qname_len + 4 + qname_len + 4
        wire[ttl_offset:ttl_offset + 4] = (2**31 + 5).to_bytes(4, "big")
        parsed = Message.from_wire(bytes(wire))
        assert parsed.answers[0].ttl == 0
