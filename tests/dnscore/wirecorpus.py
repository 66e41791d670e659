"""Valid messages shared by the wire-codec tests.

One record per registered rdata type (plus an RFC 3597 opaque one),
multi-section responses with and without EDNS/ECS, and the name layout
of RFC 1035 section 4.1.4's compression example. Built from public
constructors only, so the same module produced the golden vectors in
``test_wire_equivalence`` on the commit before the single-pass codec.
"""

from repro.dnscore import (
    AAAA,
    CAA,
    CNAME,
    DNSKEY,
    DS,
    MX,
    NS,
    NSEC,
    PTR,
    RRSIG,
    SOA,
    SRV,
    TXT,
    A,
    ClientSubnetOption,
    EDNSOptions,
    Flags,
    GenericRdata,
    Message,
    Question,
    RClass,
    ResourceRecord,
    RType,
    name,
)

RDATA_ZOO = {
    "A": A("192.0.2.1"),
    "AAAA": AAAA("2001:db8::ff00:42:8329"),
    "NS": NS(name("ns1.example.com")),
    "CNAME": CNAME(name("target.example.com")),
    "PTR": PTR(name("host.example.com")),
    "SOA": SOA(name("ns1.example.com"), name("admin.example.com"),
               2024010101, 7200, 3600, 1209600, 300),
    "MX": MX(10, name("mail.example.com")),
    "TXT": TXT((b"v=spf1 -all", b"", bytes(range(48, 112)))),
    "SRV": SRV(1, 2, 443, name("svc.example.com")),
    "CAA": CAA(128, b"issue", b"ca.example.net"),
    "DNSKEY": DNSKEY(257, 3, 253, bytes(range(16))),
    "RRSIG": RRSIG(int(RType.A), 253, 3, 300, 1000, 0, 4242,
                   name("example.com"), bytes(range(20))),
    "NSEC": NSEC(name("b.example.com"), (1, 2, 46, 47, 257)),
    "DS": DS(4242, 253, 2, bytes(range(32))),
    "TYPE65280": GenericRdata(65280, b"\x01\x02\x03"),
}

EDNS_VARIANTS = {
    "noedns": None,
    "do": EDNSOptions(payload_size=1232, dnssec_ok=True),
    "ecs4": EDNSOptions(
        payload_size=4096,
        client_subnet=ClientSubnetOption.for_client("198.51.100.77"),
        unknown_options=[(65001, b"\x01\x02")]),
    "ecs6": EDNSOptions(
        client_subnet=ClientSubnetOption.for_client("2001:db8:1234:5678::9")),
}


def record(owner: str, rdata, ttl: int = 300) -> ResourceRecord:
    rtype = (rdata.type_value if isinstance(rdata, GenericRdata)
             else rdata.rtype)
    return ResourceRecord(name(owner), rtype, RClass.IN, ttl, rdata)


def zoo_message(key: str) -> Message:
    """A one-answer response carrying ``RDATA_ZOO[key]``."""
    rdata = RDATA_ZOO[key]
    qtype = RType.ANY if isinstance(rdata, GenericRdata) else rdata.rtype
    return Message(0x1234, Flags(qr=True, aa=True),
                   [Question(name("www.example.com"), qtype)],
                   [record("www.example.com", rdata)])


def multi_section_message(edns: EDNSOptions | None) -> Message:
    """Answers, authority and additional all populated; names share
    suffixes so compression pointers cross section boundaries."""
    answers = [record("www.example.com", CNAME(name("edge.cdn.example.net")))]
    answers += [record("edge.cdn.example.net", A(f"203.0.113.{i}"), 20)
                for i in range(1, 5)]
    authority = [record("cdn.example.net", NS(name(f"ns{i}.cdn.example.net")))
                 for i in range(1, 4)]
    additional = [record(f"ns{i}.cdn.example.net", A(f"192.0.2.{i}"))
                  for i in range(1, 4)]
    additional.append(record("ns1.cdn.example.net", AAAA("2001:db8::53")))
    return Message(7, Flags(qr=True, rd=True),
                   [Question(name("www.example.com"), RType.A)],
                   answers, authority, additional, edns)


def zoo_response(edns: EDNSOptions | None) -> Message:
    """Every rdata type in one response, spread over the three sections."""
    records = [record(f"r{i}.example.com", rdata)
               for i, rdata in enumerate(RDATA_ZOO.values())]
    return Message(9, Flags(qr=True, aa=True),
                   [Question(name("example.com"), RType.ANY)],
                   records[:6], records[6:11], records[11:], edns)


def rfc1035_example() -> Message:
    """F.ISI.ARPA, FOO.F.ISI.ARPA, ARPA and the root, in that order."""
    return Message(1, Flags(qr=True),
                   [Question(name("F.ISI.ARPA"), RType.A)],
                   [record("FOO.F.ISI.ARPA", A("10.0.0.52"))],
                   [record("ARPA", NS(name("F.ISI.ARPA")))],
                   [record(".", NS(name("ARPA")))])
