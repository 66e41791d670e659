"""Property-based tests on zone serialization invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import (
    A,
    RType,
    SOA,
    TXT,
    make_rrset,
    make_zone,
    name,
    parse_zone_text,
    serialize_zone,
)

label = st.text(string.ascii_lowercase + string.digits, min_size=1,
                max_size=8)
octet = st.integers(0, 255)
ipv4 = st.builds(lambda a, b, c, d: f"{a}.{b}.{c}.{d}",
                 octet, octet, octet, octet)


@st.composite
def zones(draw, origin_text="prop.example", serial=1):
    zone = make_zone(
        name(origin_text),
        SOA(name(f"ns1.{origin_text}"), name(f"admin.{origin_text}"),
            serial, 7200, 3600, 1209600, 300),
        [name(f"ns1.{origin_text}")])
    hosts = draw(st.lists(st.tuples(label, ipv4), max_size=12,
                          unique_by=lambda t: t[0]))
    for host, address in hosts:
        zone.add_rrset(make_rrset(name(f"{host}.{origin_text}"),
                                  RType.A, 300, [A(address)]))
    txts = draw(st.lists(label, max_size=3, unique=True))
    for t in txts:
        if any(t == h for h, _ in hosts):
            continue
        zone.add_rrset(make_rrset(name(f"{t}.txt.{origin_text}"),
                                  RType.TXT, 60,
                                  [TXT((t.encode("ascii"),))]))
    return zone


def zone_signature(zone):
    return sorted((str(rrset.name), int(rrset.rtype), rrset.ttl,
                   sorted(repr(r.rdata) for r in rrset.records))
                  for rrset in zone.iter_rrsets())


@given(zones())
@settings(max_examples=60)
def test_serialize_parse_roundtrip(zone):
    reparsed = parse_zone_text(serialize_zone(zone))
    assert zone_signature(reparsed) == zone_signature(zone)


@given(zones())
@settings(max_examples=40)
def test_every_name_resolves_consistently(zone):
    """Every name the zone says exists must not be NXDOMAIN, and every
    made-up sibling must be."""
    from repro.dnscore import LookupStatus
    for existing in zone.names():
        result = zone.lookup(existing, RType.A)
        assert result.status != LookupStatus.NXDOMAIN
    probe = name("definitely-not-there-xyz.prop.example")
    assert zone.lookup(probe, RType.A).status == LookupStatus.NXDOMAIN
