"""Property-based tests on zone serialization and edit invariants."""

import itertools
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import (
    A,
    NS,
    LookupStatus,
    RClass,
    RType,
    SOA,
    TXT,
    make_rrset,
    make_zone,
    name,
    parse_zone_text,
    serialize_zone,
)
from repro.dnscore.records import ResourceRecord
from repro.dnscore.zone import NxdomainIndex

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
    for existing in zone.names():
        result = zone.lookup(existing, RType.A)
        assert result.status != LookupStatus.NXDOMAIN
    probe = name("definitely-not-there-xyz.prop.example")
    assert zone.lookup(probe, RType.A).status == LookupStatus.NXDOMAIN


# -- edits against a dict model ---------------------------------------------

EDIT_ORIGIN = name("edit.example")
#: Owners up to three labels under the origin, wildcards among them, so
#: edits make and unmake empty non-terminals, cuts and wildcard sources.
EDIT_OWNERS = [name(".".join(labels + ("edit.example",)))
               for depth in range(4)
               for labels in itertools.product(("a", "b", "*"),
                                               repeat=depth)]
EDIT_TYPES = [RType.A, RType.TXT, RType.NS]
#: Names the index and ``lookup`` are compared on: every owner and one
#: child of each, so absent names below data, below cuts and under
#: wildcards are all asked.
EDIT_PROBES = EDIT_OWNERS + [owner.prepend("zz") for owner in EDIT_OWNERS]


def edit_rdata(rtype, i):
    if rtype == RType.A:
        return A(f"10.0.0.{i}")
    if rtype == RType.TXT:
        return TXT((f"v{i}".encode("ascii"),))
    return NS(name(f"ns{i}.edit.example"))


owners = st.sampled_from(EDIT_OWNERS)
rtypes = st.sampled_from(EDIT_TYPES)
ttls = st.sampled_from([60, 300, 900])
edits = st.one_of(
    st.tuples(st.just("add_rrset"), owners, rtypes, ttls,
              st.lists(st.integers(1, 3), min_size=1, max_size=3)),
    st.tuples(st.just("add_record"), owners, rtypes, ttls,
              st.integers(1, 3)),
    st.tuples(st.just("remove_rrset"), owners, rtypes))


def apply_edit(zone, model, edit):
    """Apply ``edit`` to the zone and to ``model``, a dict of
    (owner, type) -> [ttl, rdatas in order]."""
    kind, owner, rtype = edit[:3]
    key = (owner, rtype)
    if kind == "add_rrset":
        ttl, ids = edit[3:]
        rdatas = list(dict.fromkeys(edit_rdata(rtype, i) for i in ids))
        zone.add_rrset(make_rrset(owner, rtype, ttl, rdatas))
        model[key] = [ttl, rdatas]
    elif kind == "add_record":
        ttl, i = edit[3:]
        rdata = edit_rdata(rtype, i)
        zone.add_record(ResourceRecord(owner, rtype, RClass.IN, ttl, rdata))
        held = model.setdefault(key, [ttl, []])
        if rdata not in held[1]:
            held[0] = min(held[0], ttl)
            held[1].append(rdata)
    else:
        assert zone.remove_rrset(owner, rtype) == (key in model)
        model.pop(key, None)


def model_names(model):
    """Owners holding data plus their ancestors down to the origin."""
    return {ancestor for owner, _ in model
            for ancestor in owner.ancestors()
            if ancestor.is_subdomain_of(EDIT_ORIGIN)}


def check_against_model(zone, model):
    assert zone.names() == model_names(model)
    assert zone.rrset_count() == len(model)
    for owner in EDIT_OWNERS:
        assert zone.types_at(owner) == {
            rtype for held, rtype in model if held == owner}
        for rtype in EDIT_TYPES:
            rrset = zone.get_rrset(owner, rtype)
            expected = model.get((owner, rtype))
            if expected is None:
                assert rrset is None
            else:
                assert [rrset.ttl, rrset.rdatas()] == expected
                assert all(r.ttl == rrset.ttl for r in rrset.records)
    index = zone.derived(NxdomainIndex)
    for probe in EDIT_PROBES:
        assert index.is_nxdomain(probe) == (
            zone.lookup(probe, RType.A).status == LookupStatus.NXDOMAIN)


@given(st.lists(edits, max_size=30))
@settings(max_examples=150, deadline=None)
def test_edit_sequences_match_a_dict_model(sequence):
    """Every step of a random add/merge/remove sequence leaves the node
    table, every read of it and the NXDOMAIN index as the model says;
    removals that empty a node take its empty ancestors with it."""
    zone = make_zone(EDIT_ORIGIN, SOA(name("ns1.edit.example"),
                                      name("admin.edit.example"),
                                      1, 7200, 3600, 1209600, 300),
                     [name("ns1.edit.example")])
    model = {(rrset.name, rrset.rtype): [rrset.ttl, rrset.rdatas()]
             for rrset in zone.iter_rrsets()}
    check_against_model(zone, model)
    for edit in sequence:
        apply_edit(zone, model, edit)
        check_against_model(zone, model)
