"""Property-based tests on the DNS substrate's core invariants."""

import dataclasses
import pickle
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import (
    AAAA,
    A,
    Message,
    Name,
    Question,
    RClass,
    RType,
    ResourceRecord,
    WireReader,
    WireWriter,
    make_query,
    make_rrset,
    name,
    serial_gt,
)
from repro.dnscore.wire import pack_ipv4, pack_ipv6

label_chars = string.ascii_lowercase + string.digits + "-"
labels = st.text(label_chars, min_size=1, max_size=12).map(str.encode)
names = st.lists(labels, min_size=0, max_size=6).map(
    lambda ls: Name(tuple(ls)))


@given(names)
def test_name_text_roundtrip(n):
    assert name(str(n)) == n


@given(names)
@settings(max_examples=200)
def test_name_wire_roundtrip(n):
    w = WireWriter()
    w.write_name(n)
    assert WireReader(w.getvalue()).read_name() == n


@given(st.lists(names, min_size=1, max_size=8))
def test_many_names_compressed_roundtrip(ns):
    w = WireWriter()
    for n in ns:
        w.write_name(n)
    r = WireReader(w.getvalue())
    assert [r.read_name() for _ in ns] == ns


@given(names, names)
def test_subdomain_antisymmetry(a, b):
    if a.is_subdomain_of(b) and b.is_subdomain_of(a):
        assert a == b


@given(names)
def test_parent_chain_terminates_at_root(n):
    chain = list(n.ancestors())
    assert chain[-1].is_root
    assert len(chain) == len(n) + 1


@given(names, names)
def test_canonical_order_total(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(st.integers(0, 0xFFFF), names,
       st.sampled_from([RType.A, RType.AAAA, RType.NS, RType.TXT]))
def test_query_wire_roundtrip(msg_id, qname, qtype):
    q = make_query(msg_id, qname, qtype)
    m = Message.from_wire(q.to_wire())
    assert m.msg_id == msg_id
    assert m.question == Question(qname, qtype)


@given(names, st.integers(0, 2**31 - 1),
       st.lists(st.integers(0, 2**32 - 1).map(
           lambda v: A(f"{(v >> 24) & 255}.{(v >> 16) & 255}."
                       f"{(v >> 8) & 255}.{v & 255}")),
           min_size=1, max_size=6, unique=True))
@settings(max_examples=150)
def test_response_records_roundtrip(owner, ttl, rdatas):
    msg = Message()
    msg.questions.append(Question(owner, RType.A))
    for rdata in rdatas:
        msg.answers.append(ResourceRecord(owner, RType.A, RClass.IN, ttl,
                                          rdata))
    parsed = Message.from_wire(msg.to_wire())
    assert parsed.answers == msg.answers


def _same_octets_through_copies(rdata, other_text):
    """``replace`` and pickle keep an address record's octets; replacing
    the address brings that address's octets."""
    for copy in (dataclasses.replace(rdata), pickle.loads(pickle.dumps(rdata))):
        assert copy == rdata and hash(copy) == hash(rdata)
        assert copy.octets == rdata.octets
    other = type(rdata)(other_text)
    assert dataclasses.replace(rdata, address=other_text).octets == other.octets


@given(st.ip_addresses(v=4).map(str), st.ip_addresses(v=4).map(str))
def test_a_record_carries_the_octets_of_its_text(text, other_text):
    rdata = A(text)
    assert rdata.octets == pack_ipv4(text)
    twin = A(text)
    assert twin == rdata and hash(twin) == hash(rdata)
    assert repr(rdata) == f"A(address={text!r})"
    assert rdata.to_text() == text
    rrset = make_rrset(name("a.example"), RType.A, 60, [rdata, twin])
    assert rrset.rdatas() == [rdata]
    _same_octets_through_copies(rdata, other_text)


@given(st.ip_addresses(v=6), st.sampled_from([str, lambda ip: ip.exploded,
                                              lambda ip: str(ip).upper()]),
       st.ip_addresses(v=6).map(str))
def test_aaaa_record_carries_the_octets_of_its_normalized_text(
        address, spell, other_text):
    rdata = AAAA(spell(address))
    assert rdata.address == str(address)
    assert rdata.octets == pack_ipv6(rdata.address) == address.packed
    twin = AAAA(str(address))
    assert twin == rdata and hash(twin) == hash(rdata)
    assert repr(rdata) == f"AAAA(address={str(address)!r})"
    assert rdata.to_text() == str(address)
    _same_octets_through_copies(rdata, other_text)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_serial_gt_antisymmetric(a, b):
    assert not (serial_gt(a, b) and serial_gt(b, a))


@given(st.integers(0, 2**32 - 1), st.integers(1, 2**31 - 1))
def test_serial_increment_is_greater(base, step):
    incremented = (base + step) % 2**32
    assert serial_gt(incremented, base)


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=300)
def test_from_wire_never_raises_foreign_exceptions(data):
    """Malformed packets must fail with DNSError, never anything else."""
    from repro.dnscore import DNSError
    try:
        Message.from_wire(data)
    except DNSError:
        pass


@given(st.integers(0, 0xFFFF), names,
       st.sampled_from([RType.A, RType.NS]), st.binary(max_size=8))
@settings(max_examples=150)
def test_truncating_valid_wire_is_safe(msg_id, qname, qtype, junk):
    """Any prefix of a valid message either parses or raises DNSError."""
    from repro.dnscore import DNSError
    wire = make_query(msg_id, qname, qtype).to_wire()
    for cut in range(0, len(wire), 3):
        try:
            Message.from_wire(wire[:cut])
        except DNSError:
            pass
