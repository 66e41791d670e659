"""The single-pass encoder against the algorithm it replaced.

``Message.to_wire(max_size=n)`` used to truncate by popping one record
and re-encoding the whole message until it fit. That loop lives on here
as the oracle: quadratic, but obviously right. The encoder must match it
byte for byte at every size limit, and must match golden vectors
recorded from the old codec for the unbounded encoding the oracle
itself relies on.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import (
    A,
    CNAME,
    MX,
    NS,
    TXT,
    ClientSubnetOption,
    EDNSOptions,
    Flags,
    Message,
    Name,
    Question,
    RClass,
    ResourceRecord,
    RType,
)
from repro.dnscore.rdata import RDATA_CLASSES

from .wirecorpus import (
    EDNS_VARIANTS,
    RDATA_ZOO,
    multi_section_message,
    rfc1035_example,
    zoo_message,
    zoo_response,
)


def reference_to_wire(message: Message, *, compress: bool = True,
                      max_size: int | None = None) -> bytes:
    """Pop-and-re-encode truncation, as shipped before the single pass."""
    wire = message.to_wire(compress=compress)
    if max_size is None or len(wire) <= max_size:
        return wire
    clone = Message(message.msg_id,
                    dataclasses.replace(message.flags, tc=True),
                    list(message.questions), list(message.answers),
                    list(message.authority), list(message.additional),
                    message.edns)
    for section in (clone.additional, clone.authority, clone.answers):
        while section:
            section.pop()
            wire = clone.to_wire(compress=compress)
            if len(wire) <= max_size:
                return wire
    return clone.to_wire(compress=compress)


EXHAUSTIVE = {
    **{f"multi/{key}": multi_section_message(edns)
       for key, edns in EDNS_VARIANTS.items()},
    "zoo/noedns": zoo_response(None),
    "zoo/ecs4": zoo_response(EDNS_VARIANTS["ecs4"]),
    "rfc1035": rfc1035_example(),
    "empty": Message(3, Flags(), [Question(Name((b"q",)), RType.A)],
                     edns=EDNS_VARIANTS["do"]),
}


@pytest.mark.parametrize("compress", [True, False])
@pytest.mark.parametrize("key", EXHAUSTIVE)
def test_every_size_limit_matches_reference(key, compress):
    message = EXHAUSTIVE[key]
    before = dataclasses.replace(message)
    full = message.to_wire(compress=compress)
    for limit in range(12, len(full) + 2):
        wire = message.to_wire(compress=compress, max_size=limit)
        assert wire == reference_to_wire(
            message, compress=compress, max_size=limit), limit
        parsed = Message.from_wire(wire)
        assert parsed.flags.tc == (limit < len(full))
        assert parsed.edns == message.edns
    assert message == before and not message.flags.tc


def test_truncation_drops_additional_then_authority_then_answers():
    message = multi_section_message(EDNS_VARIANTS["do"])
    seen = set()
    for limit in range(len(message.to_wire()), 11, -1):
        parsed = Message.from_wire(message.to_wire(max_size=limit))
        shape = (len(parsed.answers), len(parsed.authority),
                 len(parsed.additional))
        seen.add(shape)
        if shape[2] < len(message.additional):
            assert parsed.flags.tc
        if shape[1] < len(message.authority):
            assert shape[2] == 0
        if shape[0] < len(message.answers):
            assert shape[1:] == (0, 0)
    assert (5, 3, 4) in seen and (5, 3, 0) in seen and (0, 0, 0) in seen


# -- generated messages x generated limits -----------------------------------

_labels = st.sampled_from([b"a", b"b", b"www", b"cdn", b"example", b"com"])
_names = st.lists(_labels, min_size=0, max_size=5).map(
    lambda labels: Name(tuple(labels)))
_addresses = st.integers(0, 2**32 - 1).map(
    lambda v: A(".".join(str(v >> s & 255) for s in (24, 16, 8, 0))))
_rdatas = st.one_of(
    _addresses, _names.map(NS), _names.map(CNAME),
    st.builds(MX, st.integers(0, 0xFFFF), _names),
    st.lists(st.binary(max_size=40), min_size=1, max_size=3).map(
        lambda strings: TXT(tuple(strings))))
_records = st.builds(
    lambda owner, ttl, rdata: ResourceRecord(owner, rdata.rtype, RClass.IN,
                                             ttl, rdata),
    _names, st.integers(0, 2**31 - 1), _rdatas)
_sections = st.lists(_records, max_size=6)
_edns = st.one_of(
    st.none(),
    st.builds(EDNSOptions, payload_size=st.integers(512, 4096),
              dnssec_ok=st.booleans(),
              client_subnet=st.one_of(st.none(), st.sampled_from([
                  ClientSubnetOption.for_client("198.51.100.77"),
                  ClientSubnetOption.for_client("2001:db8::1", 48)])),
              unknown_options=st.lists(
                  st.tuples(st.integers(9, 0xFFFF), st.binary(max_size=6)),
                  max_size=2)))
_messages = st.builds(
    Message, st.integers(0, 0xFFFF),
    st.builds(Flags, qr=st.booleans(), aa=st.booleans(), rd=st.booleans()),
    st.lists(st.builds(Question, _names, st.sampled_from([RType.A, RType.MX])),
             max_size=2),
    _sections, _sections, _sections, _edns)


@given(_messages, st.integers(0, 700), st.booleans())
@settings(max_examples=200, deadline=None)
def test_generated_messages_match_reference(message, limit, compress):
    wire = message.to_wire(compress=compress, max_size=limit)
    assert wire == reference_to_wire(message, compress=compress,
                                     max_size=limit)
    full = message.to_wire(compress=compress)
    assert message.to_wire(compress=compress, max_size=len(full)) == full
    parsed = Message.from_wire(wire)
    assert parsed.flags.tc == (len(full) > limit)
    if not parsed.flags.tc:
        assert parsed == message


# -- golden vectors recorded from the pre-single-pass codec ------------------

GOLDEN = {
    "zoo/A":
        "12348400000100010000000003777777076578616d706c6503636f6d00000100"
        "01c00c000100010000012c0004c0000201",
    "zoo/AAAA":
        "12348400000100010000000003777777076578616d706c6503636f6d00001c00"
        "01c00c001c00010000012c001020010db8000000000000ff0000428329",
    "zoo/NS":
        "12348400000100010000000003777777076578616d706c6503636f6d00000200"
        "01c00c000200010000012c0006036e7331c010",
    "zoo/CNAME":
        "12348400000100010000000003777777076578616d706c6503636f6d00000500"
        "01c00c000500010000012c000906746172676574c010",
    "zoo/PTR":
        "12348400000100010000000003777777076578616d706c6503636f6d00000c00"
        "01c00c000c00010000012c000704686f7374c010",
    "zoo/SOA":
        "12348400000100010000000003777777076578616d706c6503636f6d00000600"
        "01c00c000600010000012c0022036e7331c0100561646d696ec01078a3f17500"
        "001c2000000e10001275000000012c",
    "zoo/MX":
        "12348400000100010000000003777777076578616d706c6503636f6d00000f00"
        "01c00c000f00010000012c0009000a046d61696cc010",
    "zoo/TXT":
        "12348400000100010000000003777777076578616d706c6503636f6d00001000"
        "01c00c001000010000012c004e0b763d73706631202d616c6c00403031323334"
        "35363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f5051525354"
        "55565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f",
    "zoo/SRV":
        "12348400000100010000000003777777076578616d706c6503636f6d00002100"
        "01c00c002100010000012c000c0001000201bb03737663c010",
    "zoo/CAA":
        "12348400000100010000000003777777076578616d706c6503636f6d00010100"
        "01c00c010100010000012c00158005697373756563612e6578616d706c652e6e"
        "6574",
    "zoo/DNSKEY":
        "12348400000100010000000003777777076578616d706c6503636f6d00003000"
        "01c00c003000010000012c0014010103fd000102030405060708090a0b0c0d0e"
        "0f",
    "zoo/RRSIG":
        "12348400000100010000000003777777076578616d706c6503636f6d00002e00"
        "01c00c002e00010000012c00330001fd030000012c000003e800000000109207"
        "6578616d706c6503636f6d00000102030405060708090a0b0c0d0e0f10111213",
    "zoo/NSEC":
        "12348400000100010000000003777777076578616d706c6503636f6d00002f00"
        "01c00c002f00010000012c001a0162076578616d706c6503636f6d0000066000"
        "00000003010140",
    "zoo/DS":
        "12348400000100010000000003777777076578616d706c6503636f6d00002b00"
        "01c00c002b00010000012c00241092fd02000102030405060708090a0b0c0d0e"
        "0f101112131415161718191a1b1c1d1e1f",
    "zoo/TYPE65280":
        "12348400000100010000000003777777076578616d706c6503636f6d0000ff00"
        "01c00cff0000010000012c0003010203",
    "multi/noedns":
        "00078100000100050003000403777777076578616d706c6503636f6d00000100"
        "01c00c000500010000012c001604656467650363646e076578616d706c65036e"
        "657400c02d00010001000000140004cb007101c02d00010001000000140004cb"
        "007102c02d00010001000000140004cb007103c02d00010001000000140004cb"
        "007104c032000200010000012c0006036e7331c032c032000200010000012c00"
        "06036e7332c032c032000200010000012c0006036e7333c032c08f0001000100"
        "00012c0004c0000201c0a1000100010000012c0004c0000202c0b30001000100"
        "00012c0004c0000203c08f001c00010000012c001020010db800000000000000"
        "0000000053",
    "multi/do":
        "00078100000100050003000503777777076578616d706c6503636f6d00000100"
        "01c00c000500010000012c001604656467650363646e076578616d706c65036e"
        "657400c02d00010001000000140004cb007101c02d00010001000000140004cb"
        "007102c02d00010001000000140004cb007103c02d00010001000000140004cb"
        "007104c032000200010000012c0006036e7331c032c032000200010000012c00"
        "06036e7332c032c032000200010000012c0006036e7333c032c08f0001000100"
        "00012c0004c0000201c0a1000100010000012c0004c0000202c0b30001000100"
        "00012c0004c0000203c08f001c00010000012c001020010db800000000000000"
        "000000005300002904d0000080000000",
    "multi/ecs4":
        "00078100000100050003000503777777076578616d706c6503636f6d00000100"
        "01c00c000500010000012c001604656467650363646e076578616d706c65036e"
        "657400c02d00010001000000140004cb007101c02d00010001000000140004cb"
        "007102c02d00010001000000140004cb007103c02d00010001000000140004cb"
        "007104c032000200010000012c0006036e7331c032c032000200010000012c00"
        "06036e7332c032c032000200010000012c0006036e7333c032c08f0001000100"
        "00012c0004c0000201c0a1000100010000012c0004c0000202c0b30001000100"
        "00012c0004c0000203c08f001c00010000012c001020010db800000000000000"
        "000000005300002910000000000000110008000700011800c63364fde9000201"
        "02",
    "multi/ecs6":
        "00078100000100050003000503777777076578616d706c6503636f6d00000100"
        "01c00c000500010000012c001604656467650363646e076578616d706c65036e"
        "657400c02d00010001000000140004cb007101c02d00010001000000140004cb"
        "007102c02d00010001000000140004cb007103c02d00010001000000140004cb"
        "007104c032000200010000012c0006036e7331c032c032000200010000012c00"
        "06036e7332c032c032000200010000012c0006036e7333c032c08f0001000100"
        "00012c0004c0000201c0a1000100010000012c0004c0000202c0b30001000100"
        "00012c0004c0000203c08f001c00010000012c001020010db800000000000000"
        "0000000053000029100000000000000f0008000b0002380020010db8123456",
    "multi/ecs4/uncompressed":
        "00078100000100050003000503777777076578616d706c6503636f6d00000100"
        "0103777777076578616d706c6503636f6d00000500010000012c001604656467"
        "650363646e076578616d706c65036e65740004656467650363646e076578616d"
        "706c65036e65740000010001000000140004cb00710104656467650363646e07"
        "6578616d706c65036e65740000010001000000140004cb007102046564676503"
        "63646e076578616d706c65036e65740000010001000000140004cb0071030465"
        "6467650363646e076578616d706c65036e65740000010001000000140004cb00"
        "71040363646e076578616d706c65036e657400000200010000012c0015036e73"
        "310363646e076578616d706c65036e6574000363646e076578616d706c65036e"
        "657400000200010000012c0015036e73320363646e076578616d706c65036e65"
        "74000363646e076578616d706c65036e657400000200010000012c0015036e73"
        "330363646e076578616d706c65036e657400036e73310363646e076578616d70"
        "6c65036e657400000100010000012c0004c0000201036e73320363646e076578"
        "616d706c65036e657400000100010000012c0004c0000202036e73330363646e"
        "076578616d706c65036e657400000100010000012c0004c0000203036e733103"
        "63646e076578616d706c65036e657400001c00010000012c001020010db80000"
        "0000000000000000005300002910000000000000110008000700011800c63364"
        "fde900020102",
    "multi/noedns/max200":
        "00078300000100050003000003777777076578616d706c6503636f6d00000100"
        "01c00c000500010000012c001604656467650363646e076578616d706c65036e"
        "657400c02d00010001000000140004cb007101c02d00010001000000140004cb"
        "007102c02d00010001000000140004cb007103c02d00010001000000140004cb"
        "007104c032000200010000012c0006036e7331c032c032000200010000012c00"
        "06036e7332c032c032000200010000012c0006036e7333c032",
    "multi/ecs4/max200":
        "00078300000100050002000103777777076578616d706c6503636f6d00000100"
        "01c00c000500010000012c001604656467650363646e076578616d706c65036e"
        "657400c02d00010001000000140004cb007101c02d00010001000000140004cb"
        "007102c02d00010001000000140004cb007103c02d00010001000000140004cb"
        "007104c032000200010000012c0006036e7331c032c032000200010000012c00"
        "06036e7332c03200002910000000000000110008000700011800c63364fde900"
        "020102",
    "multi/do/max40":
        "00078300000100000000000103777777076578616d706c6503636f6d00000100"
        "0100002904d0000080000000",
    "rfc1035":
        "0001800000010001000100010166036973690461727061000001000103666f6f"
        "c00c000100010000012c00040a000034c012000200010000012c0002c00c0000"
        "0200010000012c0002c012",
    "rfc1035/uncompressed":
        "0001800000010001000100010166036973690461727061000001000103666f6f"
        "016603697369046172706100000100010000012c00040a000034046172706100"
        "000200010000012c000c01660369736904617270610000000200010000012c00"
        "06046172706100",
}


def _encode_case(key: str) -> bytes:
    kind, *rest = key.split("/")
    options = {}
    if rest and rest[-1] == "uncompressed":
        options["compress"] = False
        rest.pop()
    elif rest and rest[-1].startswith("max"):
        options["max_size"] = int(rest.pop()[3:])
    if kind == "zoo":
        message = zoo_message(rest[0])
    elif kind == "multi":
        message = multi_section_message(EDNS_VARIANTS[rest[0]])
    else:
        message = rfc1035_example()
    return message.to_wire(**options)


@pytest.mark.parametrize("key", GOLDEN)
def test_golden_vector(key):
    assert _encode_case(key).hex() == GOLDEN[key]


def test_every_registered_rdata_type_has_a_golden_vector():
    covered = {int(rdata.rtype) for rdata in RDATA_ZOO.values()}
    assert set(RDATA_CLASSES) <= covered
    assert {f"zoo/{key}" for key in RDATA_ZOO} <= set(GOLDEN)


@pytest.mark.parametrize("key", RDATA_ZOO)
def test_golden_vector_decodes_to_its_message(key):
    assert Message.from_wire(bytes.fromhex(GOLDEN[f"zoo/{key}"])) \
        == zoo_message(key)


def test_rfc1035_compression_layout():
    """Section 4.1.4: a whole-name pointer, a label plus pointer, a
    pointer to a suffix in the middle of an earlier name, and the root."""
    wire = bytes.fromhex(GOLDEN["rfc1035"])
    assert wire[12:24] == b"\x01f\x03isi\x04arpa\x00"      # F.ISI.ARPA at 12
    assert wire[28:34] == b"\x03foo\xc0\x0c"               # FOO + -> 12
    owner_arpa = 34 + 10 + 4
    assert wire[owner_arpa:owner_arpa + 2] == b"\xc0\x12"   # ARPA -> 18
    assert wire[owner_arpa + 12:owner_arpa + 14] == b"\xc0\x0c"
    owner_root = owner_arpa + 14
    assert wire[owner_root] == 0                            # the root
    assert wire[-2:] == b"\xc0\x12"
    assert len(wire) == len(bytes.fromhex(GOLDEN["rfc1035/uncompressed"])) \
        - (10 + 4 + 10 + 4)
