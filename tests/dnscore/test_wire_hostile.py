"""Seeded structure-aware fuzzer for ``Message.from_wire``.

Valid messages carrying every registered rdata type, OPT and ECS are
mutated the way a hostile sender would — byte flips, truncation at every
offset, pointer and reserved-label octets dropped anywhere, inflated
section counts, pointer chains, oversize names — and every result must
be either a parsed message or a clean :class:`WireFormatError`, reached
in work bounded by the input's length. Fixed seed: a failure reproduces.
"""

import random
import struct
import sys

import pytest

from repro.dnscore import (
    CompressionError,
    Message,
    RType,
    TruncatedMessageError,
    WireFormatError,
    WireReader,
    make_query,
    name,
)

from .wirecorpus import (
    EDNS_VARIANTS,
    RDATA_ZOO,
    multi_section_message,
    rfc1035_example,
    zoo_message,
)

SEED = 0x5EED

CORPUS = (
    [make_query(i, name("www.example.com"), RType.A, edns=edns).to_wire()
     for i, edns in enumerate(EDNS_VARIANTS.values())]
    + [zoo_message(key).to_wire() for key in RDATA_ZOO]
    + [multi_section_message(EDNS_VARIANTS["ecs4"]).to_wire(),
       multi_section_message(EDNS_VARIANTS["ecs6"]).to_wire(),
       rfc1035_example().to_wire()]
)

#: Octets that change how a name parses: pointer tags, the two reserved
#: label types, the root.
HOT_OCTETS = (0xC0, 0xFF, 0x40, 0x80, 0x00)


def decode(data: bytes) -> Message | None:
    """The parsed message, or ``None`` for a clean rejection; anything
    but a :class:`WireFormatError` propagates and fails the test."""
    try:
        return Message.from_wire(data)
    except WireFormatError:
        return None


def test_corpus_is_valid():
    assert all(decode(data) is not None for data in CORPUS)


def test_truncation_at_every_offset():
    for data in CORPUS:
        for cut in range(len(data)):
            decode(data[:cut])


def test_hot_octet_at_every_offset():
    for data in CORPUS:
        for offset in range(len(data)):
            for octet in HOT_OCTETS:
                decode(data[:offset] + bytes([octet]) + data[offset + 1:])


def test_random_byte_flips():
    rng = random.Random(SEED)
    for data in CORPUS:
        for _ in range(200):
            mutated = bytearray(data)
            for _ in range(rng.choice((1, 1, 2, 4))):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            decode(bytes(mutated))


def test_random_splices_and_pointer_pairs():
    """Two-octet pointers to arbitrary targets, and chunks of one valid
    message spliced into another."""
    rng = random.Random(SEED + 1)
    for data in CORPUS:
        for _ in range(100):
            mutated = bytearray(data)
            at = rng.randrange(len(mutated) - 1)
            mutated[at:at + 2] = struct.pack(
                "!H", 0xC000 | rng.randrange(len(mutated) + 4))
            decode(bytes(mutated))
            donor = rng.choice(CORPUS)
            lo = rng.randrange(len(donor))
            chunk = donor[lo:lo + rng.randrange(1, 24)]
            decode(bytes(mutated[:at]) + chunk + bytes(mutated[at:]))


def test_counts_larger_than_the_body():
    for data in CORPUS:
        for field in range(4):
            for count in (1, 2, 0x7FFF, 0xFFFF):
                mutated = bytearray(data)
                at = 4 + 2 * field
                value = min(0xFFFF,
                            struct.unpack_from("!H", data, at)[0] + count)
                struct.pack_into("!H", mutated, at, value)
                assert decode(bytes(mutated)) is None


# -- the three escapes this PR fixed, and their neighbours -------------------


def _response_with(rtype: int, rdata: bytes) -> bytes:
    return (struct.pack("!6H", 1, 0x8000, 0, 1, 0, 0) + b"\x00"
            + struct.pack("!HHIH", rtype, 1, 300, len(rdata)) + rdata)


def _query_with_ecs(family: int, source: int, address: bytes) -> bytes:
    option = struct.pack("!HBB", family, source, 0) + address
    return (struct.pack("!6H", 1, 0, 1, 0, 0, 1) + b"\x01a\x00"
            + struct.pack("!HH", RType.A, 1)
            + b"\x00" + struct.pack("!HHIH", RType.OPT, 1232, 0,
                                    4 + len(option))
            + struct.pack("!HH", 8, len(option)) + option)


def test_empty_txt_rdata_is_a_wire_error():
    with pytest.raises(WireFormatError):
        Message.from_wire(_response_with(RType.TXT, b""))


@pytest.mark.parametrize("family, source, width", [
    (1, 33, 4), (1, 255, 4), (2, 129, 16), (2, 255, 16)])
def test_ecs_prefix_wider_than_family_is_a_wire_error(family, source, width):
    # Enough address octets that only the prefix check can reject it.
    with pytest.raises(WireFormatError, match="source prefix"):
        Message.from_wire(_query_with_ecs(family, source, bytes(32)))
    assert decode(_query_with_ecs(family, 8 * width, bytes(width))) \
        is not None


def test_caa_tag_overrunning_rdlength_is_a_wire_error():
    with pytest.raises(WireFormatError):
        Message.from_wire(_response_with(RType.CAA, b"\x00\x09iss") + b"uevalue")


# -- the OPT record: root owner, one per message ------------------------------


#: Type OPT, payload 1232, no extended flags, no options.
_OPT_AFTER_OWNER = struct.pack("!HHIH", RType.OPT, 1232, 0, 0)
#: An OPT whose owner is the root octet itself, ``00 00 29 ...``.
ROOT_OPT = b"\x00" + _OPT_AFTER_OWNER
#: The same record with the root owner spelled as a pointer to the
#: question name's last octet (offset 14), so it starts ``c0 0e``.
POINTER_OPT = b"\xc0\x0e" + _OPT_AFTER_OWNER


def _query_with_additional(*records: bytes) -> bytes:
    """A query for ``a.`` (name at offset 12, its root octet at 14)
    whose additional section is ``records``."""
    return (struct.pack("!6H", 1, 0, 1, 0, 0, len(records)) + b"\x01a\x00"
            + struct.pack("!HH", RType.A, 1) + b"".join(records))


def test_an_opt_whose_root_owner_is_a_pointer_parses():
    message = decode(_query_with_additional(POINTER_OPT))
    assert message.edns.payload_size == 1232
    assert message.additional == []


def test_an_opt_owner_other_than_the_root_is_a_wire_error():
    with pytest.raises(WireFormatError, match="OPT owner name must be root"):
        Message.from_wire(_query_with_additional(b"\x01b\x00"
                                                 + _OPT_AFTER_OWNER))


@pytest.mark.parametrize("cut", [b"\x00\x00", b"\x00\x00\x29",
                                 b"\x00\x00\x29\x04\xd0"])
def test_an_opt_cut_short_is_a_wire_error(cut):
    with pytest.raises(TruncatedMessageError):
        Message.from_wire(_query_with_additional(cut))


@pytest.mark.parametrize("first, second", [(ROOT_OPT, POINTER_OPT),
                                           (POINTER_OPT, ROOT_OPT)])
def test_a_second_opt_is_a_wire_error(first, second):
    """Each order sends one OPT through the in-place read and one through
    the general read; ``test_message.py`` covers two root-octet OPTs."""
    with pytest.raises(WireFormatError, match="duplicate OPT record"):
        Message.from_wire(_query_with_additional(first, second))


def _parse_name_at(data: bytes, start: int):
    reader = WireReader(data)
    reader.seek(start)
    return reader.read_name()


def _name_via_pointers(n_labels: int) -> tuple[bytes, int]:
    """``n_labels`` one-octet labels laid out back to front, each
    followed by a pointer to the one before; returns the start offset."""
    data = bytearray(b"\x00")
    target = 0
    for _ in range(n_labels):
        here = len(data)
        data += b"\x01x" + struct.pack("!H", 0xC000 | target)
        target = here
    return bytes(data), target


def test_name_over_255_octets_through_pointers_is_a_wire_error():
    header = struct.pack("!6H", 1, 0, 2, 0, 0, 0)
    fixed = struct.pack("!HH", RType.A, 1)
    first = (b"\x3f" + b"x" * 63) * 3 + b"\x00" + fixed       # 193 octets
    for label, fits in ((61, True), (62, False), (63, False)):
        second = bytes([label]) + b"y" * label + b"\xc0\x0c" + fixed
        message = decode(header + first + second)
        assert (message is not None) == fits
        if fits:
            assert message.questions[1].qname.wire_length() == 255
    data, start = _name_via_pointers(127)           # 127 * 2 + 1 = 255
    assert _parse_name_at(data, start).wire_length() == 255
    data, start = _name_via_pointers(128)
    with pytest.raises(WireFormatError, match="255"):
        _parse_name_at(data, start)


def _pointer_chain(jumps: int) -> tuple[bytes, int]:
    data = bytearray(b"\x00")
    for _ in range(jumps):
        data += struct.pack("!H", 0xC000 | max(0, len(data) - 2))
    return bytes(data), len(data) - 2


def test_pointer_budget():
    data, start = _pointer_chain(128)
    assert _parse_name_at(data, start).is_root
    data, start = _pointer_chain(129)
    with pytest.raises(CompressionError, match="too many"):
        _parse_name_at(data, start)


def test_reserved_and_oversize_labels():
    for octet in (0x40, 0x7F, 0x80, 0xBF):
        with pytest.raises(CompressionError):
            _parse_name_at(bytes([octet]) + b"x" * 200, 0)
    with pytest.raises(TruncatedMessageError):
        _parse_name_at(b"\x3f" + b"x" * 62, 0)


# -- bounded work ------------------------------------------------------------


def decode_work(data: bytes) -> int:
    """Python lines executed inside ``repro.dnscore`` while decoding
    ``data`` — a deterministic stand-in for time."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if "dnscore" not in frame.f_code.co_filename:
            return None
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        decode(data)
    finally:
        sys.settrace(previous)
    return lines


def _pointer_heavy(n_records: int) -> bytes:
    """The dearest bytes to decode: a 255-octet question name, then
    minimal records whose owner is a two-octet pointer to it."""
    qname = b"".join(b"\x01x" for _ in range(127)) + b"\x00"
    record = b"\xc0\x0c" + struct.pack("!HHIH", 65280, 1, 0, 0)
    return (struct.pack("!6H", 1, 0x8000, 1, n_records, 0, 0) + qname
            + struct.pack("!HH", 1, 1) + record * n_records)


def _many_empty_txt_strings(n_strings: int) -> bytes:
    return _response_with(RType.TXT, bytes(n_strings))


@pytest.mark.parametrize("family, sizes", [
    (_pointer_heavy, (50, 100, 200)),
    (_many_empty_txt_strings, (2_000, 4_000, 8_000)),
])
def test_decode_work_is_linear_in_input_length(family, sizes):
    assert all(decode(family(n)) is not None for n in sizes)
    small, medium, large = (decode_work(family(n)) for n in sizes)
    # Sizes double, so linear work grows by twice as much each step.
    assert large - medium <= 2.05 * (medium - small)


def test_decode_work_is_bounded_per_octet_over_the_fuzz_corpus():
    ceiling = decode_work(_pointer_heavy(50)) / len(_pointer_heavy(50))
    rng = random.Random(SEED + 2)
    for data in CORPUS:
        for _ in range(12):
            mutated = bytearray(data)
            at = rng.randrange(len(mutated) - 1)
            mutated[at:at + 2] = struct.pack(
                "!H", 0xC000 | rng.randrange(at + 1))
            struct.pack_into("!H", mutated, 4 + 2 * rng.randrange(4), 0xFFFF)
            assert decode_work(bytes(mutated)) <= ceiling * len(mutated) + 200
