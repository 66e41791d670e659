"""Tests for wire-format primitives and name compression."""

import ipaddress
import struct

import pytest

from repro.dnscore import (
    CompressionError,
    TruncatedMessageError,
    WireReader,
    WireWriter,
    name,
)
from repro.dnscore.wire import pack_ipv4, pack_ipv6


class TestWriter:
    def test_integers(self):
        w = WireWriter()
        w.write_u8(0xAB)
        w.write_u16(0x1234)
        w.write_u32(0xDEADBEEF)
        assert w.getvalue() == bytes.fromhex("ab1234deadbeef")

    def test_name_uncompressed(self):
        w = WireWriter(compress=False)
        w.write_name(name("ab.cd"))
        w.write_name(name("ab.cd"))
        data = w.getvalue()
        assert data == b"\x02ab\x02cd\x00" * 2

    def test_name_compression_pointer(self):
        w = WireWriter()
        w.write_name(name("www.example.com"))
        first_len = len(w)
        w.write_name(name("example.com"))
        # Second name should be a 2-byte pointer to offset 4.
        assert len(w) == first_len + 2
        data = w.getvalue()
        assert data[first_len] & 0xC0 == 0xC0

    def test_suffix_compression(self):
        w = WireWriter()
        w.write_name(name("example.com"))
        w.write_name(name("www.example.com"))
        # www + pointer: 1 + 3 + 2 bytes.
        assert len(w.getvalue()) == 13 + 6

    def test_root_is_single_zero(self):
        w = WireWriter()
        w.write_name(name("."))
        assert w.getvalue() == b"\x00"


class TestReader:
    def test_roundtrip_compressed(self):
        w = WireWriter()
        names = [name("www.example.com"), name("example.com"),
                 name("mail.example.com"), name(".")]
        for n in names:
            w.write_name(n)
        r = WireReader(w.getvalue())
        assert [r.read_name() for _ in names] == names
        assert r.remaining == 0

    def test_truncated_label(self):
        r = WireReader(b"\x05ab")
        with pytest.raises(TruncatedMessageError):
            r.read_name()

    def test_truncated_integer(self):
        r = WireReader(b"\x01")
        with pytest.raises(TruncatedMessageError):
            r.read_u16()

    def test_forward_pointer_rejected(self):
        # Pointer at offset 0 pointing to offset 5 (forward).
        r = WireReader(b"\xc0\x05" + b"\x00" * 6)
        with pytest.raises(CompressionError):
            r.read_name()

    def test_self_pointer_rejected(self):
        r = WireReader(b"\xc0\x00")
        with pytest.raises(CompressionError):
            r.read_name()

    def test_reserved_label_type_rejected(self):
        r = WireReader(b"\x80\x01")
        with pytest.raises(CompressionError):
            r.read_name()

    def test_pointer_resolution_position(self):
        # name, then a pointer; cursor must land after the pointer.
        w = WireWriter()
        w.write_name(name("a.b"))
        w.write_name(name("a.b"))
        w.write_u8(0x77)
        r = WireReader(w.getvalue())
        r.read_name()
        r.read_name()
        assert r.read_u8() == 0x77

    def test_seek_bounds(self):
        r = WireReader(b"abc")
        r.seek(3)
        with pytest.raises(TruncatedMessageError):
            r.seek(4)


class TestAddressPacking:
    """The ECS encoder packs validated address text without
    ``ipaddress``; the result must equal what ``ipaddress`` would have
    packed."""

    @pytest.mark.parametrize("text", [
        "0.0.0.0", "192.0.2.1", "255.255.255.255", "10.44.7.254"])
    def test_ipv4(self, text):
        assert pack_ipv4(text) == ipaddress.IPv4Address(text).packed

    @pytest.mark.parametrize("text", [
        "::", "::1", "1::", "2001:db8::1", "2001:db8:0:1:2:3:4:5",
        "fe80::1%eth0", "::ffff:192.0.2.1", "64:ff9b::203.0.113.9",
        "2001:DB8::Ff00:42:8329"])
    def test_ipv6(self, text):
        address = ipaddress.IPv6Address(text)
        assert pack_ipv6(text) == address.packed
        assert pack_ipv6(str(address)) == address.packed

    def test_malformed_text_raises(self):
        for pack, text in ((pack_ipv4, "1.2.3"), (pack_ipv4, "1.2.3.256"),
                           (pack_ipv6, "1:2:3"), (pack_ipv6, "12345::")):
            with pytest.raises((ValueError, struct.error)):
                pack(text)
