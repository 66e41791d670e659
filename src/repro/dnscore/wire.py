"""Low-level wire format primitives: cursor-based reader and writer.

The writer implements RFC 1035 section 4.1.4 name compression: every name
(or name suffix) already emitted is remembered by wire offset, and later
occurrences are replaced with a two-octet pointer. The reader resolves
pointers with loop and forward-reference protection.

Multi-field layouts are precompiled :class:`struct.Struct` objects owned
by the module that defines the layout; codecs append ``LAYOUT.pack(...)``
to :attr:`WireWriter.buf` and decode with :meth:`WireReader.unpack`, so
a fixed group of fields costs one bounds check and one C call.
"""

from __future__ import annotations

from struct import Struct

from .errors import CompressionError, TruncatedMessageError, WireFormatError
from .name import MAX_LABEL_LENGTH, MAX_NAME_LENGTH, Name

_POINTER_MASK = 0xC0
_POINTER_FLAG = 0xC000
_MAX_POINTER_TARGET = 0x3FFF
_MAX_POINTER_JUMPS = 128

_U8 = Struct("!B")
_U16 = Struct("!H")
_U32 = Struct("!I")
_IPV4 = Struct("!4B")
_IPV6 = Struct("!8H")


def pack_ipv4(text: str) -> bytes:
    """The four octets of a dotted-quad address (no ``ipaddress`` parse)."""
    return _IPV4.pack(*map(int, text.split(".")))


def pack_ipv6(text: str) -> bytes:
    """The sixteen octets of an address in ``str(IPv6Address)`` form.

    Accepts what :mod:`ipaddress` renders: hex groups with at most one
    ``::``, an optional ``%scope`` (ignored, as ``.packed`` ignores it)
    and the dotted IPv4 tail newer Pythons print for mapped addresses.
    """
    text = text.partition("%")[0]
    if "." in text:
        text, _, quad = text.rpartition(":")
        a, b, c, d = pack_ipv4(quad)
        text = f"{text}:{a << 8 | b:x}:{c << 8 | d:x}"
    head, gap, tail = text.partition("::")
    left = head.split(":") if head else []
    right = tail.split(":") if tail else []
    fill = 8 - len(left) - len(right) if gap else 0
    return _IPV6.pack(*(int(g, 16) for g in left + ["0"] * fill + right))


class WireWriter:
    """Accumulates a DNS message, compressing names as they are written."""

    __slots__ = ("buf", "_offsets", "_compress")

    def __init__(self, *, compress: bool = True) -> None:
        #: The message so far; codecs append packed fields to it directly.
        self.buf = bytearray()
        self._offsets: dict[tuple[bytes, ...], int] = {}
        self._compress = compress

    def __len__(self) -> int:
        return len(self.buf)

    def getvalue(self) -> bytes:
        return bytes(self.buf)

    def write_u8(self, value: int) -> None:
        self.buf += _U8.pack(value)

    def write_u16(self, value: int) -> None:
        self.buf += _U16.pack(value)

    def write_u32(self, value: int) -> None:
        self.buf += _U32.pack(value)

    def write_name(self, name: Name) -> None:
        """Write ``name``, emitting a compression pointer where possible."""
        if not self._compress:
            self.write_name_uncompressed(name)
            return
        buf = self.buf
        offsets = self._offsets
        # The name is the first suffix: it and the label tuples sliced
        # off it are equal keys.
        suffix: tuple[bytes, ...] = name
        while suffix:
            offset = offsets.get(suffix)
            if offset is not None:
                buf += _U16.pack(_POINTER_FLAG | offset)
                return
            here = len(buf)
            if here <= _MAX_POINTER_TARGET:
                offsets[suffix] = here
            label = suffix[0]
            buf.append(len(label))
            buf += label
            suffix = suffix[1:]
        buf.append(0)

    def write_name_uncompressed(self, name: Name) -> None:
        """Write ``name`` without emitting or recording pointers.

        RFC 3597 forbids compression inside the rdata of types it does
        not grandfather; RFC 4034 additionally requires the RRSIG signer
        and NSEC next-name fields uncompressed so signatures cover a
        stable byte sequence.
        """
        buf = self.buf
        for label in name:
            buf.append(len(label))
            buf += label
        buf.append(0)


class WireReader:
    """Cursor over a received DNS message with pointer-safe name parsing."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def seek(self, pos: int) -> None:
        if not 0 <= pos <= len(self._data):
            raise TruncatedMessageError(f"seek to {pos} outside message")
        self._pos = pos

    def unpack(self, layout: Struct) -> tuple:
        """Decode one fixed ``layout`` at the cursor and advance past it."""
        pos = self._pos
        end = pos + layout.size
        if end > len(self._data):
            raise TruncatedMessageError(
                f"wanted {layout.size} octets, only {self.remaining} remain"
            )
        self._pos = end
        return layout.unpack_from(self._data, pos)

    def read_bytes(self, count: int) -> bytes:
        if not 0 <= count <= self.remaining:
            raise TruncatedMessageError(
                f"wanted {count} octets, only {self.remaining} remain"
            )
        out = self._data[self._pos : self._pos + count]
        self._pos += count
        return out

    def read_u8(self) -> int:
        return self.unpack(_U8)[0]

    def read_u16(self) -> int:
        return self.unpack(_U16)[0]

    def read_name(self) -> Name:
        """Parse a possibly compressed name starting at the cursor.

        Pointers must point strictly backwards, so loops cannot occur;
        work is bounded anyway by the pointer budget and by the
        255-octet name limit, enforced while labels accumulate so a
        pointer chain cannot assemble an over-long name.
        """
        data = self._data
        size = len(data)
        labels: list[bytes] = []
        wire_len = 1
        jumps = 0
        return_pos = -1
        pos = self._pos
        while True:
            if pos >= size:
                raise TruncatedMessageError("name ran off end of message")
            length = data[pos]
            if length == 0:
                break
            if length <= MAX_LABEL_LENGTH:
                end = pos + 1 + length
                if end > size:
                    raise TruncatedMessageError("label ran off end of message")
                wire_len += 1 + length
                if wire_len > MAX_NAME_LENGTH:
                    raise WireFormatError(
                        f"name exceeds {MAX_NAME_LENGTH} octets")
                labels.append(data[pos + 1 : end].lower())
                pos = end
            elif length >= _POINTER_MASK:
                if pos + 1 >= size:
                    raise TruncatedMessageError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | data[pos + 1]
                if target >= pos:
                    raise CompressionError(
                        f"forward compression pointer {target} at {pos}"
                    )
                if return_pos < 0:
                    return_pos = pos + 2
                jumps += 1
                if jumps > _MAX_POINTER_JUMPS:
                    raise CompressionError("too many compression pointers")
                pos = target
            else:
                raise CompressionError(f"reserved label type {length:#04x}")
        self._pos = return_pos if return_pos >= 0 else pos + 1
        # Bounds-checked and case-folded above: one construction, not
        # interned (wire input is attacker-supplied).
        return Name._from_validated(labels)
