"""RDATA classes for the record types Akamai DNS serves.

Each class is an immutable dataclass with three codecs: wire (``write`` /
``read``), presentation (``to_text`` / ``from_text``), and Python repr.
Unknown types round-trip as :class:`GenericRdata` so the platform never
drops records it does not understand.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass, field
from struct import Struct
from typing import ClassVar

from .errors import WireFormatError
from .name import Name, name
from .rrtypes import RType
from .wire import WireReader, WireWriter

_SOA_FIXED = Struct("!5I")          # serial refresh retry expire minimum
_SRV_FIXED = Struct("!HHH")         # priority weight port
_CAA_FIXED = Struct("!BB")          # flags, tag length
_KEY_FIXED = Struct("!HBB")         # DNSKEY flags/protocol/alg; DS tag/alg/type
_RRSIG_FIXED = Struct("!HBBIIIH")   # covered alg labels ttl expire incept tag
_BITMAP_FIXED = Struct("!BB")       # NSEC window, bitmap length

#: Exactly the text ``ipaddress.IPv4Address`` accepts: four decimal
#: octets 0-255 in ASCII digits, no leading zeros, nothing around them.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])"
_DOTTED_QUAD = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")

#: Registry mapping RType -> rdata class, populated by ``_register``.
RDATA_CLASSES: dict[int, type["Rdata"]] = {}


def _register(cls: type["Rdata"]) -> type["Rdata"]:
    RDATA_CLASSES[int(cls.rtype)] = cls
    return cls


class Rdata:
    """Base class; subclasses set :attr:`rtype` and implement the codecs."""

    rtype: ClassVar[RType]

    def write(self, writer: WireWriter) -> None:
        raise NotImplementedError

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    @classmethod
    def from_text(cls, fields: list[str]) -> "Rdata":
        raise NotImplementedError


def _require_fields(fields: list[str], count: int, rtype: str) -> None:
    if len(fields) != count:
        raise ValueError(f"{rtype} rdata needs {count} fields, got {len(fields)}")


@_register
@dataclass(frozen=True, slots=True)
class A(Rdata):
    """IPv4 address record; ``octets``, its wire form, is set once by
    the validating parse and takes no part in equality, hash or repr."""

    address: str
    octets: bytes = field(init=False, repr=False, compare=False)
    rtype: ClassVar[RType] = RType.A

    def __post_init__(self) -> None:
        address = self.address
        if _DOTTED_QUAD.fullmatch(address) is None:
            # Same verdict; ipaddress is called for its error text.
            ipaddress.IPv4Address(address)
        object.__setattr__(self, "octets",
                           bytes(map(int, address.split("."))))

    def write(self, writer: WireWriter) -> None:
        writer.buf += self.octets

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "A":
        if rdlength != 4:
            raise WireFormatError(f"A rdata must be 4 octets, got {rdlength}")
        return cls("%d.%d.%d.%d" % tuple(reader.read_bytes(4)))

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_text(cls, fields: list[str]) -> "A":
        _require_fields(fields, 1, "A")
        return cls(fields[0])


@_register
@dataclass(frozen=True, slots=True)
class AAAA(Rdata):
    """IPv6 address record; ``address`` is normalized, ``octets`` as in
    :class:`A`."""

    address: str
    octets: bytes = field(init=False, repr=False, compare=False)
    rtype: ClassVar[RType] = RType.AAAA

    def __post_init__(self) -> None:
        address = ipaddress.IPv6Address(self.address)
        object.__setattr__(self, "address", str(address))
        object.__setattr__(self, "octets", address.packed)

    def write(self, writer: WireWriter) -> None:
        writer.buf += self.octets

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "AAAA":
        if rdlength != 16:
            raise WireFormatError(f"AAAA rdata must be 16 octets, got {rdlength}")
        return cls(str(ipaddress.IPv6Address(reader.read_bytes(16))))

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_text(cls, fields: list[str]) -> "AAAA":
        _require_fields(fields, 1, "AAAA")
        return cls(fields[0])


class _SingleNameRdata(Rdata):
    """Shared implementation for rdata that is exactly one domain name."""

    target: Name

    def write(self, writer: WireWriter) -> None:
        writer.write_name(self.target)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "Rdata":
        return cls(reader.read_name())  # type: ignore[call-arg]

    def to_text(self) -> str:
        return str(self.target)

    @classmethod
    def from_text(cls, fields: list[str]) -> "Rdata":
        _require_fields(fields, 1, cls.rtype.name)
        return cls(name(fields[0]))  # type: ignore[call-arg]


@_register
@dataclass(frozen=True, slots=True)
class NS(_SingleNameRdata):
    """Authoritative nameserver delegation record."""

    target: Name
    rtype: ClassVar[RType] = RType.NS


@_register
@dataclass(frozen=True, slots=True)
class CNAME(_SingleNameRdata):
    """Canonical-name alias record."""

    target: Name
    rtype: ClassVar[RType] = RType.CNAME


@_register
@dataclass(frozen=True, slots=True)
class PTR(_SingleNameRdata):
    """Reverse-mapping pointer record."""

    target: Name
    rtype: ClassVar[RType] = RType.PTR


@_register
@dataclass(frozen=True, slots=True)
class SOA(Rdata):
    """Start-of-authority record carrying zone timing parameters."""

    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int
    rtype: ClassVar[RType] = RType.SOA

    def write(self, writer: WireWriter) -> None:
        writer.write_name(self.mname)
        writer.write_name(self.rname)
        writer.buf += _SOA_FIXED.pack(self.serial, self.refresh, self.retry,
                                      self.expire, self.minimum)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "SOA":
        return cls(reader.read_name(), reader.read_name(),
                   *reader.unpack(_SOA_FIXED))

    def to_text(self) -> str:
        return (f"{self.mname} {self.rname} {self.serial} {self.refresh} "
                f"{self.retry} {self.expire} {self.minimum}")

    @classmethod
    def from_text(cls, fields: list[str]) -> "SOA":
        _require_fields(fields, 7, "SOA")
        return cls(name(fields[0]), name(fields[1]), *map(int, fields[2:7]))


@_register
@dataclass(frozen=True, slots=True)
class MX(Rdata):
    """Mail-exchanger record."""

    preference: int
    exchange: Name
    rtype: ClassVar[RType] = RType.MX

    def write(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write_name(self.exchange)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "MX":
        return cls(reader.read_u16(), reader.read_name())

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange}"

    @classmethod
    def from_text(cls, fields: list[str]) -> "MX":
        _require_fields(fields, 2, "MX")
        return cls(int(fields[0]), name(fields[1]))


@_register
@dataclass(frozen=True, slots=True)
class TXT(Rdata):
    """Free-form text record; one or more <character-string>s."""

    strings: tuple[bytes, ...]
    rtype: ClassVar[RType] = RType.TXT

    def __post_init__(self) -> None:
        if not self.strings:
            raise ValueError("TXT rdata needs at least one string")
        for s in self.strings:
            if len(s) > 255:
                raise ValueError("TXT string exceeds 255 octets")

    def write(self, writer: WireWriter) -> None:
        buf = writer.buf
        for s in self.strings:
            buf.append(len(s))
            buf += s

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "TXT":
        end = reader.position + rdlength
        strings = []
        while reader.position < end:
            length = reader.read_u8()
            strings.append(reader.read_bytes(length))
        if reader.position != end:
            raise WireFormatError("TXT strings overran rdlength")
        if not strings:
            raise WireFormatError("TXT rdata needs at least one string")
        return cls(tuple(strings))

    def to_text(self) -> str:
        return " ".join(
            '"' + s.decode("ascii", "backslashreplace").replace('"', '\\"') + '"'
            for s in self.strings
        )

    @classmethod
    def from_text(cls, fields: list[str]) -> "TXT":
        if not fields:
            raise ValueError("TXT rdata needs at least one string")
        return cls(tuple(f.strip('"').encode("ascii") for f in fields))


@_register
@dataclass(frozen=True, slots=True)
class SRV(Rdata):
    """Service-location record."""

    priority: int
    weight: int
    port: int
    target: Name
    rtype: ClassVar[RType] = RType.SRV

    def write(self, writer: WireWriter) -> None:
        writer.buf += _SRV_FIXED.pack(self.priority, self.weight, self.port)
        writer.write_name(self.target)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "SRV":
        return cls(*reader.unpack(_SRV_FIXED), reader.read_name())

    def to_text(self) -> str:
        return f"{self.priority} {self.weight} {self.port} {self.target}"

    @classmethod
    def from_text(cls, fields: list[str]) -> "SRV":
        _require_fields(fields, 4, "SRV")
        return cls(int(fields[0]), int(fields[1]), int(fields[2]),
                   name(fields[3]))


@_register
@dataclass(frozen=True, slots=True)
class CAA(Rdata):
    """Certification-authority authorization record."""

    flags: int
    tag: bytes
    value: bytes
    rtype: ClassVar[RType] = RType.CAA

    def write(self, writer: WireWriter) -> None:
        writer.buf += _CAA_FIXED.pack(self.flags, len(self.tag))
        writer.buf += self.tag
        writer.buf += self.value

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "CAA":
        flags, tag_len = reader.unpack(_CAA_FIXED)
        return cls(flags, reader.read_bytes(tag_len),
                   reader.read_bytes(rdlength - 2 - tag_len))

    def to_text(self) -> str:
        return (f'{self.flags} {self.tag.decode("ascii")} '
                f'"{self.value.decode("ascii", "backslashreplace")}"')

    @classmethod
    def from_text(cls, fields: list[str]) -> "CAA":
        _require_fields(fields, 3, "CAA")
        return cls(int(fields[0]), fields[1].encode("ascii"),
                   fields[2].strip('"').encode("ascii"))


def _type_to_text(value: int) -> str:
    try:
        return RType(value).name
    except ValueError:
        return f"TYPE{value}"


def _type_from_text(field: str) -> int:
    if field.upper().startswith("TYPE") and field[4:].isdigit():
        return int(field[4:])
    return int(RType.from_text(field))


def _write_type_bitmaps(writer: WireWriter, types: tuple[int, ...]) -> None:
    """Emit the RFC 4034 section 4.1.2 window-block encoding."""
    windows: dict[int, bytearray] = {}
    for value in types:
        window, low = value >> 8, value & 0xFF
        bitmap = windows.setdefault(window, bytearray(32))
        bitmap[low >> 3] |= 0x80 >> (low & 7)
    for window in sorted(windows):
        bitmap = windows[window]
        length = 32
        while length > 0 and bitmap[length - 1] == 0:
            length -= 1
        writer.buf += _BITMAP_FIXED.pack(window, length)
        writer.buf += bitmap[:length]


def _read_type_bitmaps(reader: WireReader, end: int) -> tuple[int, ...]:
    types: list[int] = []
    while reader.position < end:
        window, length = reader.unpack(_BITMAP_FIXED)
        if not 0 < length <= 32:
            raise WireFormatError(f"NSEC bitmap length {length} out of range")
        bitmap = reader.read_bytes(length)
        for i, octet in enumerate(bitmap):
            for bit in range(8):
                if octet & (0x80 >> bit):
                    types.append((window << 8) | (i << 3) | bit)
    if reader.position != end:
        raise WireFormatError("NSEC type bitmaps overran rdlength")
    return tuple(types)


@_register
@dataclass(frozen=True, slots=True)
class DNSKEY(Rdata):
    """Zone public key (RFC 4034 section 2).

    The simulation uses algorithm 253 (PRIVATEDNS): ``public_key`` is
    the digest commitment of a seed-derived secret, not real key
    material, so signing stays deterministic with no crypto library.
    """

    flags: int            # 256 = ZSK, 257 = KSK (SEP bit set)
    protocol: int         # always 3 per RFC 4034
    algorithm: int
    public_key: bytes
    rtype: ClassVar[RType] = RType.DNSKEY

    def write(self, writer: WireWriter) -> None:
        writer.buf += _KEY_FIXED.pack(self.flags, self.protocol,
                                      self.algorithm)
        writer.buf += self.public_key

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "DNSKEY":
        if rdlength < 4:
            raise WireFormatError(f"DNSKEY rdata too short: {rdlength}")
        return cls(*reader.unpack(_KEY_FIXED), reader.read_bytes(rdlength - 4))

    def to_text(self) -> str:
        return (f"{self.flags} {self.protocol} {self.algorithm} "
                f"{self.public_key.hex()}")

    @classmethod
    def from_text(cls, fields: list[str]) -> "DNSKEY":
        _require_fields(fields, 4, "DNSKEY")
        return cls(int(fields[0]), int(fields[1]), int(fields[2]),
                   bytes.fromhex(fields[3]))

    def key_tag(self) -> int:
        """RFC 4034 appendix B key tag over the rdata wire form."""
        writer = WireWriter(compress=False)
        self.write(writer)
        data = writer.getvalue()
        acc = 0
        for i, octet in enumerate(data):
            acc += octet if i & 1 else octet << 8
        return ((acc & 0xFFFF) + (acc >> 16)) & 0xFFFF


@_register
@dataclass(frozen=True, slots=True)
class RRSIG(Rdata):
    """RRset signature (RFC 4034 section 3).

    ``expiration``/``inception`` hold simulation-epoch seconds, not
    wall-clock serial-arithmetic timestamps; the simulator's clock is
    the only time base.
    """

    type_covered: int
    algorithm: int
    labels: int
    original_ttl: int
    expiration: int
    inception: int
    key_tag: int
    signer: Name
    signature: bytes
    rtype: ClassVar[RType] = RType.RRSIG

    def write(self, writer: WireWriter) -> None:
        writer.buf += _RRSIG_FIXED.pack(
            self.type_covered, self.algorithm, self.labels, self.original_ttl,
            self.expiration, self.inception, self.key_tag)
        writer.write_name_uncompressed(self.signer)
        writer.buf += self.signature

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "RRSIG":
        end = reader.position + rdlength
        fixed = reader.unpack(_RRSIG_FIXED)
        signer = reader.read_name()
        if reader.position > end:
            raise WireFormatError("RRSIG signer overran rdlength")
        return cls(*fixed, signer, reader.read_bytes(end - reader.position))

    def to_text(self) -> str:
        return (f"{_type_to_text(self.type_covered)} {self.algorithm} "
                f"{self.labels} {self.original_ttl} {self.expiration} "
                f"{self.inception} {self.key_tag} {self.signer} "
                f"{self.signature.hex()}")

    @classmethod
    def from_text(cls, fields: list[str]) -> "RRSIG":
        _require_fields(fields, 9, "RRSIG")
        return cls(_type_from_text(fields[0]), int(fields[1]),
                   int(fields[2]), int(fields[3]), int(fields[4]),
                   int(fields[5]), int(fields[6]), name(fields[7]),
                   bytes.fromhex(fields[8]))


@_register
@dataclass(frozen=True, slots=True)
class NSEC(Rdata):
    """Authenticated denial of existence (RFC 4034 section 4)."""

    next_name: Name
    types: tuple[int, ...]
    rtype: ClassVar[RType] = RType.NSEC

    def __post_init__(self) -> None:
        object.__setattr__(self, "types",
                           tuple(sorted({int(t) for t in self.types})))

    def write(self, writer: WireWriter) -> None:
        writer.write_name_uncompressed(self.next_name)
        _write_type_bitmaps(writer, self.types)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "NSEC":
        end = reader.position + rdlength
        next_name = reader.read_name()
        if reader.position > end:
            raise WireFormatError("NSEC next name overran rdlength")
        return cls(next_name, _read_type_bitmaps(reader, end))

    def to_text(self) -> str:
        mnemonics = " ".join(_type_to_text(t) for t in self.types)
        return f"{self.next_name} {mnemonics}".rstrip()

    @classmethod
    def from_text(cls, fields: list[str]) -> "NSEC":
        if not fields:
            raise ValueError("NSEC rdata needs at least a next name")
        return cls(name(fields[0]),
                   tuple(_type_from_text(f) for f in fields[1:]))


@_register
@dataclass(frozen=True, slots=True)
class DS(Rdata):
    """Delegation signer digest (RFC 4034 section 5)."""

    key_tag: int
    algorithm: int
    digest_type: int
    digest: bytes
    rtype: ClassVar[RType] = RType.DS

    def write(self, writer: WireWriter) -> None:
        writer.buf += _KEY_FIXED.pack(self.key_tag, self.algorithm,
                                      self.digest_type)
        writer.buf += self.digest

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "DS":
        if rdlength < 4:
            raise WireFormatError(f"DS rdata too short: {rdlength}")
        return cls(*reader.unpack(_KEY_FIXED), reader.read_bytes(rdlength - 4))

    def to_text(self) -> str:
        return (f"{self.key_tag} {self.algorithm} {self.digest_type} "
                f"{self.digest.hex()}")

    @classmethod
    def from_text(cls, fields: list[str]) -> "DS":
        _require_fields(fields, 4, "DS")
        return cls(int(fields[0]), int(fields[1]), int(fields[2]),
                   bytes.fromhex(fields[3]))


@dataclass(frozen=True, slots=True)
class GenericRdata(Rdata):
    """Opaque rdata for types without a dedicated class (RFC 3597)."""

    type_value: int
    data: bytes
    rtype: ClassVar[RType] = RType.ANY  # placeholder; real type in type_value

    def write(self, writer: WireWriter) -> None:
        writer.buf += self.data

    @classmethod
    def read_generic(cls, reader: WireReader, rdlength: int,
                     type_value: int) -> "GenericRdata":
        return cls(type_value, reader.read_bytes(rdlength))

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"


def read_rdata(reader: WireReader, type_value: int, rdlength: int) -> Rdata:
    """Dispatch rdata parsing by type, falling back to :class:`GenericRdata`."""
    end = reader.position + rdlength
    rdata_cls = RDATA_CLASSES.get(type_value)
    if rdata_cls is None:
        rdata = GenericRdata.read_generic(reader, rdlength, type_value)
    else:
        rdata = rdata_cls.read(reader, rdlength)
    if reader.position != end:
        raise WireFormatError(
            f"rdata for type {type_value} consumed {reader.position - (end - rdlength)}"
            f" of {rdlength} octets"
        )
    return rdata


def rdata_from_text(rtype: RType, fields: list[str]) -> Rdata:
    """Parse presentation-format rdata fields for ``rtype``."""
    rdata_cls = RDATA_CLASSES.get(int(rtype))
    if rdata_cls is None:
        raise ValueError(f"no presentation parser for type {rtype}")
    return rdata_cls.from_text(fields)
