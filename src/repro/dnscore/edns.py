"""EDNS0 (RFC 6891) and the Client Subnet option (RFC 7871).

Akamai DNS uses ECS to perform end-user mapping: the mapping system picks
edge servers near the *client's* subnet rather than the resolver's address.
The OPT pseudo-record is carried in the additional section and encodes the
advertised UDP payload size plus a list of options.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from struct import Struct

from .errors import WireFormatError
from .rrtypes import RType
from .wire import WireReader, pack_ipv4, pack_ipv6

OPTION_CLIENT_SUBNET = 8
DEFAULT_PAYLOAD_SIZE = 4096

_ECS_FIXED = Struct("!HBB")         # family, source prefix, scope prefix
_OPTION_FIXED = Struct("!HH")       # option code, option length
#: Root owner, type OPT, then class=payload size, ttl=ext-rcode/version/
#: flags, rdlength (RFC 6891 section 6.1.2).
_OPT_RR = Struct("!BHHBBHH")
_OPT_BODY = Struct("!HBBHH")        # the same, after owner name and type
_FLAG_DO = 0x8000
#: Address width in octets per ECS family (RFC 7871 section 6).
_ECS_FAMILY_OCTETS = {1: 4, 2: 16}


@dataclass(frozen=True, slots=True)
class ClientSubnetOption:
    """EDNS Client Subnet: a source prefix the resolver forwards upstream."""

    family: int  # 1 = IPv4, 2 = IPv6
    source_prefix_length: int
    scope_prefix_length: int
    address: str

    @classmethod
    def for_client(cls, address: str,
                   prefix_length: int | None = None) -> "ClientSubnetOption":
        """Build the option a resolver would send for ``address``.

        RFC 7871 recommends truncating to /24 (IPv4) or /56 (IPv6).
        """
        ip = ipaddress.ip_address(address)
        family = 1 if ip.version == 4 else 2
        if prefix_length is None:
            prefix_length = 24 if ip.version == 4 else 56
        network = ipaddress.ip_network(f"{address}/{prefix_length}",
                                       strict=False)
        return cls(family, prefix_length, 0, str(network.network_address))

    def network(self) -> ipaddress.IPv4Network | ipaddress.IPv6Network:
        """The subnet this option describes."""
        return ipaddress.ip_network(
            f"{self.address}/{self.source_prefix_length}", strict=False
        )

    def to_wire(self) -> bytes:
        address = self.address
        packed = pack_ipv6(address) if ":" in address else pack_ipv4(address)
        return _ECS_FIXED.pack(
            self.family, self.source_prefix_length, self.scope_prefix_length
        ) + packed[: (self.source_prefix_length + 7) // 8]

    @classmethod
    def from_wire(cls, data: bytes) -> "ClientSubnetOption":
        reader = WireReader(data)
        family, source, scope = reader.unpack(_ECS_FIXED)
        width = _ECS_FAMILY_OCTETS.get(family)
        if width is None:
            raise WireFormatError(f"unknown ECS family {family}")
        if source > 8 * width:
            raise WireFormatError(
                f"ECS source prefix /{source} exceeds family {family} width")
        packed = reader.read_bytes((source + 7) // 8).ljust(width, b"\x00")
        return cls(family, source, scope, str(ipaddress.ip_address(packed)))


@dataclass(slots=True)
class EDNSOptions:
    """The decoded OPT pseudo-record attached to a message."""

    payload_size: int = DEFAULT_PAYLOAD_SIZE
    extended_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False
    client_subnet: ClientSubnetOption | None = None
    unknown_options: list[tuple[int, bytes]] = field(default_factory=list)

    def to_wire(self) -> bytes:
        """The OPT RR (always owner name ".", type 41).

        Position-independent — a root owner and no names in the options
        mean no compression pointers in or out — so a message encoder
        can size it before deciding how many records fit in front of it.
        """
        options = b""
        if self.client_subnet is not None:
            data = self.client_subnet.to_wire()
            options = _OPTION_FIXED.pack(OPTION_CLIENT_SUBNET, len(data)) + data
        for code, data in self.unknown_options:
            options += _OPTION_FIXED.pack(code, len(data)) + data
        return _OPT_RR.pack(
            0, RType.OPT, self.payload_size, self.extended_rcode, self.version,
            _FLAG_DO if self.dnssec_ok else 0, len(options)) + options

    @classmethod
    def read_body(cls, reader: WireReader) -> "EDNSOptions":
        """Parse an OPT RR body; the owner name and type were consumed."""
        payload_size, extended_rcode, version, flags, rdlength = \
            reader.unpack(_OPT_BODY)
        end = reader._pos + rdlength
        options = cls(payload_size, extended_rcode, version,
                      bool(flags & _FLAG_DO))
        while reader._pos < end:
            code, length = reader.unpack(_OPTION_FIXED)
            data = reader.read_bytes(length)
            if code == OPTION_CLIENT_SUBNET:
                options.client_subnet = ClientSubnetOption.from_wire(data)
            else:
                options.unknown_options.append((code, data))
        if reader._pos != end:
            raise WireFormatError("OPT options overran rdlength")
        return options
