"""Record types, classes, opcodes, and response codes.

Values follow the IANA DNS parameter registries. Only the subset that a
large authoritative platform actually serves is enumerated; unknown values
round-trip through the wire codec as opaque integers.
"""

from __future__ import annotations

import enum


class RType(enum.IntEnum):
    """Resource record TYPE values (IANA registry)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    OPT = 41
    DS = 43
    RRSIG = 46
    NSEC = 47
    DNSKEY = 48
    CAA = 257
    AXFR = 252
    ANY = 255

    @classmethod
    def from_text(cls, text: str) -> "RType":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown RR type {text!r}") from None


#: Types that may appear in question sections but never as stored records.
QUERY_ONLY_TYPES = frozenset({RType.AXFR, RType.ANY})

#: DNSSEC record types (RFC 4034). These coexist with any owner type —
#: including CNAME, whose single-type exclusivity rule explicitly
#: excepts them — and are maintained by the signing pipeline rather
#: than by zone authors.
DNSSEC_TYPES = frozenset({RType.DS, RType.RRSIG, RType.NSEC, RType.DNSKEY})


class RClass(enum.IntEnum):
    """Resource record CLASS values. Everything real is IN."""

    IN = 1
    CH = 3
    ANY = 255

    @classmethod
    def from_text(cls, text: str) -> "RClass":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown RR class {text!r}") from None


class Opcode(enum.IntEnum):
    """DNS message opcodes."""

    QUERY = 0
    NOTIFY = 4
    UPDATE = 5


class RCode(enum.IntEnum):
    """DNS response codes."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


#: Wire value -> member, so decoders map a field with one dict probe
#: instead of ``Enum.__call__`` inside ``try``/``except``.
RTYPE_BY_VALUE: dict[int, RType] = {int(m): m for m in RType}
RCLASS_BY_VALUE: dict[int, RClass] = {int(m): m for m in RClass}
OPCODE_BY_VALUE: dict[int, Opcode] = {int(m): m for m in Opcode}
RCODE_BY_VALUE: dict[int, RCode] = {int(m): m for m in RCode}
