"""Resource records, RRsets, and question entries.

A :class:`ResourceRecord` is one (name, type, class, ttl, rdata) tuple; an
:class:`RRset` groups records sharing (name, type, class) — the unit in
which an authoritative server stores and serves data (RFC 2181 section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import Struct

from .errors import WireFormatError
from .name import Name
from .rdata import Rdata, read_rdata
from .rrtypes import RCLASS_BY_VALUE, RTYPE_BY_VALUE, RClass, RType
from .wire import WireReader, WireWriter

MAX_TTL = 2**31 - 1

_QUESTION_FIXED = Struct("!HH")     # qtype, qclass
_RR_FIXED = Struct("!HHIH")         # type, class, ttl, rdlength


@dataclass(frozen=True, slots=True)
class Question:
    """One entry of a DNS question section."""

    qname: Name
    qtype: RType
    qclass: RClass = RClass.IN

    def write(self, writer: WireWriter) -> None:
        writer.write_name(self.qname)
        writer.buf += _QUESTION_FIXED.pack(self.qtype, self.qclass)

    @classmethod
    def read(cls, reader: WireReader) -> "Question":
        qname = reader.read_name()
        qtype_value, qclass_value = reader.unpack(_QUESTION_FIXED)
        qtype = RTYPE_BY_VALUE.get(qtype_value)
        if qtype is None:
            raise WireFormatError(f"unsupported qtype {qtype_value}")
        qclass = RCLASS_BY_VALUE.get(qclass_value)
        if qclass is None:
            raise WireFormatError(f"unsupported qclass {qclass_value}")
        return cls(qname, qtype, qclass)

    def __str__(self) -> str:
        return f"{self.qname} {self.qclass.name} {self.qtype.name}"


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """A single resource record."""

    name: Name
    rtype: RType
    rclass: RClass
    ttl: int
    rdata: Rdata

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= MAX_TTL:
            raise ValueError(f"TTL {self.ttl} out of range")

    def write(self, writer: WireWriter) -> None:
        writer.write_name(self.name)
        buf = writer.buf
        buf += _RR_FIXED.pack(self.rtype, self.rclass, self.ttl, 0)
        start = len(buf)
        self.rdata.write(writer)
        writer.patch_u16(start - 2, len(buf) - start)

    @classmethod
    def read(cls, reader: WireReader) -> "ResourceRecord":
        name = reader.read_name()
        type_value, class_value, ttl, rdlength = reader.unpack(_RR_FIXED)
        if ttl > MAX_TTL:
            # RFC 2181 section 8: a TTL with the high bit set is
            # treated as zero rather than rejected.
            ttl = 0
        rdata = read_rdata(reader, type_value, rdlength)
        # Unknown types and classes round-trip as opaque integers.
        return cls(name, RTYPE_BY_VALUE.get(type_value, type_value),
                   RCLASS_BY_VALUE.get(class_value, class_value), ttl, rdata)

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """A copy of this record with a different TTL (cache aging)."""
        return ResourceRecord(self.name, self.rtype, self.rclass, ttl,
                              self.rdata)

    def to_text(self) -> str:
        rtype_name = (self.rtype.name if isinstance(self.rtype, RType)
                      else f"TYPE{self.rtype}")
        return (f"{self.name} {self.ttl} {self.rclass.name} {rtype_name} "
                f"{self.rdata.to_text()}")

    def __str__(self) -> str:
        return self.to_text()


@dataclass(slots=True)
class RRset:
    """All records sharing a (name, type, class) triple.

    RFC 2181 requires one TTL per RRset; :meth:`add` normalizes any
    mismatched TTL down to the set minimum, matching production behaviour
    where inconsistent TTLs are an authoring error silently repaired.
    """

    name: Name
    rtype: RType
    rclass: RClass = RClass.IN
    ttl: int = 0
    records: list[ResourceRecord] = field(default_factory=list)

    @property
    def key(self) -> tuple[Name, RType, RClass]:
        return (self.name, self.rtype, self.rclass)

    def add(self, record: ResourceRecord) -> None:
        if (record.name, record.rtype, record.rclass) != self.key:
            raise ValueError(f"record {record} does not belong to rrset {self.key}")
        if record.rdata not in [r.rdata for r in self.records]:
            self._append(record)

    def _append(self, record: ResourceRecord) -> None:
        """Add a record of this set whose rdata is known to be new."""
        if not self.records:
            self.ttl = record.ttl
        elif record.ttl < self.ttl:
            # Only a falling TTL rewrites the records already in the set.
            self.ttl = record.ttl
            self.records[:] = [r.with_ttl(self.ttl) for r in self.records]
        elif record.ttl > self.ttl:
            record = record.with_ttl(self.ttl)
        self.records.append(record)

    def rdatas(self) -> list[Rdata]:
        return [r.rdata for r in self.records]

    def with_ttl(self, ttl: int) -> "RRset":
        """A copy at TTL ``ttl``; records already at it are shared as is."""
        return RRset(self.name, self.rtype, self.rclass, ttl, [
            r if r.ttl == ttl else r.with_ttl(ttl) for r in self.records])

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.records)


def make_rrset(name: Name, rtype: RType, ttl: int,
               rdatas: list[Rdata], rclass: RClass = RClass.IN) -> RRset:
    """Convenience constructor building an RRset from rdata values."""
    rrset = RRset(name, rtype, rclass, ttl)
    for rdata in rdatas:
        rrset.add(ResourceRecord(name, rtype, rclass, ttl, rdata))
    return rrset
