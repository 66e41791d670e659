"""Resource records, RRsets, and question entries.

A :class:`ResourceRecord` is one (name, type, class, ttl, rdata) tuple; an
:class:`RRset` groups records sharing (name, type, class) — the unit in
which an authoritative server stores and serves data (RFC 2181 section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .name import Name
from .rdata import Rdata
from .rrtypes import RClass, RType

MAX_TTL = 2**31 - 1


class Question(NamedTuple):
    """One entry of a DNS question section: an immutable tuple."""

    qname: Name
    qtype: RType
    qclass: RClass = RClass.IN

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

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """A copy of this record with a different TTL (cache aging).

        Set through the slots, without the dataclass ``__init__`` and
        ``__post_init__`` frames; the TTL range check is the same.
        """
        if not 0 <= ttl <= MAX_TTL:
            raise ValueError(f"TTL {ttl} out of range")
        copy = _new_object(ResourceRecord)
        _set_name(copy, self.name)
        _set_rtype(copy, self.rtype)
        _set_rclass(copy, self.rclass)
        _set_ttl(copy, ttl)
        _set_rdata(copy, self.rdata)
        return copy

    def to_text(self) -> str:
        rtype_name = (self.rtype.name if isinstance(self.rtype, RType)
                      else f"TYPE{self.rtype}")
        return (f"{self.name} {self.ttl} {self.rclass.name} {rtype_name} "
                f"{self.rdata.to_text()}")

    def __str__(self) -> str:
        return self.to_text()


_new_object = object.__new__
_set_name, _set_rtype, _set_rclass, _set_ttl, _set_rdata = (
    ResourceRecord.__dict__[f].__set__
    for f in ("name", "rtype", "rclass", "ttl", "rdata"))


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

    def with_owner(self, owner: Name) -> "RRset":
        """A copy re-owned at ``owner`` (wildcard expansion)."""
        return RRset(owner, self.rtype, self.rclass, self.ttl, [
            ResourceRecord(owner, r.rtype, r.rclass, r.ttl, r.rdata)
            for r in self.records])

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
