"""DNS messages: header, flags, sections, and the full wire codec.

This is the unit exchanged between resolvers and authoritative nameservers
throughout the simulator. Both the query path (resolver -> nameserver) and
the response path use real RFC 1035 encoding, so every component exercises
the same parsing logic a production server would.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain
from struct import Struct

from .edns import EDNSOptions
from .errors import TruncatedMessageError, WireFormatError
from .name import Name
from .records import Question, ResourceRecord, RRset
from .rrtypes import (OPCODE_BY_VALUE, RCODE_BY_VALUE, Opcode, RClass, RCode,
                      RType)
from .wire import WireReader, WireWriter

_HEADER = Struct("!6H")     # id, flags, qdcount, ancount, nscount, arcount
_BLANK_HEADER = bytes(_HEADER.size)
_ROOT_OPT = b"\x00" + RType.OPT.to_bytes(2, "big")     # owner ".", type OPT
_FLAG_QR = 0x8000
_FLAG_AA = 0x0400
_FLAG_TC = 0x0200
_FLAG_RD = 0x0100
_FLAG_RA = 0x0080


@dataclass(slots=True)
class Flags:
    """The header flag bits (QR/AA/TC/RD/RA) plus opcode and rcode."""

    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = False
    ra: bool = False
    rcode: RCode = RCode.NOERROR

    def to_wire(self) -> int:
        value = 0
        if self.qr:
            value |= _FLAG_QR
        value |= (self.opcode & 0xF) << 11
        if self.aa:
            value |= _FLAG_AA
        if self.tc:
            value |= _FLAG_TC
        if self.rd:
            value |= _FLAG_RD
        if self.ra:
            value |= _FLAG_RA
        return value | (self.rcode & 0xF)

    @classmethod
    def from_wire(cls, value: int) -> "Flags":
        opcode = OPCODE_BY_VALUE.get((value >> 11) & 0xF)
        if opcode is None:
            raise WireFormatError(f"unknown opcode {(value >> 11) & 0xF}")
        rcode = RCODE_BY_VALUE.get(value & 0xF)
        if rcode is None:
            raise WireFormatError(f"unknown rcode {value & 0xF}")
        return cls(bool(value & _FLAG_QR), opcode, bool(value & _FLAG_AA),
                   bool(value & _FLAG_TC), bool(value & _FLAG_RD),
                   bool(value & _FLAG_RA), rcode)


@dataclass(slots=True)
class Message:
    """A complete DNS message with question/answer/authority/additional."""

    msg_id: int = 0
    flags: Flags = field(default_factory=Flags)
    questions: list[Question] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authority: list[ResourceRecord] = field(default_factory=list)
    additional: list[ResourceRecord] = field(default_factory=list)
    edns: EDNSOptions | None = None

    @property
    def question(self) -> Question:
        """The sole question; raises if the count is not exactly one."""
        if len(self.questions) != 1:
            raise WireFormatError(
                f"expected exactly one question, found {len(self.questions)}"
            )
        return self.questions[0]

    @property
    def rcode(self) -> RCode:
        return self.flags.rcode

    def add_rrset(self, section: str, rrset: RRset) -> None:
        """Append every record of ``rrset`` to the named section."""
        target: list[ResourceRecord] = getattr(self, section)
        target.extend(rrset.records)

    def answer_rrsets(self) -> list[RRset]:
        """Group the answer section back into RRsets, preserving order."""
        return _group_rrsets(self.answers)

    def authority_rrsets(self) -> list[RRset]:
        return _group_rrsets(self.authority)

    def additional_rrsets(self) -> list[RRset]:
        return _group_rrsets(self.additional)

    def to_wire(self, *, compress: bool = True,
                max_size: int | None = None) -> bytes:
        """Serialize in one pass; over ``max_size``, set TC and keep only
        the longest run of records (answers, then authority, then
        additional) that fits with the OPT record after it.

        Cutting the encoded prefix equals re-encoding the shorter
        message: compression pointers only point backwards, and the OPT
        record (root owner, no names) has the same bytes at any offset.
        """
        writer = WireWriter(compress=compress)
        buf = writer.buf
        buf += _BLANK_HEADER            # counts are known only after the cut
        for question in self.questions:
            question.write(writer)
        opt = b"" if self.edns is None else self.edns.to_wire()
        room = (sys.maxsize if max_size is None else max_size) - len(opt)
        truncated = len(buf) > room
        kept = 0
        if not truncated:
            for record in chain(self.answers, self.authority, self.additional):
                fits = len(buf)
                record.write(writer)
                if len(buf) > room:
                    del buf[fits:]
                    truncated = True
                    break
                kept += 1
        buf += opt
        ancount = min(kept, len(self.answers))
        nscount = min(kept - ancount, len(self.authority))
        flags = self.flags.to_wire() | (_FLAG_TC if truncated else 0)
        _HEADER.pack_into(buf, 0, self.msg_id, flags, len(self.questions),
                          ancount, nscount,
                          kept - ancount - nscount + (self.edns is not None))
        return bytes(buf)

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        """Parse a message. An additional record starting with a root-owned
        OPT's octets goes straight to its body; every other one (a root
        owner spelled as a pointer included) takes the general read."""
        if len(data) < _HEADER.size:
            raise TruncatedMessageError(
                f"wanted {_HEADER.size} octets, only {len(data)} remain")
        msg_id, flags, qdcount, ancount, nscount, arcount = \
            _HEADER.unpack_from(data)
        flags = Flags.from_wire(flags)
        reader = WireReader(data)
        reader._pos = _HEADER.size
        questions = [Question.read(reader) for _ in range(qdcount)]
        answers = [ResourceRecord.read(reader) for _ in range(ancount)]
        authority = [ResourceRecord.read(reader) for _ in range(nscount)]
        additional = []
        edns = None
        for _ in range(arcount):
            mark = reader._pos
            if data[mark : mark + 3] == _ROOT_OPT:
                reader._pos = mark + 3
            else:
                owner = reader.read_name()
                if reader.read_u16() != RType.OPT:
                    reader.seek(mark)
                    additional.append(ResourceRecord.read(reader))
                    continue
                if not owner.is_root:
                    raise WireFormatError("OPT owner name must be root")
            if edns is not None:
                raise WireFormatError("duplicate OPT record")
            edns = EDNSOptions.read_body(reader)
        return cls(msg_id, flags, questions, answers, authority, additional,
                   edns)

    def __str__(self) -> str:
        lines = [
            f"id {self.msg_id} {self.flags.opcode.name} "
            f"{self.flags.rcode.name}"
            f"{' qr' if self.flags.qr else ''}"
            f"{' aa' if self.flags.aa else ''}"
            f"{' tc' if self.flags.tc else ''}"
            f"{' rd' if self.flags.rd else ''}"
            f"{' ra' if self.flags.ra else ''}"
        ]
        for label, section in (("QUESTION", self.questions),
                               ("ANSWER", self.answers),
                               ("AUTHORITY", self.authority),
                               ("ADDITIONAL", self.additional)):
            if section:
                lines.append(f";; {label}")
                lines.extend(str(entry) for entry in section)
        return "\n".join(lines)


def _group_rrsets(records: list[ResourceRecord]) -> list[RRset]:
    """RRsets in order of first appearance, in time linear in the section:
    duplicate rdata is found through a hash set per multi-record RRset."""
    groups: dict[tuple[Name, RType, RClass], tuple[RRset, set]] = {}
    for record in records:
        key = (record.name, record.rtype, record.rclass)
        group = groups.get(key)
        if group is None:
            groups[key] = (RRset(record.name, record.rtype, record.rclass,
                                 record.ttl, [record]), set())
            continue
        rrset, seen = group
        if not seen:
            seen.add(rrset.records[0].rdata)
        if record.rdata not in seen:
            seen.add(record.rdata)
            rrset._append(record)
    return [rrset for rrset, _seen in groups.values()]


def make_query(msg_id: int, qname: Name, qtype: RType,
               *, rd: bool = False,
               edns: EDNSOptions | None = None) -> Message:
    """Build a standard query message."""
    message = Message(msg_id=msg_id, flags=Flags(rd=rd), edns=edns)
    message.questions.append(Question(qname, qtype))
    return message


def make_response(query: Message, rcode: RCode = RCode.NOERROR,
                  *, aa: bool = True) -> Message:
    """Build an empty response echoing the query's id and question."""
    flags = Flags(qr=True, opcode=query.flags.opcode, aa=aa,
                  rd=query.flags.rd, rcode=rcode)
    response = Message(msg_id=query.msg_id, flags=flags,
                       questions=list(query.questions))
    if query.edns is not None:
        response.edns = EDNSOptions(payload_size=query.edns.payload_size,
                                    dnssec_ok=query.edns.dnssec_ok,
                                    client_subnet=query.edns.client_subnet)
    return response


class ResponseTemplate:
    """An immutable, reusable plan for answering one ``(qname, qtype)``.

    Captures everything about a response that does not depend on the
    individual query — the AA bit, the rcode, and frozen snapshots of the
    three record sections — so a serving fast lane can answer repeated
    questions by *stamping* the per-query fields (message id, opcode, RD
    bit, question list, EDNS echo) onto fresh ``Message`` scaffolding
    instead of re-walking the zone. :meth:`finalize` output is
    dataclass-equal, and therefore wire-identical, to what
    :func:`make_response` plus section assembly would have produced for
    the same query. Records are shared, never copied: responses built by
    the slow path alias zone records too, so aliasing semantics match.
    """

    __slots__ = ("aa", "rcode", "answers", "authority", "additional")

    def __init__(self, aa: bool, rcode: RCode,
                 answers: tuple[ResourceRecord, ...],
                 authority: tuple[ResourceRecord, ...],
                 additional: tuple[ResourceRecord, ...]) -> None:
        self.aa = aa
        self.rcode = rcode
        self.answers = answers
        self.authority = authority
        self.additional = additional

    @classmethod
    def from_message(cls, response: Message) -> "ResponseTemplate":
        """Snapshot an assembled response into a reusable template.

        Must be taken before the response is handed to callers, which
        may mutate the (mutable) section lists; the tuple snapshot is
        unaffected by later list mutation.
        """
        flags = response.flags
        return cls(flags.aa, flags.rcode, tuple(response.answers),
                   tuple(response.authority), tuple(response.additional))

    def finalize(self, query: Message) -> Message:
        """Stamp this plan into a full response for ``query``."""
        flags = Flags(qr=True, opcode=query.flags.opcode, aa=self.aa,
                      rd=query.flags.rd, rcode=self.rcode)
        response = Message(msg_id=query.msg_id, flags=flags,
                           questions=list(query.questions),
                           answers=list(self.answers),
                           authority=list(self.authority),
                           additional=list(self.additional))
        edns = query.edns
        if edns is not None:
            response.edns = EDNSOptions(payload_size=edns.payload_size,
                                        dnssec_ok=edns.dnssec_ok,
                                        client_subnet=edns.client_subnet)
        return response
