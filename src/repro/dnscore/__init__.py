"""DNS protocol substrate: names, records, messages, zones.

A from-scratch RFC 1035 implementation sized for what a large
authoritative platform serves. Everything the simulator exchanges rides
through this package's real wire codec.
"""

from .edns import ClientSubnetOption, EDNSOptions
from .errors import (
    CompressionError,
    DNSError,
    NameError_,
    TruncatedMessageError,
    WireFormatError,
    ZoneError,
    ZoneFileError,
)
from .message import Flags, Message, make_query, make_response
from .name import ROOT, Name, name
from .rdata import (
    AAAA,
    CAA,
    CNAME,
    DNSKEY,
    DS,
    MX,
    NS,
    NSEC,
    PTR,
    RRSIG,
    SOA,
    SRV,
    TXT,
    A,
    GenericRdata,
    Rdata,
)
from .records import Question, ResourceRecord, RRset, make_rrset
from .rrtypes import DNSSEC_TYPES, Opcode, RClass, RCode, RType
from .validate import (
    ADVISORY,
    FATAL,
    ValidationIssue,
    ValidationLimits,
    ValidationReport,
    ZoneUpdate,
    content_digest,
    validate_update,
)
from .wire import WireReader, WireWriter
from .zone import LookupResult, LookupStatus, Zone, make_zone, serial_gt
from .zonefile import parse_ttl, parse_zone_text, serialize_zone

__all__ = [
    "A", "AAAA", "CAA", "CNAME", "ClientSubnetOption", "CompressionError",
    "DNSError", "DNSKEY", "DNSSEC_TYPES", "DS", "EDNSOptions", "Flags",
    "GenericRdata", "LookupResult",
    "LookupStatus", "MX", "Message", "NS", "NSEC", "Name", "NameError_",
    "Opcode",
    "PTR", "Question", "RClass", "RCode", "ROOT", "RRSIG", "RRset", "RType",
    "Rdata",
    "ResourceRecord", "SOA", "SRV", "TXT",
    "TruncatedMessageError", "WireFormatError", "WireReader", "WireWriter",
    "Zone", "ZoneError", "ZoneFileError", "make_query", "make_response",
    "make_rrset", "make_zone", "name", "parse_ttl", "parse_zone_text",
    "serial_gt", "serialize_zone",
    "ADVISORY", "FATAL", "ValidationIssue", "ValidationLimits",
    "ValidationReport", "ZoneUpdate", "content_digest", "validate_update",
]
