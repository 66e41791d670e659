"""Exception hierarchy for the DNS protocol substrate.

All protocol-level failures raised by :mod:`repro.dnscore` derive from
:class:`DNSError`, so callers can catch one type to handle any malformed
input without masking programming errors.
"""

from __future__ import annotations


class DNSError(Exception):
    """Base class for all DNS protocol errors."""


class NameError_(DNSError):
    """A domain name is syntactically invalid (label/name length, bad escape).

    Named with a trailing underscore to avoid shadowing the builtin
    ``NameError``.
    """


class WireFormatError(DNSError):
    """A DNS message on the wire could not be parsed."""


class TruncatedMessageError(WireFormatError):
    """The wire message ended before a field it promised."""


class CompressionError(WireFormatError):
    """A compression pointer is invalid (forward pointer or loop)."""


class ZoneError(DNSError):
    """A zone's contents are inconsistent (missing SOA, bad cut, ...)."""


class ZoneFileError(ZoneError):
    """A master-format zone file could not be parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
