"""Master-file (RFC 1035 section 5) zone parser and serializer.

Supports the constructs enterprise zone files actually use: ``$ORIGIN``
and ``$TTL`` directives, relative names, ``@`` for the origin, omitted
owner names (repeat previous), parenthesized multi-line records (SOA),
quoted strings with embedded spaces (TXT), and comments.
"""

from __future__ import annotations

import re

from .errors import NameError_, ZoneFileError
from .name import Name, name
from .rdata import rdata_from_text
from .records import ResourceRecord
from .rrtypes import RClass, RType
from .zone import Zone

_DEFAULT_TTL = 86400

#: One lexeme: a plain run (parentheses inside it are dropped, not
#: separators), a quoted string whose ``\X`` escapes are undone, a lone
#: ``"`` that no closing quote ends, or a ``;`` starting a comment. Only
#: blanks and tabs separate, and they match nothing.
_LEXEME = re.compile(r'[^ \t";]+|"(?:[^"\\]|\\.)*"|[";]', re.S)
_QUOTED_ESCAPE = re.compile(r"\\(.)", re.S)

_IN = RClass.IN
_SOA = RType.SOA
_MX = RType.MX
_SRV = RType.SRV
_SINGLE_NAME_TYPES = (RType.NS, RType.CNAME, RType.PTR)


def _tokenize_line(line: str) -> tuple[list[str], bool, bool]:
    """Split one physical line into tokens.

    Returns (tokens, opens_paren, closes_paren). A line that starts with
    a blank or a tab gets ``""`` as its first token (the owner repeats).
    """
    tokens = [""] if line[:1] in (" ", "\t") else []
    opens = closes = False
    for lexeme in _LEXEME.findall(line):
        first = lexeme[0]
        if first == '"':
            if len(lexeme) == 1:
                raise ZoneFileError("unterminated quoted string")
            tokens.append(_QUOTED_ESCAPE.sub(r"\1", lexeme))
        elif first == ";":
            break
        else:
            if "(" in lexeme:
                opens = True
                lexeme = lexeme.replace("(", "")
            if ")" in lexeme:
                closes = True
                lexeme = lexeme.replace(")", "")
            if lexeme:
                tokens.append(lexeme)
    return tokens, opens, closes


def parse_zone_text(text: str, origin: Name | str | None = None) -> Zone:
    """Parse a zone from master-file text.

    ``origin`` seeds ``$ORIGIN``; a ``$ORIGIN`` directive in the file
    overrides it. The returned zone has passed no validation — call
    :meth:`Zone.validate` before serving.
    """
    if isinstance(origin, str):
        origin = name(origin)
    current_origin = origin
    default_ttl = _DEFAULT_TTL
    zone: Zone | None = None
    last_owner: Name | None = None
    pending: list[str] = []
    pending_line = 0
    depth = 0

    def resolve_name(token: str) -> Name:
        if current_origin is None:
            raise ZoneFileError("no $ORIGIN in effect", lineno)
        if token == "@":
            return current_origin
        try:
            return Name.from_zone_text(token, current_origin)
        except NameError_ as exc:
            raise ZoneFileError(str(exc), lineno) from None

    records: list[ResourceRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens, opens, closes = _tokenize_line(raw)
        if depth:
            # Continuation of a parenthesized record: drop the ws marker.
            tokens = [t for t in tokens if t != ""]
        if opens:
            depth += 1
        if closes:
            if depth == 0:
                raise ZoneFileError("unbalanced ')'", lineno)
            depth -= 1
        if pending:
            pending.extend(t for t in tokens if t != "")
        else:
            pending = tokens
            pending_line = lineno
        if depth:
            continue
        tokens, pending = pending, []
        lineno = pending_line
        # Only the first token can be empty: the leading-blank marker.
        if not any(tokens):
            continue

        if tokens[0].startswith("$"):
            directive = tokens[0].upper()
            if directive == "$ORIGIN":
                if len(tokens) < 2:
                    raise ZoneFileError("$ORIGIN needs a name", lineno)
                try:
                    current_origin = name(tokens[1])
                except NameError_ as exc:
                    raise ZoneFileError(str(exc), lineno) from None
            elif directive == "$TTL":
                if len(tokens) < 2:
                    raise ZoneFileError("$TTL needs a value", lineno)
                default_ttl = parse_ttl(tokens[1])
            else:
                raise ZoneFileError(f"unknown directive {tokens[0]}", lineno)
            continue

        # Owner name: blank first token means "repeat previous owner".
        if tokens[0] == "":
            if last_owner is None:
                raise ZoneFileError("first record has no owner name", lineno)
            owner = last_owner
        else:
            owner = resolve_name(tokens[0])
        rest = tokens[1:]
        last_owner = owner

        # [ttl] [class] type rdata...  (ttl and class may swap order)
        ttl = default_ttl
        rclass = _IN
        while rest:
            tok = rest[0]
            # A TTL is a digit followed by digits and unit letters; most
            # tokens here are a class or a type and stop at the first.
            if tok[0].isdigit() and all(
                    ch.isdigit() or ch in _TTL_UNITS for ch in tok.lower()):
                ttl = parse_ttl(tok)
                rest = rest[1:]
            elif tok.upper() in ("IN", "CH"):
                rclass = RClass.from_text(tok)
                rest = rest[1:]
            else:
                break
        if not rest:
            raise ZoneFileError("record has no type", lineno)
        try:
            rtype = RType.from_text(rest[0])
        except ValueError as exc:
            raise ZoneFileError(str(exc), lineno) from None
        fields = rest[1:]
        # Resolve relative names inside rdata for name-bearing types.
        if rtype in _SINGLE_NAME_TYPES:
            fields = [str(resolve_name(fields[0]))] if fields else fields
        elif rtype == _MX and len(fields) == 2:
            fields = [fields[0], str(resolve_name(fields[1]))]
        elif rtype == _SRV and len(fields) == 4:
            fields = fields[:3] + [str(resolve_name(fields[3]))]
        elif rtype == _SOA and len(fields) >= 2:
            fields = ([str(resolve_name(fields[0])),
                       str(resolve_name(fields[1]))]
                      + [str(parse_ttl(f)) for f in fields[2:]])
        try:
            rdata = rdata_from_text(rtype, fields)
        except (ValueError, NameError_, ZoneFileError) as exc:
            raise ZoneFileError(f"bad {rtype.name} rdata: {exc}", lineno) from None
        if zone is None:
            if current_origin is None:
                raise ZoneFileError("no origin established", lineno)
            zone = Zone(current_origin)
        records.append(ResourceRecord(owner, rtype, rclass, ttl, rdata))

    if depth:
        raise ZoneFileError("unbalanced '(' at end of file")
    if zone is None:
        raise ZoneFileError("zone file contains no records")
    # Insert SOA first so apex checks pass regardless of file order.
    records.sort(key=lambda r: 0 if r.rtype == _SOA else 1)
    for record in records:
        zone.add_record(record)
    return zone


def serialize_zone(zone: Zone) -> str:
    """Render a zone back to master-file text (absolute names, explicit TTLs)."""
    lines = [f"$ORIGIN {zone.origin}"]
    for rrset in zone.iter_rrsets():
        for record in rrset.records:
            lines.append(record.to_text())
    return "\n".join(lines) + "\n"


_TTL_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def parse_ttl(token: str) -> int:
    """Parse a TTL: plain seconds or unit-suffixed (``1h30m``)."""
    token = token.strip().lower()
    if token.isdigit():
        return int(token)
    total = 0
    number = ""
    for ch in token:
        if ch.isdigit():
            number += ch
        elif ch in _TTL_UNITS and number:
            total += int(number) * _TTL_UNITS[ch]
            number = ""
        else:
            raise ZoneFileError(f"bad TTL {token!r}")
    if number:
        raise ZoneFileError(f"bad TTL {token!r} (trailing digits)")
    return total
