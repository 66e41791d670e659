"""Reference implementations of the zone-file lexer and the name parser.

These are the character-at-a-time loops ``repro.dnscore`` used before its
regex lexer and shared label splitter, kept verbatim (bar the function
names) so the property tests in ``test_zonefile_oracle.py`` can hold the
product code to them. Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.dnscore import ROOT, Name, NameError_, ZoneFileError


def tokenize_line(line: str) -> tuple[list[str], bool, bool]:
    """Split one physical line into tokens.

    Returns (tokens, opens_paren, closes_paren). Handles quoted strings
    and strips comments.
    """
    tokens: list[str] = []
    current: list[str] = []
    in_quote = False
    opens = closes = False
    i = 0
    leading_ws = line[:1] in (" ", "\t")
    while i < len(line):
        ch = line[i]
        if in_quote:
            if ch == "\\" and i + 1 < len(line):
                current.append(line[i + 1])
                i += 2
                continue
            if ch == '"':
                tokens.append('"' + "".join(current) + '"')
                current = []
                in_quote = False
            else:
                current.append(ch)
        elif ch == '"':
            if current:
                tokens.append("".join(current))
                current = []
            in_quote = True
        elif ch == ";":
            break
        elif ch == "(":
            opens = True
        elif ch == ")":
            closes = True
        elif ch in " \t":
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
        i += 1
    if in_quote:
        raise ZoneFileError("unterminated quoted string")
    if current:
        tokens.append("".join(current))
    if leading_ws:
        tokens.insert(0, "")
    return tokens, opens, closes


def name_from_text(text: str) -> Name:
    """Parse presentation format, e.g. ``"www.example.com."``.

    The trailing dot is optional; names are always treated as fully
    qualified. Supports ``\\.`` escapes and ``\\DDD`` decimal escapes.
    """
    if text in (".", ""):
        return ROOT
    labels: list[bytes] = []
    current = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise NameError_("dangling escape at end of name")
            nxt = text[i + 1]
            if nxt.isdigit():
                if i + 3 >= len(text) or not text[i + 1 : i + 4].isdigit():
                    raise NameError_(f"bad decimal escape in {text!r}")
                code = int(text[i + 1 : i + 4])
                if code > 255:
                    raise NameError_(f"escape value {code} out of range")
                current.append(code)
                i += 4
            else:
                current.append(ord(nxt))
                i += 2
        elif ch == ".":
            labels.append(bytes(current))
            current = bytearray()
            i += 1
        else:
            current.append(ord(ch))
            i += 1
    if current:
        labels.append(bytes(current))
    elif text and not text.endswith("."):
        raise NameError_(f"empty label in {text!r}")
    if any(not lb for lb in labels):
        raise NameError_(f"empty label in {text!r}")
    return Name(tuple(labels))
