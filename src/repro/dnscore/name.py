"""Domain names as defined by RFC 1035 section 2.3.

A :class:`Name` is an immutable sequence of labels, stored lowercase for
case-insensitive comparison (RFC 4343) while the presentation form preserves
nothing — Akamai DNS, like most authoritative servers, treats names
case-insensitively end to end.

The class supports the operations the rest of the system needs constantly:
parent walks (zone-cut discovery), subdomain tests (delegation matching),
wildcard synthesis, and canonical ordering (RFC 4034 section 6.1) used by
the NXDOMAIN filter's hostname tree.
"""

from __future__ import annotations

from typing import Iterator

from .errors import NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


def _validate_label(label: bytes) -> bytes:
    if not label:
        raise NameError_("empty label")
    if len(label) > MAX_LABEL_LENGTH:
        raise NameError_(f"label exceeds {MAX_LABEL_LENGTH} octets: {label!r}")
    return label.lower()


def _escapes_next(text: str) -> bool:
    """Whether ``text`` ends in an odd run of backslashes, so that the
    character after it is escaped."""
    return (len(text) - len(text.rstrip("\\"))) % 2 == 1


def _octets(part: str, text: str) -> bytes:
    """``part`` of name ``text`` as octets, one per character."""
    try:
        return part.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise NameError_(f"character {part[exc.start]!r} above U+00FF "
                         f"in {text!r}") from None


def _split_labels(text: str) -> list[bytes]:
    """The raw labels of presentation-format ``text``, left to right.

    Splits on dots; only where a backslash occurs does it rejoin a split
    made at an escaped dot (one after an odd run of backslashes) and
    decode ``\\X`` and ``\\DDD``. A final dot ends the name and adds no
    label. Defects are reported as a scan from the left meets them:
    escapes and characters first, then empty labels.
    """
    if "\\" not in text:
        labels = _octets(text, text).split(b".")
    else:
        labels = []
        pieces = text.split(".")
        last = len(pieces) - 1
        label = ""
        for i, piece in enumerate(pieces):
            label += piece
            if i < last and _escapes_next(label):
                label += "."
                continue
            out = bytearray()
            pos = 0
            while (cut := label.find("\\", pos)) >= 0:
                out += _octets(label[pos:cut], text)
                nxt = label[cut + 1:cut + 2]
                if not nxt:
                    raise NameError_("dangling escape at end of name")
                if nxt.isdigit():
                    digits = label[cut + 1:cut + 4]
                    if len(digits) < 3 or not digits.isdigit():
                        raise NameError_(f"bad decimal escape in {text!r}")
                    code = int(digits)
                    if code > 255:
                        raise NameError_(f"escape value {code} out of range")
                    out.append(code)
                    pos = cut + 4
                else:
                    out += _octets(nxt, text)
                    pos = cut + 2
            out += _octets(label[pos:], text)
            labels.append(bytes(out))
            label = ""
    if not labels[-1]:
        labels.pop()
    if b"" in labels:
        raise NameError_(f"empty label in {text!r}")
    return labels


class Name(tuple):
    """An immutable, case-folded domain name: the tuple of its labels.

    Construct from presentation format with :meth:`from_text` (or the
    module-level :func:`name` shorthand), or from raw labels. The root name
    is the empty tuple of labels and renders as ``"."``.

    A name *is* its label tuple, so it hashes and compares equal to one
    (``hash(name) == hash(labels)``) with no Python frame, and a slice of
    it is a plain label tuple that finds it in any map. Only ordering
    differs: names sort canonically (RFC 4034 section 6.1), against a
    plain label tuple too, so a set holding both sorts in one order.
    """

    __slots__ = ()

    def __new__(cls, labels: tuple[bytes, ...]) -> "Name":
        validated = [_validate_label(lb) for lb in labels]
        if sum(map(len, validated)) + len(validated) >= MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        return tuple.__new__(cls, validated)

    #: ``Name._from_validated(labels)``: a name of labels already
    #: validated and case-folded (sliced off an existing name, or
    #: bounds-checked by the wire reader), built with no check and no
    #: Python frame.
    _from_validated = classmethod(tuple.__new__)

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse presentation format, e.g. ``"www.example.com."``.

        The trailing dot is optional; names are always treated as fully
        qualified. Supports ``\\.`` escapes and ``\\DDD`` decimal escapes.
        """
        if text in (".", ""):
            return ROOT
        return cls(_split_labels(text))._interned()

    @classmethod
    def from_zone_text(cls, text: str, origin: "Name") -> "Name":
        """A name as a zone file writes it, read against ``origin``.

        Text ending in an unescaped dot is absolute and goes through
        :func:`name`. Any other text is relative: its labels are joined
        to ``origin`` and, like :meth:`prepend`'s, not interned, so a
        zone's owners do not churn the flyweight table or the parse memo.
        """
        if text.endswith(".") and not _escapes_next(text[:-1]):
            return name(text)
        labels = [_validate_label(lb) for lb in _split_labels(text)]
        labels += origin
        if sum(map(len, labels)) + len(labels) >= MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        return cls._from_validated(labels)

    def _interned(self) -> "Name":
        """Self, or the previously-interned equal instance if one exists."""
        cached = _INTERN.get(self)
        if cached is not None:
            return cached
        if len(_INTERN) >= _INTERN_MAX:
            _INTERN.clear()
        _INTERN[self] = self
        return self

    @property
    def is_root(self) -> bool:
        return not self

    @property
    def is_wildcard(self) -> bool:
        """Whether the leftmost label is ``*`` (RFC 4592)."""
        return bool(self) and self[0] == b"*"

    def wire_length(self) -> int:
        """Uncompressed wire length in octets, including the root byte."""
        return sum(map(len, self)) + len(self) + 1

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        Raises :class:`NameError_` on the root name, which has no parent.
        """
        if not self:
            raise NameError_("the root name has no parent")
        rest = self[1:]
        cached = _INTERN.get(rest)
        if cached is not None:
            return cached
        return Name._from_validated(rest)._interned()

    def ancestors(self) -> Iterator["Name"]:
        """Yield ``self``, its parent, ..., down to the root name."""
        current = self
        while True:
            yield current
            if not current:
                return
            current = current.parent()

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` equals ``other`` or lies below it."""
        n = len(other)
        return n == 0 or (len(self) >= n and self[-n:] == other)

    def prepend(self, label: str | bytes) -> "Name":
        """Return a new name with one more label on the left.

        Deliberately *not* interned: prepended labels are how attack
        generators mint unbounded unique qnames, which would churn the
        flyweight table.
        """
        raw = label.encode("ascii") if isinstance(label, str) else label
        validated = _validate_label(raw)
        if self.wire_length() + len(validated) + 1 > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        return Name._from_validated((validated, *self))

    def canonical_key(self) -> tuple[bytes, ...]:
        """Sort key for RFC 4034 canonical ordering (reversed label order)."""
        return self[::-1]

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, tuple):
            return NotImplemented
        return self[::-1] < other[::-1]

    def __le__(self, other: object) -> bool:
        if not isinstance(other, tuple):
            return NotImplemented
        return self[::-1] <= other[::-1]

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, tuple):
            return NotImplemented
        return self[::-1] > other[::-1]

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, tuple):
            return NotImplemented
        return self[::-1] >= other[::-1]

    def __str__(self) -> str:
        # Memoized: telemetry labels and log formatting stringify the
        # same zone origins millions of times across a run.
        text = _TEXT.get(self)
        if text is not None:
            return text
        if not self:
            text = "."
        else:
            parts = []
            for label in self:
                out = []
                for b in label:
                    ch = chr(b)
                    if ch == ".":
                        out.append("\\.")
                    elif ch == "\\":
                        out.append("\\\\")
                    elif 0x21 <= b <= 0x7E:
                        out.append(ch)
                    else:
                        out.append(f"\\{b:03d}")
                parts.append("".join(out))
            text = ".".join(parts) + "."
        if len(_TEXT) >= _TEXT_MAX:
            _TEXT.clear()
        _TEXT[self] = text
        return text

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"


#: Flyweight table: validated label tuple -> shared Name. Extends the
#: parse cache one level down so *derived* names (parents, wildcard
#: siblings, text spellings that differ only in case or trailing dot)
#: also collapse to one instance, making hot dict probes identity hits.
#: Bounded with clear-on-full, mirroring the parse cache.
_INTERN: dict[tuple[bytes, ...], Name] = {}
_INTERN_MAX = 8192

ROOT = Name(())
_INTERN[ROOT] = ROOT

#: :meth:`Name.__str__` memo, bounded with clear-on-full like the two
#: tables beside it: the text is a pure function of the labels.
_TEXT: dict[Name, str] = {}
_TEXT_MAX = 8192

#: Parse memo for :func:`name`. Experiments resolve the same handful of
#: presentation-format strings millions of times; Name is immutable, so
#: sharing instances is safe. Bounded so adversarial inputs (random
#: attack labels built via text) cannot grow it without limit.
_PARSE_CACHE: dict[str, Name] = {}
_PARSE_CACHE_MAX = 8192


def name(text: str) -> Name:
    """Shorthand for :meth:`Name.from_text` (memoized)."""
    cached = _PARSE_CACHE.get(text)
    if cached is None:
        cached = Name.from_text(text)
        # Idempotent memo: the value is a pure function of the key, so
        # per-worker caches converge and no result depends on which
        # entries happen to be cached.
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[text] = cached
    return cached
