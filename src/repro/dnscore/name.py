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

from functools import total_ordering
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


@total_ordering
class Name:
    """An immutable, case-folded domain name.

    Construct from presentation format with :meth:`from_text` (or the
    module-level :func:`name` shorthand), or from raw labels. The root name
    is the empty tuple of labels and renders as ``"."``.
    """

    __slots__ = ("_labels", "_hash", "_wire_len", "_str")

    def __init__(self, labels: tuple[bytes, ...]) -> None:
        validated = tuple(_validate_label(lb) for lb in labels)
        wire_len = sum(len(lb) + 1 for lb in validated) + 1
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        object.__setattr__(self, "_labels", validated)
        object.__setattr__(self, "_hash", hash(validated))
        object.__setattr__(self, "_wire_len", wire_len)
        object.__setattr__(self, "_str", None)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Name is immutable")

    @classmethod
    def _from_validated(cls, labels: tuple[bytes, ...],
                        wire_len: int | None = None) -> "Name":
        """Construct from labels already validated and case-folded.

        Internal fast path for derivations (parent walks, wildcard
        siblings, prepends, zone-file names joined to their origin) that
        would otherwise re-validate every label of an already-valid name;
        callers must guarantee each label came out of an existing
        :class:`Name` or ``_validate_label`` and that the total wire
        length stays legal. ``wire_len`` lets derivations
        that can adjust the parent's stored length in O(1) skip the
        O(labels) recomputation.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "_labels", labels)
        object.__setattr__(obj, "_hash", hash(labels))
        if wire_len is None:
            wire_len = sum(len(lb) + 1 for lb in labels) + 1
        object.__setattr__(obj, "_wire_len", wire_len)
        object.__setattr__(obj, "_str", None)
        return obj

    @classmethod
    def from_wire_labels(cls, labels: tuple[bytes, ...],
                         wire_len: int) -> "Name":
        """The name a wire decoder parsed: ``labels`` already bounds-checked
        (1-63 octets each, ``wire_len`` <= 255) and case-folded.

        Reuses the interned instance when one exists but never inserts:
        wire input is attacker-supplied and, like :meth:`prepend`'s
        minted labels, would churn the flyweight table.
        """
        cached = _INTERN.get(labels)
        if cached is None:
            cached = cls._from_validated(labels, wire_len)
        return cached

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse presentation format, e.g. ``"www.example.com."``.

        The trailing dot is optional; names are always treated as fully
        qualified. Supports ``\\.`` escapes and ``\\DDD`` decimal escapes.
        """
        if text in (".", ""):
            return ROOT
        return cls(tuple(_split_labels(text)))._interned()

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
        labels = tuple([_validate_label(lb) for lb in _split_labels(text)])
        wire_len = origin._wire_len + sum(map(len, labels)) + len(labels)
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        return cls._from_validated(labels + origin._labels, wire_len)

    def _interned(self) -> "Name":
        """Self, or the previously-interned equal instance if one exists."""
        cached = _INTERN.get(self._labels)
        if cached is not None:
            return cached
        if len(_INTERN) >= _INTERN_MAX:
            _INTERN.clear()
        _INTERN[self._labels] = self
        return self

    @property
    def labels(self) -> tuple[bytes, ...]:
        """The labels from leftmost (deepest) to rightmost (nearest root)."""
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    @property
    def is_wildcard(self) -> bool:
        """Whether the leftmost label is ``*`` (RFC 4592)."""
        return bool(self._labels) and self._labels[0] == b"*"

    def __len__(self) -> int:
        return len(self._labels)

    def wire_length(self) -> int:
        """Uncompressed wire length in octets, including the root byte."""
        return self._wire_len

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        Raises :class:`NameError_` on the root name, which has no parent.
        """
        labels = self._labels
        if not labels:
            raise NameError_("the root name has no parent")
        rest = labels[1:]
        cached = _INTERN.get(rest)
        if cached is not None:
            return cached
        return Name._from_validated(
            rest, self._wire_len - len(labels[0]) - 1)._interned()

    def ancestors(self) -> Iterator["Name"]:
        """Yield ``self``, its parent, ..., down to the root name."""
        current = self
        while True:
            yield current
            if current.is_root:
                return
            current = current.parent()

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` equals ``other`` or lies below it."""
        n = len(other._labels)
        if n == 0:
            return True
        return len(self._labels) >= n and self._labels[-n:] == other._labels

    def prepend(self, label: str | bytes) -> "Name":
        """Return a new name with one more label on the left.

        Deliberately *not* interned: prepended labels are how attack
        generators mint unbounded unique qnames, which would churn the
        flyweight table.
        """
        raw = label.encode("ascii") if isinstance(label, str) else label
        validated = _validate_label(raw)
        wire_len = self._wire_len + len(validated) + 1
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        return Name._from_validated((validated,) + self._labels, wire_len)

    def canonical_key(self) -> tuple[bytes, ...]:
        """Sort key for RFC 4034 canonical ordering (reversed label order)."""
        return tuple(reversed(self._labels))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        return self._labels == other._labels

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self.canonical_key() < other.canonical_key()

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        # Memoized: telemetry labels and log formatting stringify the
        # same zone origins millions of times across a run.
        cached = self._str
        if cached is not None:
            return cached
        if not self._labels:
            text = "."
        else:
            parts = []
            for label in self._labels:
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
        object.__setattr__(self, "_str", text)
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
_INTERN[()] = ROOT

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
