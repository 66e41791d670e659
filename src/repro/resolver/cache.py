"""Resolver-side DNS cache with TTL expiry and negative caching.

The cache is what makes the Two-Tier delegation system pay off: the
NS records for the lowlevel zone carry a long TTL (4000 s) while the CDN
hostnames carry 20 s TTLs, so a busy resolver refreshes hostnames against
nearby lowlevels constantly but consults the anycast toplevels rarely
(small rT, paper section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dnscore.name import Name
from ..dnscore.records import RRset
from ..dnscore.rrtypes import RCode, RType

#: The types :meth:`DNSCache.glue` and :meth:`DNSCache.best_delegation`
#: read, bound once.
_GLUE_TYPES = (RType.A, RType.AAAA)
_NS = RType.NS


@dataclass(slots=True)
class CacheEntry:
    """A cached RRset plus its expiry time."""

    rrset: RRset
    expires_at: float


@dataclass(slots=True)
class NegativeEntry:
    """A cached negative answer (NXDOMAIN or NODATA)."""

    rcode: RCode
    expires_at: float


class DNSCache:
    """TTL-driven cache of positive RRsets and negative answers."""

    def __init__(self, max_entries: int = 100_000) -> None:
        self._positive: dict[tuple[Name, RType], CacheEntry] = {}
        self._negative: dict[tuple[Name, RType], NegativeEntry] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def put(self, rrset: RRset, now: float) -> None:
        """Cache a positive RRset until its TTL expires."""
        if len(self._positive) >= self.max_entries:
            self._make_room(self._positive, now)
        key = (rrset.name, rrset.rtype)
        entry = CacheEntry(rrset, now + rrset.ttl)
        existing = self._positive.get(key)
        if existing is None or entry.expires_at >= existing.expires_at:
            self._positive[key] = entry
        self._negative.pop(key, None)

    def put_negative(self, qname: Name, qtype: RType, rcode: RCode,
                     ttl: int, now: float) -> None:
        """Cache an NXDOMAIN/NODATA answer for the SOA-derived TTL."""
        if len(self._negative) >= self.max_entries:
            self._make_room(self._negative, now)
        self._negative[(qname, qtype)] = NegativeEntry(rcode, now + ttl)

    def get(self, qname: Name, qtype: RType, now: float) -> RRset | None:
        """A live positive entry, copied with its TTL aged, or None: what
        leaves the resolver. Code that only reads rdata uses :meth:`peek`.
        (The lookup is :meth:`peek`'s, written out: this runs per resolution.)"""
        key = (qname, qtype)
        entry = self._positive.get(key)
        if entry is None or entry.expires_at <= now:
            if entry is not None:
                del self._positive[key]
            self.misses += 1
            return None
        self.hits += 1
        # A live entry expires after ``now``: the aged TTL is positive.
        return entry.rrset.with_ttl(int(entry.expires_at - now))

    def peek(self, qname: Name, qtype: RType,
             now: float) -> CacheEntry | None:
        """The stored live entry itself, or None: no copy, TTL as cached, not
        for the caller to change. Counts and expires lazily, like ``get``."""
        entry = self._positive.get((qname, qtype))
        if entry is None or entry.expires_at <= now:
            if entry is not None:
                del self._positive[(qname, qtype)]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def glue(self, ns_rrset: RRset, now: float,
             addresses: list[str]) -> list[Name]:
        """Append to ``addresses`` the cached A then AAAA addresses of each
        NS target of ``ns_rrset``, in record order; return the targets
        with neither. Each (target, type) read is :meth:`peek`'s — one
        lookup, counted and expired lazily the same way — and, like it,
        copies nothing."""
        positive = self._positive
        glueless: list[Name] = []
        hits = misses = 0
        for record in ns_rrset.records:
            target = record.rdata.target
            found = False
            for rtype in _GLUE_TYPES:
                key = (target, rtype)
                entry = positive.get(key)
                if entry is None or entry.expires_at <= now:
                    if entry is not None:
                        del positive[key]
                    misses += 1
                else:
                    hits += 1
                    found = True
                    for glue in entry.rrset.records:
                        addresses.append(glue.rdata.address)
            if not found:
                glueless.append(target)
        self.hits += hits
        self.misses += misses
        return glueless

    def get_negative(self, qname: Name, qtype: RType,
                     now: float) -> RCode | None:
        entry = self._negative.get((qname, qtype))
        if entry is None or entry.expires_at <= now:
            if entry is not None:
                del self._negative[(qname, qtype)]
            return None
        return entry.rcode

    def best_delegation(self, qname: Name,
                        now: float) -> tuple[Name, RRset] | None:
        """The deepest cached NS RRset enclosing ``qname``: a :meth:`peek`
        of each ancestor, deepest first, written out."""
        positive = self._positive
        ancestor = qname
        while True:
            key = (ancestor, _NS)
            entry = positive.get(key)
            if entry is None or entry.expires_at <= now:
                if entry is not None:
                    del positive[key]
                self.misses += 1
            else:
                self.hits += 1
                return ancestor, entry.rrset
            if ancestor.is_root:
                return None
            ancestor = ancestor.parent()

    def flush(self) -> None:
        self._positive.clear()
        self._negative.clear()

    def _make_room(self, entries: dict, now: float) -> None:
        """A full map (positive or negative, ``max_entries`` each) drops
        what has expired, or failing that its soonest-to-expire entry."""
        expired = [k for k, e in entries.items() if e.expires_at <= now]
        for key in expired:
            del entries[key]
        if len(entries) >= self.max_entries:
            del entries[min(entries, key=lambda k: entries[k].expires_at)]

    def __len__(self) -> int:
        return len(self._positive)
