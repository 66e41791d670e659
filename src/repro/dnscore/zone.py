"""Authoritative zone data model and lookup semantics.

A :class:`Zone` stores RRsets indexed by (name, type) and implements the
full RFC 1034 section 4.3.2 lookup algorithm a production authoritative
server needs: exact matches, zone cuts (referrals), CNAME aliases, wildcard
synthesis, empty non-terminals, and NXDOMAIN with the SOA for negative
caching. Lookup results are returned as a typed :class:`LookupResult` so
the nameserver engine can assemble responses without re-deriving policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .errors import ZoneError
from .name import Name
from .rdata import NS, SOA, CNAME
from .records import ResourceRecord, RRset, make_rrset
from .rrtypes import DNSSEC_TYPES, RClass, RType


T = TypeVar("T")

_SERIAL_HALF = 2**31


def serial_gt(a: int, b: int) -> bool:
    """RFC 1982 serial-space ``a > b`` for 32-bit zone serials."""
    if a == b:
        return False
    return ((a < b and b - a > _SERIAL_HALF)
            or (a > b and a - b < _SERIAL_HALF))


class LookupStatus(enum.Enum):
    """Outcome categories of an authoritative lookup."""

    SUCCESS = "success"            # answer rrset present
    CNAME = "cname"                # alias found; chase the target
    DELEGATION = "delegation"      # name is at/below a zone cut; refer
    NODATA = "nodata"              # name exists, type does not
    NXDOMAIN = "nxdomain"          # name does not exist
    NOT_IN_ZONE = "not_in_zone"    # qname not under this zone's origin


@dataclass(slots=True)
class LookupResult:
    """What a zone lookup produced, plus the records needed to respond."""

    status: LookupStatus
    rrset: RRset | None = None
    soa: RRset | None = None
    delegation: RRset | None = None
    glue: list[RRset] = field(default_factory=list)
    wildcard: bool = False
    #: For wildcard synthesis: the *.<closest encloser> source node,
    #: where the signing pipeline keeps the covering RRSIGs.
    source: Name | None = None


class Zone:
    """One authoritative zone: an origin plus its RRsets.

    The zone enforces standard consistency rules on insert: exactly one
    SOA at the apex, no CNAME coexisting with other data at a node
    (RFC 1034 section 3.6.2), and no data below a zone cut other than
    glue addresses.
    """

    def __init__(self, origin: Name) -> None:
        self.origin = origin
        self._rrsets: dict[tuple[Name, RType], RRset] = {}
        #: name -> rtypes present at that node. Maintained so authoring
        #: checks (CNAME exclusivity, emptied-node detection) stay O(1)
        #: per insert instead of scanning every rrset — zone builds are
        #: O(records^2) without it.
        self._types_by_name: dict[Name, set[RType]] = {}
        self._names: set[Name] = set()
        self._cuts: set[Name] = set()
        #: Bumped on every content mutation, so holders of derived state
        #: (the engine's response plans) detect staleness without
        #: subscribing. It counts mutations of *this object*: two Zones
        #: can share a version, so it only means something next to the
        #: zone's identity.
        self.version = 0
        #: Whole-zone indexes memoized by :meth:`derived`, keyed by
        #: their builder and flushed on any zone mutation.
        self._derived: dict[Callable[[Zone], object], object] = {}

    # -- authoring -----------------------------------------------------

    def add_rrset(self, rrset: RRset) -> None:
        """Insert an RRset, enforcing zone consistency rules."""
        if not rrset.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{rrset.name} is outside zone {self.origin}")
        if rrset.rclass != RClass.IN:
            raise ZoneError("only class IN zones are supported")
        node_types = self._types_by_name.get(rrset.name)
        if node_types:
            # RFC 4035 section 2.5: RRSIG and NSEC (and the other
            # DNSSEC maintenance types) are exempt from the CNAME
            # single-type rule — a signed alias node holds all three.
            if rrset.rtype == RType.CNAME \
                    and node_types - {RType.CNAME} - DNSSEC_TYPES:
                raise ZoneError(
                    f"CNAME at {rrset.name} conflicts with other data")
            if rrset.rtype != RType.CNAME \
                    and rrset.rtype not in DNSSEC_TYPES \
                    and RType.CNAME in node_types:
                raise ZoneError(f"{rrset.name} already holds a CNAME")
        if rrset.rtype == RType.SOA and rrset.name != self.origin:
            raise ZoneError("SOA must live at the zone apex")
        self._rrsets[(rrset.name, rrset.rtype)] = rrset
        if node_types is None:
            node_types = self._types_by_name[rrset.name] = set()
        node_types.add(rrset.rtype)
        self._mutated()
        if rrset.rtype == RType.NS and rrset.name != self.origin:
            self._cuts.add(rrset.name)
        self._index_names(rrset.name)

    def add_record(self, record: ResourceRecord) -> None:
        """Insert one record, merging into an existing RRset if present."""
        key = (record.name, record.rtype)
        existing = self._rrsets.get(key)
        if existing is None:
            rrset = RRset(record.name, record.rtype, record.rclass)
            rrset.add(record)
            self.add_rrset(rrset)
        else:
            existing.add(record)
            self._mutated()

    def remove_rrset(self, name: Name, rtype: RType) -> bool:
        """Delete an RRset; returns whether it existed."""
        removed = self._rrsets.pop((name, rtype), None) is not None
        if removed:
            self._mutated()
            if rtype == RType.NS:
                self._cuts.discard(name)
            node_types = self._types_by_name.get(name)
            if node_types is not None:
                node_types.discard(rtype)
                if not node_types:
                    del self._types_by_name[name]
                    self._reindex_names()
        return removed

    def _mutated(self) -> None:
        """The single invalidation point for content-derived state."""
        self.version += 1
        self._derived.clear()

    def _index_names(self, name: Name) -> None:
        for ancestor in name.ancestors():
            if not ancestor.is_subdomain_of(self.origin):
                break
            self._names.add(ancestor)
            if ancestor == self.origin:
                break

    def _reindex_names(self) -> None:
        self._names.clear()
        for (name, _rtype) in self._rrsets:
            self._index_names(name)

    # -- introspection -------------------------------------------------

    @property
    def soa(self) -> RRset | None:
        return self._rrsets.get((self.origin, RType.SOA))

    @property
    def serial(self) -> int:
        rrset = self.soa
        if rrset is None:
            raise ZoneError(f"zone {self.origin} has no SOA")
        rdata = rrset.records[0].rdata
        assert isinstance(rdata, SOA)
        return rdata.serial

    def get_rrset(self, name: Name, rtype: RType) -> RRset | None:
        return self._rrsets.get((name, rtype))

    def iter_rrsets(self):
        """All RRsets in canonical name order (stable for serialize)."""
        return iter(sorted(self._rrsets.values(),
                           key=lambda rrset: (rrset.name.canonical_key(),
                                              int(rrset.rtype))))

    def types_at(self, name: Name) -> frozenset[RType]:
        """The record types present at ``name`` (empty if absent)."""
        types = self._types_by_name.get(name)
        return frozenset(types) if types else frozenset()

    def names(self) -> set[Name]:
        """All names that exist in the zone, including empty non-terminals."""
        return set(self._names)

    def rrset_count(self) -> int:
        return len(self._rrsets)

    def derived(self, build: Callable[[Zone], T]) -> T:
        """``build(self)``, memoized until the next content mutation.

        For indexes that are pure functions of zone content (the
        NXDOMAIN name index, the NSEC chain index): held here they
        follow this object's identity *and* content, and a Zone on N
        machines builds each once. ``build`` must be importable, not a
        lambda — zones are pickled across the ``--jobs N`` pool.
        """
        value = self._derived.get(build)
        if value is None:
            value = self._derived[build] = build(self)
        return value  # type: ignore[return-value]

    def validate(self) -> None:
        """Raise :class:`ZoneError` if the zone is not servable."""
        if self.soa is None:
            raise ZoneError(f"zone {self.origin} has no SOA record")
        if self._rrsets.get((self.origin, RType.NS)) is None:
            raise ZoneError(f"zone {self.origin} has no apex NS records")

    # -- lookup ---------------------------------------------------------

    def _covering_cut(self, qname: Name) -> Name | None:
        """The closest enclosing zone cut strictly above the apex, if any."""
        best: Name | None = None
        # The cuts above one name are nested, so no two have the same
        # length and the longest is the same in any order.
        for cut in self._cuts:  # reprolint: disable=DET005
            if qname.is_subdomain_of(cut):
                if best is None or len(cut) > len(best):
                    best = cut
        return best

    def lookup(self, qname: Name, qtype: RType) -> LookupResult:
        """Authoritative lookup per RFC 1034 section 4.3.2."""
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(LookupStatus.NOT_IN_ZONE)

        cut = self._covering_cut(qname)
        if cut is not None and not (qname == cut and qtype == RType.NS):
            delegation = self._rrsets[(cut, RType.NS)]
            return LookupResult(LookupStatus.DELEGATION,
                                delegation=delegation,
                                glue=self._glue_for(delegation))

        if qname in self._names:
            exact = self._rrsets.get((qname, qtype))
            if exact is not None:
                return LookupResult(LookupStatus.SUCCESS, rrset=exact)
            cname = self._rrsets.get((qname, RType.CNAME))
            if cname is not None and qtype != RType.CNAME:
                return LookupResult(LookupStatus.CNAME, rrset=cname)
            return LookupResult(LookupStatus.NODATA, soa=self.soa)

        # Wildcard synthesis (RFC 4592): the source of synthesis is
        # *.<closest encloser>.
        wildcard_result = self._wildcard_lookup(qname, qtype)
        if wildcard_result is not None:
            return wildcard_result
        return LookupResult(LookupStatus.NXDOMAIN, soa=self.soa)

    def _wildcard_lookup(self, qname: Name,
                         qtype: RType) -> LookupResult | None:
        closest = qname
        while not closest.is_root and closest != self.origin:
            parent = closest.parent()
            if parent in self._names:
                source = parent.prepend("*")
                if source not in self._names:
                    return None
                # A name one label under an existing wildcard-owning parent:
                # synthesize from *.parent only if qname itself is covered,
                # i.e. nothing between parent and qname exists (guaranteed
                # since closest is the first existing ancestor's child).
                exact = self._rrsets.get((source, qtype))
                if exact is not None:
                    return LookupResult(
                        LookupStatus.SUCCESS, wildcard=True, source=source,
                        rrset=_synthesize(exact, qname))
                cname = self._rrsets.get((source, RType.CNAME))
                if cname is not None and qtype != RType.CNAME:
                    return LookupResult(
                        LookupStatus.CNAME, wildcard=True, source=source,
                        rrset=_synthesize(cname, qname))
                return LookupResult(LookupStatus.NODATA, soa=self.soa,
                                    wildcard=True, source=source)
            closest = parent
        return None

    def _glue_for(self, delegation: RRset) -> list[RRset]:
        """Address records for in-zone (or in-bailiwick) delegation targets."""
        glue: list[RRset] = []
        for record in delegation.records:
            rdata = record.rdata
            assert isinstance(rdata, NS)
            for addr_type in (RType.A, RType.AAAA):
                addr = self._rrsets.get((rdata.target, addr_type))
                if addr is not None:
                    glue.append(addr)
        return glue

    def cname_chain(self, qname: Name, qtype: RType,
                    max_depth: int = 16) -> tuple[list[RRset], LookupResult]:
        """Follow in-zone CNAMEs, returning the chain and final result.

        The chain and result alias the zone's own RRsets; callers must
        treat them as read-only (the engine only copies records out).
        """
        chain: list[RRset] = []
        current = qname
        result = self.lookup(current, qtype)
        while result.status == LookupStatus.CNAME and len(chain) < max_depth:
            assert result.rrset is not None
            chain.append(result.rrset)
            target_rdata = result.rrset.records[0].rdata
            assert isinstance(target_rdata, CNAME)
            current = target_rdata.target
            result = self.lookup(current, qtype)
        return chain, result

    def __repr__(self) -> str:
        return f"Zone({self.origin}, {len(self._rrsets)} rrsets)"


class NxdomainIndex:
    """Exact "would :meth:`Zone.lookup` say NXDOMAIN?" over label tuples
    — the tree of valid hostnames of paper section 4.3.4. The engine
    answers random-subdomain floods from it without walking the zone,
    and the NXDOMAIN filter penalizes the queries it rejects.

    It agrees with ``Zone.lookup`` on every name under the origin:
    existing name (including empty non-terminals) -> covering cut
    anywhere on the ancestor chain (a name below occluded glue under a
    cut still gets a referral) -> wildcard at the closest encloser.
    Membership runs on raw label tuples because attack names are
    unique: climbing to an ancestor is a tuple slice, not a Name per
    level. A content snapshot: get it via ``zone.derived(NxdomainIndex)``.
    """

    __slots__ = ("_names", "_cuts", "_wildcard_parents", "_origin_len")

    def __init__(self, zone: Zone) -> None:
        names = zone._names
        self._names: set[tuple[bytes, ...]] = {n.labels for n in names}
        self._wildcard_parents: set[tuple[bytes, ...]] = {
            n.labels[1:] for n in names if n.is_wildcard
        }
        self._cuts: set[tuple[bytes, ...]] = {
            cut.labels for cut in zone._cuts}
        self._origin_len = len(zone.origin.labels)

    def __len__(self) -> int:
        """Names indexed — the build cost the ablation benchmark reports."""
        return len(self._names)

    def is_nxdomain(self, labels: tuple[bytes, ...]) -> bool:
        """Whether ``Zone.lookup`` returns NXDOMAIN for the name with
        these ``labels``, which must be at or below the zone origin
        (guaranteed when a ZoneStore resolved the name to this zone)."""
        names = self._names
        if labels in names:
            return False
        n_strip = len(labels) - self._origin_len
        cuts = self._cuts
        if cuts:
            for i in range(1, n_strip + 1):
                if labels[i:] in cuts:
                    return False
        for i in range(1, n_strip + 1):
            ancestor = labels[i:]
            if ancestor in names:
                # First existing ancestor = the closest encloser; the
                # name is synthesizable iff *.<encloser> exists.
                return ancestor not in self._wildcard_parents
        return True


def _synthesize(rrset: RRset, qname: Name) -> RRset:
    """Copy a wildcard RRset onto the query name."""
    clone = RRset(qname, rrset.rtype, rrset.rclass, rrset.ttl)
    for record in rrset.records:
        clone.add(ResourceRecord(qname, record.rtype, record.rclass,
                                 record.ttl, record.rdata))
    return clone


def make_zone(origin: Name, soa: SOA, ns_targets: list[Name],
              ttl: int = 86400,
              ns_ttl: int | None = None) -> Zone:
    """Build a minimal servable zone (apex SOA + NS)."""
    zone = Zone(origin)
    zone.add_rrset(make_rrset(origin, RType.SOA, ttl, [soa]))
    zone.add_rrset(make_rrset(origin, RType.NS, ns_ttl or ttl,
                              [NS(t) for t in ns_targets]))
    return zone
