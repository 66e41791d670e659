"""Authoritative zone data model and lookup semantics.

A :class:`Zone` stores RRsets in one table of name nodes and implements
the full RFC 1034 section 4.3.2 lookup algorithm a production authoritative
server needs: exact matches, zone cuts (referrals), CNAME aliases, wildcard
synthesis, empty non-terminals, and NXDOMAIN with the SOA for negative
caching. Lookup results are returned as a typed :class:`LookupResult` so
the nameserver engine can assemble responses without re-deriving policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, TypeVar

from .errors import ZoneError
from .name import Name
from .rdata import NS, SOA, CNAME
from .records import ResourceRecord, RRset, make_rrset
from .rrtypes import DNSSEC_TYPES, RClass, RType


T = TypeVar("T")

_SERIAL_HALF = 2**31

#: The types a CNAME may share its node with (RFC 4035 section 2.5).
_CNAME_COMPANIONS = DNSSEC_TYPES | {RType.CNAME}

#: A name's RRsets in insertion order; ``()`` at an empty non-terminal.
Node = tuple[RRset, ...]


def _rrset_at(node: Node, rtype: RType) -> RRset | None:
    """The RRset of type ``rtype`` in ``node``, if present."""
    for rrset in node:
        if rrset.rtype == rtype:
            return rrset
    return None


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

    Each name in the zone is one ``_nodes`` entry: its labels (a probe
    needs no Name) map to its :data:`Node`, and a node's ancestors down
    to the origin are nodes too.

    The zone enforces standard consistency rules on insert: exactly one
    SOA at the apex, no CNAME coexisting with other data at a node
    (RFC 1034 section 3.6.2), and no data below a zone cut other than
    glue addresses.
    """

    def __init__(self, origin: Name) -> None:
        self.origin = origin
        self._nodes: dict[tuple[bytes, ...], Node] = {}
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
        rtype = rrset.rtype
        labels = rrset.name.labels
        node = self._nodes.get(labels, ())
        if node:
            # RFC 4035 section 2.5: RRSIG and NSEC (and the other
            # DNSSEC maintenance types) are exempt from the CNAME
            # single-type rule — a signed alias node holds all three.
            if rtype == RType.CNAME and any(
                    other.rtype not in _CNAME_COMPANIONS for other in node):
                raise ZoneError(
                    f"CNAME at {rrset.name} conflicts with other data")
            if rtype not in _CNAME_COMPANIONS \
                    and _rrset_at(node, RType.CNAME) is not None:
                raise ZoneError(f"{rrset.name} already holds a CNAME")
        if rtype == RType.SOA and labels != self.origin.labels:
            raise ZoneError("SOA must live at the zone apex")
        replaced = _rrset_at(node, rtype)
        self._nodes[labels] = (node + (rrset,) if replaced is None else tuple(
            rrset if r is replaced else r for r in node))
        self._mark_ancestors(labels)
        self._mutated()
        if rtype == RType.NS and rrset.name != self.origin:
            self._cuts.add(rrset.name)

    def add_record(self, record: ResourceRecord) -> None:
        """Insert one record, merging into an existing RRset if present."""
        existing = self.get_rrset(record.name, record.rtype)
        if existing is None:
            self.add_rrset(RRset(record.name, record.rtype, record.rclass,
                                 record.ttl, [record]))
        else:
            existing.add(record)
            self._mutated()

    def remove_rrset(self, name: Name, rtype: RType) -> bool:
        """Delete an RRset; returns whether it existed."""
        node = self._nodes.get(name.labels, ())
        rest = tuple(rrset for rrset in node if rrset.rtype != rtype)
        if len(rest) == len(node):
            return False
        self._mutated()
        if rtype == RType.NS:
            self._cuts.discard(name)
        self._nodes[name.labels] = rest
        if not rest:
            self._reindex_names()
        return True

    def _mutated(self) -> None:
        """The single invalidation point for content-derived state."""
        self.version += 1
        self._derived.clear()

    def _mark_ancestors(self, labels: tuple[bytes, ...]) -> None:
        """Add ``labels``' missing ancestors as empty non-terminals; the
        first one present ends the climb (its ancestors are too)."""
        for i in range(1, len(labels) - len(self.origin.labels) + 1):
            if labels[i:] in self._nodes:
                return
            self._nodes[labels[i:]] = ()

    def _reindex_names(self) -> None:
        """Drop every empty node, then mark the ancestors of the rest."""
        self._nodes = {k: node for k, node in self._nodes.items() if node}
        for labels in list(self._nodes):
            self._mark_ancestors(labels)

    # -- introspection -------------------------------------------------

    @property
    def soa(self) -> RRset | None:
        return self.get_rrset(self.origin, RType.SOA)

    @property
    def serial(self) -> int:
        rrset = self.soa
        if rrset is None:
            raise ZoneError(f"zone {self.origin} has no SOA")
        rdata = rrset.records[0].rdata
        assert isinstance(rdata, SOA)
        return rdata.serial

    def get_rrset(self, name: Name, rtype: RType) -> RRset | None:
        return _rrset_at(self._nodes.get(name.labels, ()), rtype)

    def iter_rrsets(self):
        """All RRsets in canonical name order (stable for serialize)."""
        return iter(sorted((rrset for node in self._nodes.values()
                            for rrset in node),
                           key=lambda rrset: (rrset.name.canonical_key(),
                                              int(rrset.rtype))))

    def types_at(self, name: Name) -> frozenset[RType]:
        """The record types present at ``name`` (empty if absent)."""
        return frozenset(rrset.rtype
                         for rrset in self._nodes.get(name.labels, ()))

    def has_name(self, name: Name) -> bool:
        """Whether :meth:`names` holds ``name``, without copying it."""
        return name.labels in self._nodes

    def names(self) -> set[Name]:
        """All names that exist in the zone, including empty non-terminals."""
        return {Name._from_validated(labels) for labels in self._nodes}

    def rrset_count(self) -> int:
        return sum(map(len, self._nodes.values()))

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
        if self.get_rrset(self.origin, RType.NS) is None:
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
            delegation = self.get_rrset(cut, RType.NS)
            return LookupResult(LookupStatus.DELEGATION,
                                delegation=delegation,
                                glue=self._glue_for(delegation))

        node = self._nodes.get(qname.labels)
        if node is not None:
            return self._answer(node, qname, qtype)

        # Wildcard synthesis (RFC 4592): the source of synthesis is
        # *.<closest encloser>.
        wildcard_result = self._wildcard_lookup(qname, qtype)
        if wildcard_result is not None:
            return wildcard_result
        return LookupResult(LookupStatus.NXDOMAIN, soa=self.soa)

    def _wildcard_lookup(self, qname: Name,
                         qtype: RType) -> LookupResult | None:
        labels = qname.labels
        for i in range(1, len(labels) - len(self.origin.labels) + 1):
            if labels[i:] not in self._nodes:
                continue
            # The first existing ancestor is the closest encloser, and
            # nothing between it and qname exists, so qname is covered
            # by *.<closest encloser> if that node exists.
            source = (b"*",) + labels[i:]
            node = self._nodes.get(source)
            if node is None:
                return None
            return self._answer(node, qname, qtype,
                                Name._from_validated(source))
        return None

    def _answer(self, node: Node, qname: Name, qtype: RType,
                source: Name | None = None) -> LookupResult:
        """Answer, alias or NODATA at ``node``, re-owned if ``source``."""
        status, rrset = LookupStatus.SUCCESS, _rrset_at(node, qtype)
        if rrset is None and qtype != RType.CNAME:
            status, rrset = LookupStatus.CNAME, _rrset_at(node, RType.CNAME)
        wildcard = source is not None
        if rrset is None:
            return LookupResult(LookupStatus.NODATA, soa=self.soa,
                                wildcard=wildcard, source=source)
        return LookupResult(status, source=source, wildcard=wildcard,
                            rrset=rrset.with_owner(qname) if wildcard
                            else rrset)

    def _glue_for(self, delegation: RRset) -> list[RRset]:
        """Address records for in-zone (or in-bailiwick) delegation targets."""
        glue: list[RRset] = []
        for record in delegation.records:
            rdata = record.rdata
            assert isinstance(rdata, NS)
            node = self._nodes.get(rdata.target.labels, ())
            glue += [addr for addr in (_rrset_at(node, RType.A),
                                       _rrset_at(node, RType.AAAA))
                     if addr is not None]
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
        return f"Zone({self.origin}, {self.rrset_count()} rrsets)"


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
    level. A content snapshot, its own copy of the node table's keys
    (the NXDOMAIN filter holds one across in-place zone edits): get it
    via ``zone.derived(NxdomainIndex)``.
    """

    __slots__ = ("_names", "_cuts", "_wildcard_parents", "_origin_len")

    def __init__(self, zone: Zone) -> None:
        names = self._names = set(zone._nodes)
        self._wildcard_parents: set[tuple[bytes, ...]] = {
            labels[1:] for labels in names if labels and labels[0] == b"*"
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


def make_zone(origin: Name, soa: SOA, ns_targets: list[Name],
              ttl: int = 86400,
              ns_ttl: int | None = None) -> Zone:
    """Build a minimal servable zone (apex SOA + NS)."""
    zone = Zone(origin)
    zone.add_rrset(make_rrset(origin, RType.SOA, ttl, [soa]))
    zone.add_rrset(make_rrset(origin, RType.NS, ns_ttl or ttl,
                              [NS(t) for t in ns_targets]))
    return zone


def soa_with_serial_delta(zone: Zone, delta: int) -> RRset:
    """The zone's SOA RRset with its serial shifted by ``delta``."""
    soa = zone.soa.records[0].rdata
    return make_rrset(zone.origin, RType.SOA, zone.soa.ttl,
                      [replace(soa, serial=soa.serial + delta)])
