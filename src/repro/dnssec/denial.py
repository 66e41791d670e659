"""Authenticated denial of existence, two ways.

Negative answers are where signed zones meet attack traffic: a
random-subdomain flood (the fig10 workload) is almost entirely
NXDOMAIN, so the shape of the denial proof determines both the
amplification each response carries and the state the server must
keep per unique query name.

* :data:`DenialMode.NSEC_CHAIN` serves the precomputed chain: the NSEC
  covering the query name plus the NSEC denying the wildcard, each
  with its RRSIG, exactly as RFC 4035 section 3.1.3.2 prescribes.
  Proofs are strongest (they also enable zone walking) and every
  distinct qname maps to a chain interval found by binary search.
* :data:`DenialMode.COMPACT` synthesizes a minimally covering NSEC per
  query in the "black lies" style: the answer claims the name exists
  with no types but NSEC/RRSIG, turning NXDOMAIN into NODATA. Nothing
  is precomputed per name and nothing about the response depends on
  zone topology, so unique attack qnames cannot force chain walks or
  grow negative-plan state — the per-zone negative plan stays O(1).
"""

from __future__ import annotations

import enum
from bisect import bisect_left

from ..dnscore import RType, make_rrset
from ..dnscore.errors import NameError_
from ..dnscore.name import Name
from ..dnscore.rdata import NSEC, SOA
from ..dnscore.records import RRset
from ..dnscore.zone import Zone
from .keys import KeyRing
from .sign import SigningPolicy, covering_rrsigs, make_rrsig

#: (NSEC RRset, covering RRSIG RRset or None) pairs for the authority
#: section.
DenialPairs = list[tuple[RRset, RRset | None]]


class DenialMode(enum.Enum):
    """How a signed zone proves nonexistence."""

    NSEC_CHAIN = "nsec-chain"
    COMPACT = "compact"


class NsecChainIndex:
    """Binary-searchable view of a signed zone's NSEC chain.

    A content snapshot: get it via ``zone.derived(NsecChainIndex)``,
    built once per zone content; lookups are O(log n) in canonical order.
    """

    __slots__ = ("_keys", "_owners")

    def __init__(self, zone: Zone) -> None:
        owners = sorted(
            (rrset.name for rrset in zone.iter_rrsets()
             if rrset.rtype == RType.NSEC),
            key=Name.canonical_key)
        self._owners: list[Name] = owners
        self._keys = [owner.canonical_key() for owner in owners]

    def __len__(self) -> int:
        return len(self._owners)

    def covering(self, qname: Name) -> Name | None:
        """The owner of the NSEC whose interval contains ``qname``.

        An exact chain member returns itself (its NSEC proves type
        absence); a name off the chain returns its canonical
        predecessor, wrapping to the last owner for names sorting
        before the apex.
        """
        if not self._owners:
            return None
        index = bisect_left(self._keys, qname.canonical_key())
        if index < len(self._keys) and self._keys[index] == \
                qname.canonical_key():
            return self._owners[index]
        return self._owners[index - 1] if index else self._owners[-1]


def _nsec_pair(zone: Zone, owner: Name) -> tuple[RRset, RRset | None] | None:
    nsec = zone.get_rrset(owner, RType.NSEC)
    if nsec is None:
        return None
    return (nsec, covering_rrsigs(zone, owner, RType.NSEC))


def _closest_encloser(zone: Zone, qname: Name) -> Name:
    current = qname
    while current != zone.origin and not current.is_root:
        current = current.parent()
        if zone.has_name(current):
            return current
    return zone.origin


def chain_denial(zone: Zone, index: NsecChainIndex, qname: Name,
                 *, nxdomain: bool) -> DenialPairs:
    """Denial proof from the precomputed chain (RFC 4035 3.1.3)."""
    pairs: DenialPairs = []
    seen: set[Name] = set()

    def push(owner: Name | None) -> None:
        if owner is None or owner in seen:
            return
        pair = _nsec_pair(zone, owner)
        if pair is not None:
            seen.add(owner)
            pairs.append(pair)

    push(index.covering(qname))
    if nxdomain:
        # Deny the wildcard at the closest encloser too, or the proof
        # leaves synthesis ambiguous (RFC 4035 section 3.1.3.2).
        try:
            wildcard = _closest_encloser(zone, qname).prepend(b"*")
        except NameError_:  # pragma: no cover - '*' always fits
            wildcard = None
        if wildcard is not None:
            push(index.covering(wildcard))
    return pairs


def _soa_minimum(zone: Zone) -> int:
    soa_rrset = zone.soa
    if soa_rrset is not None:
        rdata = soa_rrset.records[0].rdata
        if isinstance(rdata, SOA):
            return rdata.minimum
    return 300


def compact_denial(zone: Zone, keys: KeyRing, policy: SigningPolicy,
                   qname: Name, now: float,
                   types: tuple[int, ...] = ()) -> DenialPairs:
    """Synthesize a black-lies minimally covering NSEC for ``qname``.

    The proof asserts ``qname`` exists with only NSEC and RRSIG
    present (plus ``types``, for NODATA at names that really exist):
    its interval is the smallest expressible one, ``qname`` to
    ``\\000.qname``, so it discloses no neighbouring names and needs
    no per-name precomputation. Callers answer with rcode NOERROR
    (NODATA) — the defining observable of this mode.
    """
    try:
        next_name = qname.prepend(b"\x00")
    except NameError_:
        # qname already at the 255-octet wire limit: fall back to the
        # owner itself, still a valid (degenerate) minimal interval.
        next_name = qname
    nsec_rrset = make_rrset(
        qname, RType.NSEC, _soa_minimum(zone),
        [NSEC(next_name,
              (int(RType.NSEC), int(RType.RRSIG)) + tuple(types))])
    rrsig = make_rrsig(nsec_rrset, keys.zone_signer, now, policy)
    rrsig_rrset = make_rrset(qname, RType.RRSIG, nsec_rrset.ttl, [rrsig])
    return [(nsec_rrset, rrsig_rrset)]
