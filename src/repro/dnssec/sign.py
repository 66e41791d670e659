"""Whole-zone signing and signature verification.

The signer is a control-plane component: it mutates a :class:`Zone`
through the normal authoring API, so every signing pass rides the same
``Zone.version`` bump as any other update — downstream plan caches
cannot serve stale signed answers by construction. Signing is
deterministic: canonical-order iteration, seed-derived keys, and
sim-time validity windows.

Layout follows RFC 4034/4035:

* apex DNSKEY RRset for the key ring's published keys;
* one RRSIG per (RRset, signer) over the RFC 4034 section 3.1.8.1
  canonical encoding, with inception/expiry in simulation-epoch
  seconds;
* an NSEC chain in canonical order over every name owning
  authoritative data (delegation points included, occluded glue and
  empty non-terminals excluded per RFC 4035 section 2.3), the last
  NSEC wrapping back to the apex;
* delegation NS RRsets stay unsigned; the NSEC at the cut carries the
  NS bit.

:meth:`ZoneSigner.resign` is incremental: RRsets whose canonical
encoding is unchanged keep their existing, still-valid signatures, so
a small zone update touches a small number of records.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..dnscore import DNSKEY, RRSIG, RType, make_rrset
from ..dnscore.name import Name
from ..dnscore.rdata import NSEC, SOA
from ..dnscore.records import ResourceRecord, RRset
from ..dnscore.rrtypes import RClass
from ..dnscore.wire import WireWriter
from ..dnscore.zone import Zone
from ..telemetry import state as _telemetry
from .keys import KeyPair, KeyRing, toy_signature


#: TTL of the apex DNSKEY RRset.
DNSKEY_TTL = 3600


@dataclass(frozen=True, slots=True)
class SigningPolicy:
    """Signature lifetimes of one zone's signing pipeline."""

    #: Signature lifetime in simulation seconds.
    sig_validity: float = 86_400.0
    #: Inception backdating, absorbing clock skew between machines.
    inception_skew: float = 300.0
    #: Re-sign when an existing signature has less than this long left
    #: even if the covered RRset is unchanged.
    resign_margin: float = 3_600.0


@dataclass(slots=True)
class SignStats:
    """What one signing pass did to the zone."""

    signatures_created: int = 0
    signatures_reused: int = 0
    nsec_written: int = 0
    rrsets_removed: int = 0


def _name_wire(name: Name) -> bytes:
    out = bytearray()
    for label in name.labels:
        out.append(len(label))
        out += label
    out.append(0)
    return bytes(out)


def _rdata_wire(rdata) -> bytes:
    writer = WireWriter(compress=False)
    rdata.write(writer)
    return writer.getvalue()


def canonical_rrset_bytes(rrset: RRset, original_ttl: int,
                          owner: Name | None = None) -> bytes:
    """RFC 4034 section 3.1.8.1 ``RR(i)`` concatenation for an RRset.

    ``owner`` overrides the RRset's name for wildcard verification,
    where the signature covers ``*.<closest encloser>`` rather than the
    synthesized query name.
    """
    owner_wire = _name_wire(owner if owner is not None else rrset.name)
    rdata_wires = sorted(_rdata_wire(r.rdata) for r in rrset.records)
    out = bytearray()
    for wire in rdata_wires:
        out += owner_wire
        out += int(rrset.rtype).to_bytes(2, "big")
        out += int(rrset.rclass).to_bytes(2, "big")
        out += original_ttl.to_bytes(4, "big")
        out += len(wire).to_bytes(2, "big")
        out += wire
    return bytes(out)


def _rrsig_prefix(rrsig: RRSIG) -> bytes:
    """The RRSIG rdata with the signature field removed (what is signed)."""
    out = bytearray()
    out += rrsig.type_covered.to_bytes(2, "big")
    out.append(rrsig.algorithm)
    out.append(rrsig.labels)
    out += rrsig.original_ttl.to_bytes(4, "big")
    out += rrsig.expiration.to_bytes(4, "big")
    out += rrsig.inception.to_bytes(4, "big")
    out += rrsig.key_tag.to_bytes(2, "big")
    out += _name_wire(rrsig.signer)
    return bytes(out)


def _owner_labels(owner: Name) -> int:
    """RFC 4034 labels field: label count, not counting a leftmost ``*``."""
    count = len(owner.labels)
    return count - 1 if owner.is_wildcard else count


def make_rrsig(rrset: RRset, key: KeyPair, now: float,
               policy: SigningPolicy) -> RRSIG:
    """Sign one RRset with one key at simulation time ``now``."""
    unsigned = RRSIG(
        type_covered=int(rrset.rtype),
        algorithm=key.rdata.algorithm,
        labels=_owner_labels(rrset.name),
        original_ttl=rrset.ttl,
        expiration=int(now + policy.sig_validity),
        inception=max(0, int(now - policy.inception_skew)),
        key_tag=key.key_tag,
        signer=key.origin,
        signature=b"",
    )
    data = _rrsig_prefix(unsigned) + canonical_rrset_bytes(rrset, rrset.ttl)
    return RRSIG(unsigned.type_covered, unsigned.algorithm, unsigned.labels,
                 unsigned.original_ttl, unsigned.expiration,
                 unsigned.inception, unsigned.key_tag, unsigned.signer,
                 key.sign(data))


def verify_rrsig(rrset: RRset, rrsig: RRSIG, dnskeys: list[DNSKEY],
                 now: float) -> str | None:
    """Check one signature; ``None`` when valid, else the failure reason."""
    if now > rrsig.expiration:
        return (f"RRSIG({rrset.name} {rrset.rtype.name}) expired at "
                f"{rrsig.expiration} (now {now:.0f})")
    if now < rrsig.inception:
        return (f"RRSIG({rrset.name} {rrset.rtype.name}) not yet valid "
                f"(inception {rrsig.inception}, now {now:.0f})")
    matching = [k for k in dnskeys
                if k.key_tag() == rrsig.key_tag
                and k.algorithm == rrsig.algorithm]
    if not matching:
        return (f"RRSIG({rrset.name} {rrset.rtype.name}) key tag "
                f"{rrsig.key_tag} matches no DNSKEY")
    owner = rrset.name
    if rrsig.labels < len(owner.labels):
        # Wildcard expansion: the signature covers *.<closest encloser>.
        owner = Name((b"*",) + owner.labels[-rrsig.labels:])
    data = (_rrsig_prefix(rrsig)
            + canonical_rrset_bytes(rrset, rrsig.original_ttl, owner=owner))
    for key in matching:
        if toy_signature(key.public_key, data) == rrsig.signature:
            return None
    return f"RRSIG({rrset.name} {rrset.rtype.name}) signature mismatch"


def _rrsigs_in(rrsets: list[RRset], owner: Name,
               type_covered: RType) -> list[RRSIG]:
    out: list[RRSIG] = []
    for rrset in rrsets:
        if rrset.rtype != RType.RRSIG or rrset.name != owner:
            continue
        for record in rrset.records:
            rdata = record.rdata
            if isinstance(rdata, RRSIG) \
                    and rdata.type_covered == int(type_covered):
                out.append(rdata)
    return out


def verify_message(message, dnskeys: list[DNSKEY], now: float,
                   *, require_signatures: bool = True) -> list[str]:
    """Validate every signable RRset in a response's record sections.

    Returns the list of failure reasons; empty means the message is
    verifiably signed. With ``require_signatures`` (a validating
    resolver that knows the zone is signed), an unsigned RRset is
    itself a failure — the downgrade attack DNSSEC exists to prevent.
    """
    failures: list[str] = []
    for section in (message.answer_rrsets(), message.authority_rrsets()):
        for rrset in section:
            if rrset.rtype == RType.RRSIG:
                continue
            sigs = _rrsigs_in(section, rrset.name, rrset.rtype)
            if not sigs:
                if require_signatures:
                    failures.append(f"no RRSIG covering {rrset.name} "
                                    f"{rrset.rtype.name}")
                continue
            reasons = [verify_rrsig(rrset, sig, dnskeys, now)
                       for sig in sigs]
            if all(reason is not None for reason in reasons):
                failures.append(reasons[0] or "unverifiable RRSIG")
    return failures


def covering_rrsigs(zone: Zone, owner: Name,
                    rtype: RType) -> RRset | None:
    """The RRSIGs at ``owner`` covering ``rtype``, as their own RRset."""
    stored = zone.get_rrset(owner, RType.RRSIG)
    if stored is None:
        return None
    records = [r for r in stored.records
               if isinstance(r.rdata, RRSIG)
               and r.rdata.type_covered == int(rtype)]
    if not records:
        return None
    out = RRset(owner, RType.RRSIG, stored.rclass, stored.ttl)
    out.records = records
    return out


def zone_is_signed(zone: Zone) -> bool:
    return zone.get_rrset(zone.origin, RType.DNSKEY) is not None


class ZoneSigner:
    """Signs one zone and keeps it signed across content updates."""

    def __init__(self, keys: KeyRing,
                 policy: SigningPolicy | None = None) -> None:
        self.keys = keys
        self.policy = policy or SigningPolicy()
        #: (name, covered type) -> canonical digest at last signing.
        self._digests: dict[tuple[Name, int], bytes] = {}

    # -- public entry points ------------------------------------------

    def sign(self, zone: Zone, now: float) -> SignStats:
        """Full signing pass: every signature freshly computed."""
        self._digests.clear()
        return self._apply(zone, now, reuse=False)

    def resign(self, zone: Zone, now: float) -> SignStats:
        """Incremental pass after a content update.

        Unchanged RRsets keep their existing signatures while those
        remain comfortably inside their validity window; changed or
        near-expiry RRsets are re-signed. The NSEC chain is rebuilt
        only where the name/type topology moved.
        """
        return self._apply(zone, now, reuse=True)

    # -- implementation -----------------------------------------------

    def _apply(self, zone: Zone, now: float, *, reuse: bool) -> SignStats:
        if zone.origin != self.keys.origin:
            raise ValueError(f"key ring for {self.keys.origin} cannot "
                             f"sign {zone.origin}")
        policy = self.policy
        stats = SignStats()

        # 1. Apex DNSKEY RRset for the published keys.
        dnskey_rrset = self.keys.dnskey_rrset(DNSKEY_TTL)
        existing_dnskey = zone.get_rrset(zone.origin, RType.DNSKEY)
        if existing_dnskey is None \
                or existing_dnskey.rdatas() != dnskey_rrset.rdatas():
            zone.add_rrset(dnskey_rrset)

        # 2. Authoritative content map, occluded names excluded.
        cuts = {rrset.name for rrset in zone.iter_rrsets()
                if rrset.rtype == RType.NS and rrset.name != zone.origin}

        def occluded(owner: Name) -> bool:
            return any(owner != cut and owner.is_subdomain_of(cut)
                       for cut in cuts)

        content: dict[Name, dict[RType, RRset]] = {}
        for rrset in zone.iter_rrsets():
            if rrset.rtype in (RType.RRSIG, RType.NSEC):
                continue
            if occluded(rrset.name):
                continue
            content.setdefault(rrset.name, {})[rrset.rtype] = rrset

        chain = sorted(content, key=Name.canonical_key)
        soa_minimum = DNSKEY_TTL
        apex_soa = content.get(zone.origin, {}).get(RType.SOA)
        if apex_soa is not None:
            soa_rdata = apex_soa.records[0].rdata
            if isinstance(soa_rdata, SOA):
                soa_minimum = soa_rdata.minimum

        # 3. NSEC chain in canonical order, wrapping to the apex.
        nsec_rrsets: dict[Name, RRset] = {}
        for i, owner in enumerate(chain):
            nxt = chain[(i + 1) % len(chain)]
            types = {int(t) for t in content[owner]}
            types.add(int(RType.NSEC))
            types.add(int(RType.RRSIG))
            desired = make_rrset(owner, RType.NSEC, soa_minimum,
                                 [NSEC(nxt, tuple(sorted(types)))])
            nsec_rrsets[owner] = desired
            existing = zone.get_rrset(owner, RType.NSEC)
            if existing is None or existing.rdatas() != desired.rdatas():
                zone.add_rrset(desired)
                stats.nsec_written += 1

        # 4. RRSIGs: every content RRset except delegation NS, plus the
        # NSEC at each name. DNSKEY is covered by the KSK set; all else
        # by the zone signer.
        for owner in chain:
            signable: list[RRset] = []
            for rtype in sorted(content[owner], key=int):
                if owner in cuts and rtype == RType.NS:
                    continue
                signable.append(content[owner][rtype])
            signable.append(nsec_rrsets[owner])

            existing_sigs: dict[tuple[int, int], ResourceRecord] = {}
            stored = zone.get_rrset(owner, RType.RRSIG)
            if stored is not None:
                for record in stored.records:
                    rdata = record.rdata
                    if isinstance(rdata, RRSIG):
                        existing_sigs[(rdata.type_covered,
                                       rdata.key_tag)] = record

            new_records: list[ResourceRecord] = []
            for rrset in signable:
                digest = hashlib.sha256(
                    canonical_rrset_bytes(rrset, rrset.ttl)).digest()
                digest_key = (owner, int(rrset.rtype))
                signers = (self.keys.dnskey_signers
                           if rrset.rtype == RType.DNSKEY
                           else [self.keys.zone_signer])
                for key in signers:
                    kept = existing_sigs.get((int(rrset.rtype), key.key_tag))
                    fresh_enough = (
                        kept is not None and isinstance(kept.rdata, RRSIG)
                        and kept.rdata.expiration - now >= policy.resign_margin
                        and self._digests.get(digest_key) == digest)
                    if reuse and fresh_enough:
                        new_records.append(kept)
                        stats.signatures_reused += 1
                    else:
                        rdata = make_rrsig(rrset, key, now, policy)
                        new_records.append(ResourceRecord(
                            owner, RType.RRSIG, RClass.IN, rrset.ttl, rdata))
                        stats.signatures_created += 1
                self._digests[digest_key] = digest

            desired = RRset(owner, RType.RRSIG, RClass.IN)
            for record in new_records:
                desired.add(record)
            stored = zone.get_rrset(owner, RType.RRSIG)
            if stored is None or stored.rdatas() != desired.rdatas():
                zone.add_rrset(desired)

        # 5. Drop DNSSEC RRsets at names that left the chain.
        chain_set = set(chain)
        stale = [(rrset.name, rrset.rtype) for rrset in zone.iter_rrsets()
                 if rrset.rtype in (RType.RRSIG, RType.NSEC)
                 and rrset.name not in chain_set]
        for owner, rtype in stale:
            zone.remove_rrset(owner, rtype)
            stats.rrsets_removed += 1
            self._digests = {k: v for k, v in self._digests.items()
                             if k[0] != owner}
        for disposition, count in (("created", stats.signatures_created),
                                   ("reused", stats.signatures_reused)):
            if count:
                _telemetry.record("dnssec_signatures_total",
                                  (zone.origin, disposition), value=count)
        return stats
