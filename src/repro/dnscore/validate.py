"""Semantic validation of zone updates before they propagate.

The paper's phased metadata deployment (section 4.2) assumes a bad
update can be caught *before* it reaches the whole platform. This
module is the first gate of that release train: a pure, side-effect
free check of a candidate zone against the version currently served.
"Reachability Analysis of the Domain Name System" motivates the same
checks as static reachability invariants — broken delegations and
missing apex records are platform-wide outages waiting on a cache miss.

Rules (codes are stable identifiers used by tests and rollout events):

=================== ======== ==========================================
rule                severity trips when
=================== ======== ==========================================
``missing-soa``     fatal    no SOA record at the zone origin
``missing-apex-ns`` fatal    no NS RRset at the zone origin
``serial-regression`` fatal  new serial is behind the served serial
                             (RFC 1982 order), or the serial did not
                             advance although the content changed —
                             caches would never pick up the new data
``record-loss``     fatal    the candidate lost most of the previous
                             version's RRsets: the signature of a
                             truncated or partial transfer
``broken-delegation`` fatal  a delegation whose nameservers all live
                             inside the delegated subtree but have no
                             glue — the subtree is unreachable
``signature-expired`` fatal  a signed zone carries an RRSIG already
                             expired at validation time (checked only
                             when :class:`ValidationLimits` carries a
                             clock reading in ``now``)
``rrsig-key-mismatch`` fatal an RRSIG names a signer or key tag with
                             no matching DNSKEY at the apex — no
                             validator could ever verify it
``broken-nsec-chain`` fatal  the NSEC next-owner pointers do not form
                             one closed cycle over the chain's owners
``dangling-ns``     advisory an in-zone NS target with no A/AAAA glue
``no-op-republish`` advisory serial and content both unchanged
=================== ======== ==========================================

The DNSSEC rules are structural, not cryptographic: they read key tags
and timestamps off the candidate's own records, so ``dnscore`` never
imports the signing package above it. Digest verification happens at
serving time (``repro.dnssec.sign.verify_rrsig``); the gate's job is
catching the botched-publish shapes — expired signatures, a zone signed
by a key it no longer publishes, a truncated chain — before they ship.

Only ``fatal`` issues block an install; advisories ride along in the
report for operators. ``ZoneUpdate`` — the typed payload the rollout
train publishes on the metadata bus — lives here rather than in
``control`` so ``server.machine`` can unwrap it without importing the
control plane (which would cycle back through ``control.recovery``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

from .name import Name
from .rdata import DNSKEY, NS, NSEC, RRSIG
from .rrtypes import RType
from .zone import Zone, serial_gt

#: Issue severities: only FATAL blocks an install.
FATAL = "fatal"
ADVISORY = "advisory"


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    """One finding of :func:`validate_update`."""

    rule: str
    severity: str
    message: str


@dataclass(frozen=True, slots=True)
class ValidationLimits:
    """Tunables for the content-sanity rules."""

    #: ``record-loss`` fires when the candidate keeps fewer than this
    #: fraction of the previous version's RRsets ...
    record_loss_floor: float = 0.5
    #: ... and the previous version was at least this big (tiny zones
    #: legitimately shrink by large fractions).
    min_previous_rrsets: int = 4
    #: Validation-time clock reading (simulation seconds). When set,
    #: ``signature-expired`` compares RRSIG expirations against it;
    #: when None (the default) the expiry rule is skipped, keeping the
    #: check pure for callers without a clock.
    now: float | None = None


DEFAULT_LIMITS = ValidationLimits()


@dataclass(slots=True)
class ValidationReport:
    """All issues found for one candidate zone."""

    origin: Name
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def fatal(self) -> bool:
        return any(i.severity == FATAL for i in self.issues)

    def rules(self) -> list[str]:
        """Sorted unique rule codes that fired."""
        return sorted({i.rule for i in self.issues})

    def fatal_rules(self) -> list[str]:
        return sorted({i.rule for i in self.issues if i.severity == FATAL})

    def describe(self) -> str:
        if not self.issues:
            return f"{self.origin}: clean"
        lines = [f"{self.origin}: {len(self.issues)} issue(s)"]
        lines += [f"  [{i.severity}] {i.rule}: {i.message}"
                  for i in self.issues]
        return "\n".join(lines)


def content_digest(zone: Zone) -> str:
    """Stable digest of a zone's full record content.

    Canonical RRset iteration order plus record text gives a digest
    that is independent of insertion order, so two zones with the same
    content always hash alike.
    """
    hasher = hashlib.sha256()
    for rrset in zone.iter_rrsets():
        for record in rrset.records:
            hasher.update(str(record).encode("ascii", "backslashreplace"))
            hasher.update(b"\n")
    return hasher.hexdigest()


def _has_glue(zone: Zone, target: Name) -> bool:
    return (zone.get_rrset(target, RType.A) is not None
            or zone.get_rrset(target, RType.AAAA) is not None)


def rrsig_key_checks(zone: Zone) -> Iterator[tuple[Name, RRSIG, bool]]:
    """(owner, RRSIG, whether the apex DNSKEY RRset publishes its signer
    and key tag) per RRSIG, in zone order; none for an unsigned zone."""
    dnskeys = zone.get_rrset(zone.origin, RType.DNSKEY)
    if dnskeys is None:
        return
    tags = {r.key_tag() for r in dnskeys.rdatas() if isinstance(r, DNSKEY)}
    for rrset in zone.iter_rrsets():
        if rrset.rtype is RType.RRSIG:
            for rrsig in rrset.rdatas():
                if isinstance(rrsig, RRSIG):
                    yield (rrset.name, rrsig, rrsig.signer == zone.origin
                           and rrsig.key_tag in tags)


def _dnssec_issues(zone: Zone, limits: ValidationLimits,
                   issues: list[ValidationIssue]) -> None:
    """DNSSEC structural rules; no-op for unsigned zones.

    A zone is "signed" for these purposes when it publishes a DNSKEY
    RRset at its apex — exactly the condition the serving path uses to
    decide whether DO=1 responses carry signatures.
    """
    if zone.get_rrset(zone.origin, RType.DNSKEY) is None:
        return
    mismatched: set[tuple[Name, int]] = set()
    for owner, rrsig, key_published in rrsig_key_checks(zone):
        if not key_published and (owner, rrsig.key_tag) not in mismatched:
            mismatched.add((owner, rrsig.key_tag))
            issues.append(ValidationIssue(
                "rrsig-key-mismatch", FATAL,
                f"RRSIG at {owner} names key tag {rrsig.key_tag} of "
                f"{rrsig.signer}, which the apex DNSKEY RRset does not "
                f"publish"))
        if limits.now is not None and rrsig.expiration <= limits.now:
            issues.append(ValidationIssue(
                "signature-expired", FATAL,
                f"RRSIG at {owner} covering type {rrsig.type_covered} "
                f"expired at {rrsig.expiration} (now {limits.now:.0f})"))

    owners: dict[Name, NSEC] = {}
    for rrset in zone.iter_rrsets():
        if rrset.rtype is RType.NSEC and rrset.records:
            rdata = rrset.records[0].rdata
            if isinstance(rdata, NSEC):
                owners[rrset.name] = rdata
    if not owners:
        return
    start = (zone.origin if zone.origin in owners
             else min(owners, key=Name.canonical_key))
    visited: set[Name] = set()
    current = start
    broken: str | None = None
    for _ in range(len(owners)):
        visited.add(current)
        nxt = owners[current].next_name
        if nxt not in owners:
            broken = (f"NSEC at {current} points to {nxt}, "
                      f"which owns no NSEC")
            break
        current = nxt
    if broken is None and len(visited) != len(owners):
        broken = (f"chain splits into cycles: walking from {start} "
                  f"reaches {len(visited)} of {len(owners)} NSEC owners")
    if broken is None and current != start:
        broken = f"chain walked from {start} never returns to it"
    if broken is not None:
        issues.append(ValidationIssue("broken-nsec-chain", FATAL, broken))


def validate_update(zone: Zone, previous: Zone | None = None, *,
                    limits: ValidationLimits = DEFAULT_LIMITS,
                    ) -> ValidationReport:
    """Check a candidate ``zone`` against the currently served version.

    ``previous`` is the version being replaced (None for a first
    install, which skips the serial/content comparisons). The check is
    pure: neither zone is modified and no state is kept.
    """
    report = ValidationReport(zone.origin)
    issues = report.issues

    soa = zone.soa
    if soa is None:
        issues.append(ValidationIssue(
            "missing-soa", FATAL, "no SOA record at the zone origin"))
    if zone.get_rrset(zone.origin, RType.NS) is None:
        issues.append(ValidationIssue(
            "missing-apex-ns", FATAL, "no NS RRset at the zone origin"))

    if previous is not None and soa is not None and previous.soa is not None:
        new_serial = zone.serial
        old_serial = previous.serial
        if new_serial == old_serial:
            if content_digest(zone) != content_digest(previous):
                issues.append(ValidationIssue(
                    "serial-regression", FATAL,
                    f"content changed but serial stayed at {new_serial}; "
                    f"caches would never refresh"))
            else:
                issues.append(ValidationIssue(
                    "no-op-republish", ADVISORY,
                    f"serial {new_serial} and content unchanged"))
        elif not serial_gt(new_serial, old_serial):
            issues.append(ValidationIssue(
                "serial-regression", FATAL,
                f"serial went backwards: {old_serial} -> {new_serial}"))

    if previous is not None:
        before = previous.rrset_count()
        after = zone.rrset_count()
        if (before >= limits.min_previous_rrsets
                and after < before * limits.record_loss_floor):
            issues.append(ValidationIssue(
                "record-loss", FATAL,
                f"RRset count collapsed {before} -> {after}; "
                f"looks like a truncated transfer"))

    # Delegation health: every NS RRset (apex and cuts) is checked for
    # in-zone targets without glue. A *cut* whose targets all live in
    # the delegated subtree and none carry glue is unreachable.
    for rrset in zone.iter_rrsets():
        if rrset.rtype is not RType.NS:
            continue
        in_zone = [r.rdata.target for r in rrset.records
                   if isinstance(r.rdata, NS)
                   and r.rdata.target.is_subdomain_of(zone.origin)]
        missing = [t for t in in_zone if not _has_glue(zone, t)]
        for target in missing:
            issues.append(ValidationIssue(
                "dangling-ns", ADVISORY,
                f"NS target {target} for {rrset.name} has no glue"))
        is_cut = rrset.name != zone.origin
        if (is_cut and in_zone and len(missing) == len(rrset.records)
                and len(in_zone) == len(rrset.records)):
            issues.append(ValidationIssue(
                "broken-delegation", FATAL,
                f"delegation {rrset.name} is unreachable: all "
                f"nameservers are below the cut and none have glue"))

    _dnssec_issues(zone, limits, issues)

    return report


@dataclass(frozen=True, slots=True)
class ZoneUpdate:
    """Typed payload for guarded zone propagation on the metadata bus.

    ``rollback=True`` marks a last-known-good reinstall: receivers skip
    validation for it, because the restored version has a *lower*
    serial than the corrupt one by construction and would otherwise be
    rejected as a serial regression.
    """

    zone: Zone
    rollback: bool = False
    release_id: int = 0
