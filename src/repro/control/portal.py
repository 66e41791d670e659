"""Management Portal: enterprise-facing zone and configuration CRUD.

Enterprises modify DNS zones, GTM configurations, and CDN properties
through the portal via website or API (paper section 3.2; its
zone-transfer ingestion is not modelled). The portal validates every
input before publishing — the first line of defense against
input-induced failures (section 4.2.3) — then publishes the accepted
metadata on the CDN channel for the nameservers to consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dnscore.errors import DNSError, ZoneError
from ..dnscore.name import Name
from ..dnscore.rrtypes import RType
from ..dnscore.validate import ZoneUpdate
from ..dnscore.zone import Zone, serial_gt
from ..dnscore.zonefile import parse_zone_text
from .pubsub import CDN_CHANNEL, MetadataBus


class ValidationError(Exception):
    """The portal rejected an enterprise submission."""


@dataclass(slots=True)
class Enterprise:
    """One customer account."""

    enterprise_id: str
    delegation_set: tuple[str, ...] = ()
    zones: dict[Name, Zone] = field(default_factory=dict)


@dataclass(slots=True)
class PortalLimits:
    """Validation knobs."""

    max_rrsets_per_zone: int = 100_000
    max_zones_per_enterprise: int = 10_000


class ManagementPortal:
    """Validates enterprise metadata and publishes it to nameservers."""

    def __init__(self, bus: MetadataBus,
                 limits: PortalLimits | None = None) -> None:
        self.bus = bus
        self.limits = limits or PortalLimits()
        self.enterprises: dict[str, Enterprise] = {}
        self.zones_published = 0
        self.rejections = 0

    def register_enterprise(self, enterprise_id: str,
                            delegation_set: tuple[str, ...] = ()
                            ) -> Enterprise:
        if enterprise_id in self.enterprises:
            raise ValidationError(f"enterprise {enterprise_id} exists")
        enterprise = Enterprise(enterprise_id, delegation_set)
        self.enterprises[enterprise_id] = enterprise
        return enterprise

    # -- zone ingestion -----------------------------------------------------------

    def submit_zone_text(self, enterprise_id: str, text: str,
                         origin: str | None = None) -> Zone:
        """API/website path: a zone in master-file format."""
        try:
            zone = parse_zone_text(text, origin=origin)
        except DNSError as exc:
            self.rejections += 1
            raise ValidationError(f"zone rejected: {exc}") from exc
        return self._accept(enterprise_id, zone)

    def _accept(self, enterprise_id: str, zone: Zone) -> Zone:
        enterprise = self.enterprises.get(enterprise_id)
        if enterprise is None:
            self.rejections += 1
            raise ValidationError(f"unknown enterprise {enterprise_id}")
        try:
            self._validate(enterprise, zone)
        except (ValidationError, ZoneError) as exc:
            self.rejections += 1
            raise ValidationError(str(exc)) from exc
        existing = enterprise.zones.get(zone.origin)
        if existing is not None:
            if existing.serial == zone.serial:
                # Idempotent resubmission; nothing to publish.
                return existing
            if not serial_gt(zone.serial, existing.serial):
                self.rejections += 1
                raise ValidationError(
                    f"zone {zone.origin}: serial {zone.serial} does not "
                    f"advance past {existing.serial} (serials must advance)")
        enterprise.zones[zone.origin] = zone
        self.zones_published += 1
        self.bus.publish_zone(CDN_CHANNEL, str(zone.origin), ZoneUpdate(zone))
        return zone

    def _validate(self, enterprise: Enterprise, zone: Zone) -> None:
        zone.validate()
        if zone.rrset_count() > self.limits.max_rrsets_per_zone:
            raise ValidationError(
                f"zone {zone.origin} exceeds rrset limit")
        if (zone.origin not in enterprise.zones
                and len(enterprise.zones)
                >= self.limits.max_zones_per_enterprise):
            raise ValidationError("enterprise zone quota exceeded")
        for origin, owner in self._zone_owners().items():
            if origin == zone.origin and owner != enterprise.enterprise_id:
                raise ValidationError(
                    f"zone {origin} is owned by another enterprise")
        if enterprise.delegation_set:
            self._validate_delegations(enterprise, zone)

    def _validate_delegations(self, enterprise: Enterprise,
                              zone: Zone) -> None:
        """Apex NS must reference the enterprise's assigned clouds."""
        ns = zone.get_rrset(zone.origin, RType.NS)
        assert ns is not None  # zone.validate() guarantees it
        expected = set(enterprise.delegation_set)
        actual = {str(record.rdata.target) for record in ns}
        if not actual & expected:
            raise ValidationError(
                f"zone {zone.origin} apex NS must include at least one of "
                f"the assigned delegation set")

    def _zone_owners(self) -> dict[Name, str]:
        return {origin: e.enterprise_id
                for e in self.enterprises.values() for origin in e.zones}
