"""Workload models: populations, arrivals, attacks, geolocation.

Generative models calibrated to the traffic characterization of paper
section 2, plus the attack-traffic generators of section 4.3.4. The
numpy-backed arrival models are not re-exported: import them from
:mod:`repro.workload.arrivals`, so the attack path stays numpy-free.
"""

from .attacks import (
    AttackStats,
    DirectQueryAttack,
    JunkPayload,
    QoDInjector,
    RandomSubdomainAttack,
    SpoofedIdentity,
    SpoofedSourceAttack,
    VolumetricAttack,
    random_label,
)
from .geolocation import (
    GeoRecord,
    GeolocationService,
    MAJOR_REGIONS,
    major_region_share,
    regional_query_shares,
)
from .population import (
    Resolver,
    ResolverPopulation,
    ZonePopularity,
    overlap_fraction,
    share_of_top,
)

__all__ = [
    "AttackStats", "DirectQueryAttack", "GeoRecord",
    "GeolocationService", "JunkPayload", "MAJOR_REGIONS",
    "QoDInjector", "RandomSubdomainAttack", "Resolver",
    "ResolverPopulation", "SpoofedIdentity", "SpoofedSourceAttack",
    "VolumetricAttack", "ZonePopularity", "major_region_share",
    "overlap_fraction", "random_label", "regional_query_shares",
    "share_of_top",
]
