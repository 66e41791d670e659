"""Workload models: populations, arrivals, attacks, geolocation.

Generative models calibrated to the traffic characterization of paper
section 2, plus the attack-traffic generators of section 4.3.4.
"""

from .arrivals import (
    DiurnalModel,
    SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
    bursty_counts,
)
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
    "AttackStats", "DirectQueryAttack", "DiurnalModel", "GeoRecord",
    "GeolocationService", "JunkPayload", "MAJOR_REGIONS",
    "QoDInjector", "RandomSubdomainAttack", "Resolver",
    "ResolverPopulation", "SECONDS_PER_DAY", "SECONDS_PER_WEEK",
    "SpoofedIdentity", "SpoofedSourceAttack", "VolumetricAttack",
    "ZonePopularity", "bursty_counts", "major_region_share",
    "overlap_fraction", "random_label", "regional_query_shares",
    "share_of_top",
]
