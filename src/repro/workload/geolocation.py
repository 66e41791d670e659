"""EdgeScape-style geolocation of query sources (paper section 2).

The paper geolocates query source addresses and finds 92% arrive from
North America, Europe, and Asia. This module provides the lookup-table
service (address -> region) and the aggregate report the Figure 2
companion statistic needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim.geo import GeoModel, GeoPoint

MAJOR_REGIONS = ("north-america", "europe", "asia")


@dataclass(frozen=True, slots=True)
class GeoRecord:
    """One geolocation database entry."""

    address: str
    region: str
    location: GeoPoint


class GeolocationService:
    """An EdgeScape-like database built from registered sources."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._model = GeoModel(rng)
        self._records: dict[str, GeoRecord] = {}

    def register(self, address: str, region: str | None = None,
                 location: GeoPoint | None = None) -> GeoRecord:
        """Add a source; region/location are sampled when omitted."""
        if region is None:
            region = self._model.pick_region()
        if location is None:
            location = self._model.point_in_region(region)
        record = GeoRecord(address, region, location)
        self._records[address] = record
        return record

    def lookup(self, address: str) -> GeoRecord | None:
        return self._records.get(address)

    def __len__(self) -> int:
        return len(self._records)


def regional_query_shares(service: GeolocationService,
                          rates: dict[str, float]) -> dict[str, float]:
    """Query share per region for rate-weighted sources."""
    totals: dict[str, float] = {}
    grand_total = 0.0
    for address, rate in rates.items():
        record = service.lookup(address)
        if record is None:
            continue
        totals[record.region] = totals.get(record.region, 0.0) + rate
        grand_total += rate
    if not grand_total:
        return {}
    return {region: total / grand_total
            for region, total in sorted(totals.items())}


def major_region_share(shares: dict[str, float]) -> float:
    """Combined share of NA + Europe + Asia (paper: 92%)."""
    return sum(shares.get(region, 0.0) for region in MAJOR_REGIONS)
