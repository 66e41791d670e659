"""Geographic placement and propagation-latency model.

PoPs, transit routers, and vantage points get coordinates on the globe;
link latency is great-circle distance over fiber (speed of light in glass,
with a path-stretch factor), floored at a small per-hop minimum. This gives
the failover and Two-Tier experiments a latency structure with the same
shape as real deployments: nearby PoPs answer in few milliseconds, and
intercontinental paths cost 100+ ms round trip.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0
#: km per ms one-way in fiber (c * ~0.67 refractive slowdown).
FIBER_KM_PER_MS = 200.0
#: Real paths are not great circles; typical stretch is 1.5-2.5x.
PATH_STRETCH = 1.8
#: Router/serialization floor per link, ms.
MIN_LINK_LATENCY_MS = 0.2


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A latitude/longitude pair in degrees."""

    lat: float
    lon: float

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance (haversine)."""
        lat1, lon1 = math.radians(self.lat), math.radians(self.lon)
        lat2, lon2 = math.radians(other.lat), math.radians(other.lon)
        dlat = lat2 - lat1
        dlon = lon2 - lon1
        a = (math.sin(dlat / 2) ** 2
             + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2)
        return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))

    def latency_ms(self, other: "GeoPoint") -> float:
        """One-way propagation latency in ms over stretched fiber."""
        km = self.distance_km(other) * PATH_STRETCH
        return max(MIN_LINK_LATENCY_MS, km / FIBER_KM_PER_MS)


#: (name, lat, lon, weight) — weight is relative Internet population; the
#: mix approximates the paper's 92% of queries from NA/EU/Asia (section 2).
REGIONS: list[tuple[str, float, float, float]] = [
    ("north-america", 39.8, -98.6, 0.30),
    ("europe", 50.1, 8.7, 0.30),
    ("asia", 34.0, 108.0, 0.32),
    ("south-america", -14.2, -51.9, 0.04),
    ("africa", 1.3, 17.3, 0.02),
    ("oceania", -25.3, 133.8, 0.02),
]


class GeoModel:
    """Draws geographically plausible locations for simulated entities."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._names = [r[0] for r in REGIONS]
        self._centers = {r[0]: GeoPoint(r[1], r[2]) for r in REGIONS}
        self._weights = [r[3] for r in REGIONS]

    def pick_region(self) -> str:
        """Sample a region by population weight."""
        return self._rng.choices(self._names, weights=self._weights, k=1)[0]

    def point_in_region(self, region: str, spread_deg: float = 18.0) -> GeoPoint:
        """A jittered point around a region's center."""
        center = self._centers[region]
        lat = max(-85.0, min(85.0, center.lat
                             + self._rng.gauss(0.0, spread_deg / 2)))
        lon = center.lon + self._rng.gauss(0.0, spread_deg)
        if lon > 180.0:
            lon -= 360.0
        elif lon < -180.0:
            lon += 360.0
        return GeoPoint(lat, lon)

    def random_point(self) -> tuple[str, GeoPoint]:
        """Sample (region, point) by population weight."""
        region = self.pick_region()
        return region, self.point_in_region(region)
