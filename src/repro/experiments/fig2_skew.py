"""Figure 2: query share by zones, ASNs, and resolver IPs.

Paper: the top 3% of resolver IPs drive 80% of queries; the top 1% of
ASNs 83%; the top 1% of ADHS zones receive 88% with one zone at 5.5%.
Also checks the section-2 companion statistics: top-resolver list
stability across weeks and the 92% NA/EU/Asia geographic mix.
"""

from __future__ import annotations

import random

import numpy as np

from ..analysis.report import ExperimentResult
from ..workload.geolocation import (
    GeolocationService,
    major_region_share,
    regional_query_shares,
)
from ..workload.population import (
    ResolverPopulation,
    ZonePopularity,
    overlap_fraction,
)


def run(seed: int = 42, n_resolvers: int = 20_000,
        n_weeks_stability: int = 4) -> ExperimentResult:
    """Regenerate the three skew CDFs and the stability/geo statistics."""
    rng = random.Random(seed)
    population = ResolverPopulation(rng, n_resolvers)
    zones = ZonePopularity(rng)

    result = ExperimentResult(
        "fig2", "Percent of queries for/from zones, ASNs, and IPs")

    # The three CDF lines (share of queries vs fraction of entities,
    # entities ordered by query volume descending).
    for label, values in (
        ("ips", sorted(population.rates(), reverse=True)),
        ("zones", sorted(zones.weights, reverse=True)),
    ):
        arr = np.asarray(values)
        fractions = np.arange(1, len(arr) + 1) / len(arr)
        shares = np.cumsum(arr) / arr.sum()
        result.series[label] = (fractions, shares)
    by_asn: dict[int, float] = {}
    for resolver in population.resolvers:
        by_asn[resolver.asn] = by_asn.get(resolver.asn, 0.0) \
            + resolver.base_rate
    asn_rates = sorted(by_asn.values(), reverse=True)
    arr = np.asarray(asn_rates)
    result.series["asns"] = (np.arange(1, len(arr) + 1) / len(arr),
                             np.cumsum(arr) / arr.sum())

    ip_share = population.top_share(0.03)
    asn_share = population.asn_share(0.01)
    zone_share = zones.top_share(0.01)
    top_zone = zones.top_zone_share
    result.metrics.update({
        "top3pct_ip_share": ip_share,
        "top1pct_asn_share": asn_share,
        "top1pct_zone_share": zone_share,
        "top_zone_share": top_zone,
    })
    result.compare("top 3% of IPs drive ~80% of queries", "80%",
                   f"{ip_share:.1%}", 0.70 <= ip_share <= 0.90)
    result.compare("top 1% of ASNs drive ~83% of queries", "83%",
                   f"{asn_share:.1%}", 0.73 <= asn_share <= 0.93)
    result.compare("top 1% of zones receive ~88% of queries", "88%",
                   f"{zone_share:.1%}", 0.80 <= zone_share <= 0.95)
    result.compare("hottest zone receives ~5.5%", "5.5%",
                   f"{top_zone:.2%}", 0.03 <= top_zone <= 0.09)

    # Week-over-week stability of the top-3% resolver list.
    overlaps = []
    previous = [r.address for r in population.top_resolvers(0.03)]
    for _ in range(n_weeks_stability):
        population.advance_week()
        current = [r.address for r in population.top_resolvers(0.03)]
        overlaps.append(overlap_fraction(previous, current))
        previous = current
    mean_overlap = float(np.mean(overlaps))
    result.metrics["weekly_top_list_overlap"] = mean_overlap
    result.compare("top-3% list week-over-week overlap 85-98%",
                   "85-98% (mean 92%)", f"{mean_overlap:.1%}",
                   0.82 <= mean_overlap <= 0.99)

    # Geographic mix.
    geo = GeolocationService(random.Random(seed + 1))
    rates = {}
    for resolver in population.resolvers:
        geo.register(resolver.address)
        rates[resolver.address] = resolver.base_rate
    shares = regional_query_shares(geo, rates)
    major = major_region_share(shares)
    result.metrics["major_region_share"] = major
    result.compare("NA+EU+Asia share ~92%", "92%", f"{major:.1%}",
                   0.85 <= major <= 0.98)
    return result
