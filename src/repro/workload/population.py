"""Resolver, ASN, and zone populations with the paper's skew.

Paper section 2 reports heavily skewed distributions at three
granularities: 3% of resolver IPs send 80% of queries, 1% of ASNs send
83%, and the top 1% of ADHS zones receive 88% (one zone alone 5.5%).
Lognormal rate distributions reproduce these shares: for a lognormal
with shape sigma, the share of total mass held by the top fraction q is
Phi(sigma - Phi^-1(1-q)), giving sigma ~= 2.72 for the resolver target
and sigma ~= 3.5 for zones. Week-over-week stability (85-98% overlap of
the top-3% list; 53% of query-weighted resolvers within +-10%) is
modelled with persistent per-resolver base rates plus small
multiplicative drift and a slow churn process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Calibrated lognormal shapes (see module docstring).
RESOLVER_SIGMA = 2.72
ZONE_SIGMA = 3.5
ASN_SIGMA = 2.2
N_ASNS = 600
TOTAL_QPS = 4_750_000.0   # paper: 3.9M-5.6M qps, mid-range
WEEKLY_DRIFT_SIGMA = 0.132  # ~53% of weight within +-10%
WEEKLY_CHURN = 0.04         # fraction of resolvers replaced/week
#: Fraction of top resolvers concentrated in the 6 largest ASNs — the
#: paper's top ASNs are 3 public DNS services, 2 major ISPs, and Akamai
#: itself, and they host the busiest resolvers.
HEAVY_HITTER_FRACTION = 0.045
MAJOR_ASN_COUNT = 6
#: The very largest resolvers are public-DNS-service frontends whose
#: rates sit far above even the lognormal tail; boost the top few.
MEGA_RESOLVER_COUNT = 5
MEGA_RESOLVER_BOOST = 4.0


@dataclass(slots=True)
class Resolver:
    """One simulated resolver IP and its long-run behaviour."""

    address: str
    asn: int
    base_rate: float          # long-run average queries/sec to the platform
    burstiness: float = 4.0   # peak-to-mean ratio of its arrival process
    ip_ttl: int = 58          # typical observed IP TTL at the platform


class ResolverPopulation:
    """A persistent population of resolvers with stable heavy hitters."""

    def __init__(self, rng: random.Random, n_resolvers: int) -> None:
        self.rng = rng
        # ASN sizes: heavy-tailed so few ASNs host the busiest resolvers.
        self._asn_weights = [rng.lognormvariate(0.0, ASN_SIGMA)
                             for _ in range(N_ASNS)]
        total_asn = sum(self._asn_weights)
        self._asn_cdf: list[float] = []
        acc = 0.0
        for w in self._asn_weights:
            acc += w / total_asn
            self._asn_cdf.append(acc)
        raw = [rng.lognormvariate(0.0, RESOLVER_SIGMA)
               for _ in range(n_resolvers)]
        scale = TOTAL_QPS / sum(raw)
        self.resolvers: list[Resolver] = []
        for i, rate in enumerate(raw):
            self.resolvers.append(Resolver(
                address=f"10.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}",
                asn=self._draw_asn(),
                base_rate=rate * scale,
                burstiness=1.5 + rng.random() * 15.0,
                ip_ttl=rng.choice([64, 64, 64, 128, 255]) - rng.randint(5, 25),
            ))
        # Concentrate the heavy hitters in the few major ASNs (public DNS
        # services and the largest ISPs).
        major_asns = sorted(range(len(self._asn_weights)),
                            key=lambda a: -self._asn_weights[a]
                            )[:MAJOR_ASN_COUNT]
        major_weights = [self._asn_weights[a] for a in major_asns]
        for resolver in self.top_resolvers(HEAVY_HITTER_FRACTION):
            resolver.asn = rng.choices(major_asns, weights=major_weights,
                                       k=1)[0]
        ranked = sorted(self.resolvers, key=lambda r: -r.base_rate)
        for resolver in ranked[:MEGA_RESOLVER_COUNT]:
            resolver.base_rate *= MEGA_RESOLVER_BOOST
            resolver.burstiness = max(resolver.burstiness, 10.0)

    def _draw_asn(self) -> int:
        """Organic assignment: mildly weighted so every ASN stays present.

        The heavy concentration into major ASNs happens separately for
        the heavy hitters; organic members spread broadly, matching the
        long tail of eyeball networks each hosting a few resolvers.
        """
        if self.rng.random() < 0.5:
            return self.rng.randrange(len(self._asn_cdf))
        u = self.rng.random()
        lo, hi = 0, len(self._asn_cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._asn_cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- aggregate views -----------------------------------------------------

    def rates(self) -> list[float]:
        return [r.base_rate for r in self.resolvers]

    def total_qps(self) -> float:
        return sum(r.base_rate for r in self.resolvers)

    def top_share(self, fraction: float) -> float:
        """Share of queries sent by the top ``fraction`` of resolvers."""
        return share_of_top(self.rates(), fraction)

    def asn_share(self, fraction: float) -> float:
        """Share of queries from the top ``fraction`` of ASNs."""
        by_asn: dict[int, float] = {}
        for r in self.resolvers:
            by_asn[r.asn] = by_asn.get(r.asn, 0.0) + r.base_rate
        return share_of_top(list(by_asn.values()), fraction)

    def top_resolvers(self, fraction: float = 0.03) -> list[Resolver]:
        """The heavy hitters, e.g. for allowlist construction."""
        count = max(1, int(len(self.resolvers) * fraction))
        return sorted(self.resolvers, key=lambda r: -r.base_rate)[:count]

    # -- temporal evolution -----------------------------------------------------

    def advance_week(self) -> None:
        """One week of drift and churn, preserving the heavy-hitter core.

        Base rates drift multiplicatively (lognormal, small sigma) and a
        small random fraction of resolvers is replaced by fresh ones,
        reproducing the paper's 85-98% week-over-week overlap of the
        top-3% list and the +-10% mass concentration of Figure 4.
        """
        for resolver in self.resolvers:
            drift = self.rng.lognormvariate(0.0, WEEKLY_DRIFT_SIGMA)
            resolver.base_rate *= drift
        n_churn = int(len(self.resolvers) * WEEKLY_CHURN)
        indices = self.rng.sample(range(len(self.resolvers)), n_churn)
        raw_scale = self.total_qps() / max(1, len(self.resolvers))
        for i in indices:
            old = self.resolvers[i]
            self.resolvers[i] = Resolver(
                address=old.address + "x",  # a brand-new source
                asn=self._draw_asn(),
                base_rate=self.rng.lognormvariate(0.0, RESOLVER_SIGMA)
                * raw_scale / math.exp(RESOLVER_SIGMA ** 2 / 2),
                burstiness=1.5 + self.rng.random() * 15.0,
                ip_ttl=old.ip_ttl,
            )


class ZonePopularity:
    """ADHS zone demand with the paper's skew.

    Two-part model: the top 1% of zones is a flat-ish Zipf head (exponent
    ~0.12) holding 88% of queries with the single hottest zone at ~5.5%;
    the remaining 99% ("many infrequently-accessed zones") is a lognormal
    tail sharing the last 12%.
    """

    HEAD_SHARE = 0.88
    HEAD_ZIPF_EXPONENT = 0.12

    def __init__(self, rng: random.Random, n_zones: int = 2_000) -> None:
        head_count = max(1, round(n_zones * 0.01))
        head_raw = [1.0 / (r ** self.HEAD_ZIPF_EXPONENT)
                    for r in range(1, head_count + 1)]
        head_total = sum(head_raw)
        head = [self.HEAD_SHARE * w / head_total for w in head_raw]
        tail_raw = [rng.lognormvariate(0.0, ZONE_SIGMA)
                    for _ in range(n_zones - head_count)]
        tail_total = sum(tail_raw) or 1.0
        tail = [(1.0 - self.HEAD_SHARE) * w / tail_total for w in tail_raw]
        #: zone index -> probability a query targets it, descending.
        self.weights = sorted(head + tail, reverse=True)
        self._cdf: list[float] = []
        acc = 0.0
        for w in self.weights:
            acc += w
            self._cdf.append(acc)
        self.rng = rng

    def top_share(self, fraction: float) -> float:
        count = max(1, int(len(self.weights) * fraction))
        return sum(self.weights[:count])

    @property
    def top_zone_share(self) -> float:
        return self.weights[0]

    def sample(self) -> int:
        """Draw a zone index by popularity."""
        u = self.rng.random()
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


def share_of_top(values: list[float], fraction: float) -> float:
    """Mass share held by the largest ``fraction`` of ``values``."""
    if not values:
        return 0.0
    count = max(1, int(len(values) * fraction))
    ordered = sorted(values, reverse=True)
    total = sum(ordered)
    return sum(ordered[:count]) / total if total else 0.0


def overlap_fraction(week_a: list[str], week_b: list[str]) -> float:
    """Fraction of week A's top list still present in week B's."""
    if not week_a:
        return 0.0
    set_b = set(week_b)
    return sum(1 for a in week_a if a in set_b) / len(week_a)
