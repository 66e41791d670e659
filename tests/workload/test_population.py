"""Tests for workload populations, arrivals, attacks, geolocation."""

import random

import numpy as np
import pytest

from repro.workload import (
    arrivals,
    DiurnalModel,
    GeolocationService,
    ResolverPopulation,
    SECONDS_PER_WEEK,
    ZonePopularity,
    bursty_counts,
    major_region_share,
    overlap_fraction,
    regional_query_shares,
    share_of_top,
)
from repro.netsim.geo import REGIONS
from repro.workload.geolocation import MAJOR_REGIONS


@pytest.fixture(scope="module")
def population():
    return ResolverPopulation(random.Random(7), 8_000)


class TestResolverPopulation:
    def test_total_rate_calibrated(self, population):
        # Mega-resolver boost inflates the configured total somewhat.
        total = population.total_qps()
        assert 4e6 < total < 9e6

    def test_heavy_skew(self, population):
        assert population.top_share(0.03) > 0.6
        assert population.top_share(0.50) > 0.97

    def test_asn_concentration(self, population):
        assert population.asn_share(0.01) > 0.6

    def test_top_resolvers_sorted(self, population):
        top = population.top_resolvers(0.01)
        rates = [r.base_rate for r in top]
        assert rates == sorted(rates, reverse=True)

    def test_addresses_unique(self, population):
        addresses = [r.address for r in population.resolvers]
        assert len(set(addresses)) == len(addresses)

    def test_weekly_evolution_preserves_size(self):
        pop = ResolverPopulation(random.Random(1), 2_000)
        before = len(pop.resolvers)
        pop.advance_week()
        assert len(pop.resolvers) == before

    def test_weekly_overlap_high(self):
        pop = ResolverPopulation(random.Random(1), 5_000)
        top_before = [r.address for r in pop.top_resolvers(0.03)]
        pop.advance_week()
        top_after = [r.address for r in pop.top_resolvers(0.03)]
        assert overlap_fraction(top_before, top_after) > 0.8


class TestZonePopularity:
    def test_weights_normalized(self):
        zones = ZonePopularity(random.Random(2))
        assert sum(zones.weights) == pytest.approx(1.0)

    def test_skew_targets(self):
        zones = ZonePopularity(random.Random(2))
        assert 0.8 < zones.top_share(0.01) < 0.95
        assert 0.03 < zones.top_zone_share < 0.09

    def test_sampling_respects_weights(self):
        zones = ZonePopularity(random.Random(2), n_zones=500)
        samples = [zones.sample() for _ in range(5_000)]
        # The head zones dominate samples.
        head_hits = sum(1 for s in samples if s < 5)
        assert head_hits > 2_000


class TestShareHelpers:
    def test_share_of_top(self):
        assert share_of_top([1, 1, 1, 97], 0.25) == pytest.approx(0.97)

    def test_share_empty(self):
        assert share_of_top([], 0.5) == 0.0

    def test_overlap(self):
        assert overlap_fraction(["a", "b"], ["b", "c"]) == 0.5
        assert overlap_fraction([], ["x"]) == 0.0


class TestDiurnal:
    def test_range(self):
        model = DiurnalModel()
        rates = [model.rate(t) for t in range(0, int(SECONDS_PER_WEEK),
                                              3600)]
        assert min(rates) >= (arrivals.TROUGH_QPS * arrivals.WEEKEND_DIP
                              * 0.99)
        assert max(rates) <= arrivals.PEAK_QPS * 1.01

    def test_weekend_dip(self):
        model = DiurnalModel()
        saturday_noon = 6 * 86400 + 15 * 3600
        wednesday_noon = 3 * 86400 + 15 * 3600
        assert model.rate(saturday_noon) < model.rate(wednesday_noon)

    def test_series_shape(self):
        times, rates = DiurnalModel().series(step_seconds=3600.0)
        assert len(times) == len(rates) == 168


class TestArrivalProcesses:
    def test_bursty_preserves_mean(self):
        rng = np.random.default_rng(5)
        counts = bursty_counts(rng, 10.0, burstiness=8.0, seconds=50_000)
        assert counts.mean() == pytest.approx(10.0, rel=0.25)

    def test_bursty_peaks_exceed_poisson(self):
        rng = np.random.default_rng(5)
        calm = rng.poisson(10.0, size=20_000)
        bursty = bursty_counts(rng, 10.0, burstiness=8.0, seconds=20_000)
        assert bursty.max() > calm.max() * 2

    def test_burstiness_below_one_rejected(self):
        with pytest.raises(ValueError):
            bursty_counts(np.random.default_rng(0), 1.0, 0.5, 100)


class TestGeolocation:
    def test_register_and_lookup(self):
        geo = GeolocationService(random.Random(6))
        record = geo.register("1.2.3.4")
        assert geo.lookup("1.2.3.4") == record
        assert geo.lookup("none") is None

    def test_major_share_near_model(self):
        geo = GeolocationService(random.Random(6))
        rates = {}
        for i in range(5_000):
            addr = f"10.0.{i >> 8}.{i & 255}"
            geo.register(addr)
            rates[addr] = 1.0
        shares = regional_query_shares(geo, rates)
        modelled = sum(weight for region, _, _, weight in REGIONS
                       if region in MAJOR_REGIONS)
        assert major_region_share(shares) == pytest.approx(modelled,
                                                           abs=0.05)

    def test_shares_sum_to_one(self):
        geo = GeolocationService(random.Random(6))
        rates = {}
        for i in range(100):
            addr = f"10.9.0.{i}"
            geo.register(addr)
            rates[addr] = float(i + 1)
        shares = regional_query_shares(geo, rates)
        assert sum(shares.values()) == pytest.approx(1.0)
