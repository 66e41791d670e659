"""Smoke tests for every experiment module at reduced scale.

Each test checks that the experiment runs, produces its series, and that
its headline shape checks hold (where they are statistically robust at
small scale). The benchmarks run the full-scale versions.
"""

import pytest

from repro.experiments import (
    fig1_qps,
    fig2_skew,
    fig3_per_resolver,
    fig4_stability,
    fig8_failover,
    fig9_decision_tree,
    fig10_nxdomain,
    fig11_speedup,
    fig12_restime,
    text_stats,
)
from repro.netsim.builder import InternetParams


class TestFig1:
    def test_shape_checks(self):
        result = fig1_qps.run()
        assert result.all_hold
        times, rates = result.series["qps"]
        assert len(times) == len(rates) > 100

    def test_deterministic(self):
        a = fig1_qps.run(seed=9)
        b = fig1_qps.run(seed=9)
        assert a.metrics == b.metrics


class TestFig2:
    def test_shape_checks(self):
        result = fig2_skew.run(n_resolvers=8_000)
        assert result.all_hold
        for label in ("ips", "asns", "zones"):
            fractions, shares = result.series[label]
            assert shares[-1] == pytest.approx(1.0)


class TestFig3:
    def test_runs_small(self):
        result = fig3_per_resolver.run(n_resolvers=4_000)
        assert "avg" in result.series and "max" in result.series
        assert result.all_hold, result.comparisons


class TestFig4:
    def test_runs_small(self):
        result = fig4_stability.run(n_resolvers=4_000)
        assert 0.3 <= result.metrics["weighted_within_10pct"] <= 0.9


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8_failover.run(fig8_failover.Fig8Params(
            n_pops=8, n_vantage=10, trials=2,
            internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
            measure_window=20.0, converge_time=20.0))

    def test_produces_four_series(self, result):
        assert len(result.series) == 4

    def test_advertise_mostly_fast(self, result):
        assert result.metrics["advertise2_under_1s"] >= 0.3

    def test_samples_collected(self, result):
        times, cdf = result.series["advertise 2 PoPs"]
        assert len(times) >= 5


class TestFig9:
    def test_all_hold(self):
        result = fig9_decision_tree.run()
        assert result.all_hold
        assert result.metrics["tree_rows_matching"] == 8


class TestFig10:
    def test_three_regions(self):
        params = fig10_nxdomain.Fig10Params(
            attack_rates=(0.0, 500.0, 1_500.0, 3_400.0, 6_000.0),
            measure_seconds=6.0, warmup_seconds=3.0)
        result = fig10_nxdomain.run(params)
        with_filter = result.series["w/ filter"][1]
        without = result.series["w/o filter"][1]
        # Region 1: both fine; region 2: filter wins decisively.
        assert with_filter[0] > 0.95 and without[0] > 0.95
        assert with_filter[2] > without[2] + 0.2


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_speedup.run(fig11_speedup.Fig11Params(
            n_probes=60, n_edges=50, n_resolvers=2_000,
            internet=InternetParams(n_tier1=4, n_tier2=14, n_stub=60)))

    def test_four_series(self, result):
        assert len(result.series) == 4

    def test_queries_dominate_resolvers(self, result):
        assert result.metrics["queries_speedup_avg"] >= \
            result.metrics["resolvers_speedup_avg"]

    def test_rt_weighting(self, result):
        assert result.metrics["weighted_mean_rt"] < \
            result.metrics["mean_rt"]


class TestFig12:
    def test_orderings(self):
        result = fig12_restime.run(fig11_speedup.Fig11Params(
            n_probes=60, n_edges=50, n_resolvers=2_000,
            internet=InternetParams(n_tier1=4, n_tier2=14, n_stub=60)))
        assert result.metrics["twotier_mean_ms_avg"] < \
            result.metrics["toplevel_mean_ms_avg"]
        assert result.metrics["twotier_mean_ms_wgt"] < \
            result.metrics["toplevel_mean_ms_wgt"]


class TestTextStats:
    @pytest.fixture(scope="class")
    def result(self):
        return text_stats.run()

    def test_nxdomain_share(self, result):
        assert 0.001 <= result.metrics["nxdomain_share_legit"] <= 0.02

    def test_ttl_consistency(self, result):
        assert result.metrics["ttl_any_variation"] < 0.2

    def test_rt_monotone(self, result):
        assert result.metrics["rt_busy"] < result.metrics["rt_medium"] \
            < result.metrics["rt_idle"]


class TestTaxonomy:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import taxonomy
        return taxonomy.run(phase_seconds=3.0)

    def test_all_five_classes_run(self, result):
        labels, goodputs = result.series["goodput"]
        assert len(labels) == 5

    def test_goodput_protected(self, result):
        _, goodputs = result.series["goodput"]
        assert all(g >= 0.85 for g in goodputs)

    def test_expected_filters_engage(self, result):
        engaged = [c for c in result.comparisons
                   if "filter engages" in c.metric]
        assert len(engaged) == 5
        assert all(c.holds for c in engaged)


class TestAnycastQuality:
    def test_shape_checks(self):
        from repro.experiments import anycast_quality
        result = anycast_quality.run()
        assert result.all_hold
        assert 0.0 < result.metrics["nearest_pop_fraction"] < 1.0
        assert result.metrics["median_rtt_inflation"] >= 1.0


class TestEndUserLatency:
    def test_shape_checks(self):
        from repro.experiments import enduser_latency
        result = enduser_latency.run(enduser_latency.EndUserParams(
            clients_per_resolver=2, lookups_per_client=30))
        assert result.metrics["cache_hit_ratio"] >= 0.4
        assert result.metrics["median_hit_ms"] < \
            result.metrics["median_miss_ms"]
