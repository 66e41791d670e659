"""Metrics registry: counters, gauges, histogram quantile round-trip."""

import math

import pytest

from repro.telemetry.registry import (
    _BUCKET_BASE,
    Histogram,
    MetricsRegistry,
)

#: Quantile readout is the geometric midpoint of the covering bucket,
#: so the relative error is bounded by sqrt(base).
_REL_ERROR = math.sqrt(_BUCKET_BASE)


class TestCounterGauge:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.family("queries_total", "counter").labels()
        c.inc()
        c.inc(3.0)
        assert reg.snapshot()["counters"]["queries_total"] == 4.0

    def test_gauge_tracks_extremes(self):
        reg = MetricsRegistry()
        g = reg.family("depth", "gauge").labels()
        for v in (3.0, 9.0, 1.0):
            g.set(v)
        snap = reg.snapshot()["gauges"]["depth"]
        assert snap == {"value": 1.0, "max": 9.0, "min": 1.0}

    def test_labeled_series_sorted(self):
        reg = MetricsRegistry()
        fam = reg.family("rcodes", "counter", ("machine", "rcode"))
        fam.labels("m2", "NOERROR").inc()
        fam.labels("m1", "SERVFAIL").inc()
        fam.labels("m1", "NOERROR").inc()
        assert [key for key, _ in fam.items()] == [
            ("m1", "NOERROR"), ("m1", "SERVFAIL"), ("m2", "NOERROR")]
        keys = list(reg.snapshot()["counters"])
        assert keys == sorted(keys)
        assert "rcodes{machine=m1,rcode=NOERROR}" in keys

    def test_label_arity_enforced(self):
        reg = MetricsRegistry()
        fam = reg.family("c", "counter", ("a",))
        with pytest.raises(ValueError):
            fam.labels("x", "y")

    def test_schema_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.family("m", "counter", ("a",))
        with pytest.raises(ValueError):
            reg.family("m", "gauge", ("a",))
        with pytest.raises(ValueError):
            reg.family("m", "counter", ("b",))
        # Same schema re-registration returns the same family.
        assert reg.family("m", "counter", ("a",)) is \
            reg.family("m", "counter", ("a",))


class TestHistogram:
    def test_quantile_round_trip(self):
        """Every recorded value reads back within the bucket error bound."""
        h = Histogram()
        values = [0.0001 * (1.17 ** i) for i in range(80)]  # 100µs..~30s
        for v in values:
            h.record(v)
        values.sort()
        for q in (0.10, 0.25, 0.50, 0.75, 0.90, 0.99):
            exact = values[min(len(values) - 1,
                               int(q * len(values)))]
            approx = h.quantile(q)
            assert approx / exact < _REL_ERROR * 1.2
            assert exact / approx < _REL_ERROR * 1.2

    def test_extremes_exact(self):
        h = Histogram()
        for v in (2.0, 3.0, 5.0):
            h.record(v)
        assert h.quantile(0.0) == 2.0
        assert h.quantile(1.0) == 5.0

    def test_zero_and_negative_values_counted(self):
        h = Histogram()
        h.record(0.0)
        h.record(1.0)
        assert h.count == 2
        assert h.zeros == 1
        assert h.quantile(0.25) == 0.0

    def test_empty_histogram(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        assert h.snapshot() == {"count": 0, "sum": 0.0}

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        h = reg.family("latency", "histogram").labels()
        for v in (0.01, 0.02, 0.04, 0.08):
            h.record(v)
        snap = reg.snapshot()["histograms"]["latency"]
        assert snap["count"] == 4
        assert snap["min"] == 0.01 and snap["max"] == 0.08
        assert snap["p50"] <= snap["p90"] <= snap["p99"]
        assert list(snap["buckets"]) == sorted(snap["buckets"],
                                               key=int)
