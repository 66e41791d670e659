"""Tracer: span parenting, deterministic head sampling, span budget."""

import pytest

from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.trace import Tracer


def _tracer(rate=1.0, **kwargs):
    return Tracer(sample_rate=rate, seed=7, **kwargs)


class TestParenting:
    def test_root_and_children(self):
        t = _tracer()
        root = t.start_trace("resolver.resolve", "resolver", 1.0)
        assert root.parent_id is None
        a = t.start_span(root, "resolver.attempt", "resolver", 1.1)
        b = t.start_span(root, "resolver.attempt", "resolver", 1.4)
        leaf = t.start_span(a, "machine.process", "machine", 1.2)
        for span, end in ((leaf, 1.3), (a, 1.35), (b, 1.6), (root, 1.7)):
            t.finish(span, end)
        assert a.parent_id == b.parent_id == root.span_id
        assert leaf.parent_id == a.span_id
        assert all(s.trace_id == root.trace_id
                   for s in (a, b, leaf))

    def test_duration(self):
        t = _tracer()
        span = t.start_trace("q", "machine", 2.0)
        assert span.duration == 0.0
        t.finish(span, 2.5)
        assert span.duration == 0.5


class TestSampling:
    def test_rate_zero_records_nothing(self):
        t = _tracer(rate=0.0)
        assert t.start_trace("q", "machine", 0.0) is None
        assert t.roots_started == 1
        assert t.roots_sampled == 0

    def test_rate_one_keeps_everything(self):
        t = _tracer(rate=1.0)
        for i in range(50):
            assert t.start_trace("q", "machine", float(i)) is not None
        assert t.roots_sampled == 50

    def test_sampling_deterministic_per_seed(self):
        def sampled_set(seed):
            t = Tracer(sample_rate=0.3, seed=seed)
            return [t.start_trace("q", "m", float(i)) is not None
                    for i in range(200)]

        assert sampled_set(7) == sampled_set(7)
        assert sampled_set(7) != sampled_set(8)
        kept = sum(sampled_set(7))
        assert 30 <= kept <= 90  # ~30% of 200

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="trace_sample_rate"):
            Telemetry(TelemetryConfig(trace_sample_rate=1.5))


class TestBudget:
    def test_overflow_counted_not_kept(self):
        t = _tracer(max_spans=3)
        for i in range(5):
            span = t.start_trace("q", "m", float(i))
            t.finish(span, float(i) + 0.1)
        assert len(t.spans) == 3
        assert t.dropped_spans == 2

    def test_instant_overflow(self):
        t = _tracer(max_spans=2)
        for i in range(4):
            t.instant(1, "net.delivered", "net", float(i))
        assert len(t.events) == 2
        assert t.dropped_spans == 2

    def test_budget_is_per_span_so_a_child_outlives_its_root(self):
        """Children finish before their root: the trace that crosses the
        budget keeps the child that fit and loses the root."""
        t = _tracer(max_spans=2)
        first = t.start_trace("q", "m", 0.0)
        t.finish(first, 0.1)
        root = t.start_trace("resolver.resolve", "resolver", 1.0)
        child = t.start_span(root, "resolver.attempt", "resolver", 1.1)
        t.finish(child, 1.2)
        t.finish(root, 1.3)
        assert t.spans == [first, child]
        assert t.dropped_spans == 1


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("trace_sample_rate", -0.01),
        ("trace_sample_rate", 1.01),
        ("trace_sample_rate", float("nan")),
        ("max_spans", -1),
    ])
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TelemetryConfig(**{field: value})

    def test_bounds_are_accepted(self):
        TelemetryConfig(trace_sample_rate=0.0, max_spans=0)
        TelemetryConfig(trace_sample_rate=1.0)
