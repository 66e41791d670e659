"""The metrics registry: counters, gauges, log-bucketed histograms.

Instruments are grouped into *families* (one name, one kind, a fixed
label schema), declared once in :data:`METRICS`; a family hands out one
instrument per label-value tuple. Iteration and export are always sorted — by family name, then by label
tuple — per the DET005 determinism contract: no snapshot may depend on
dict insertion or hash order.

Histograms use geometric (log) buckets so one instrument covers
microseconds to minutes with bounded memory; quantiles are read back as
the geometric midpoint of the covering bucket, giving a bounded
relative error of ``sqrt(base)`` (see ``Histogram.quantile``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Every metric family of a session, and every signal instrumented code
#: emits: name -> (kind, label names). The comment above a row says
#: what it counts; a site reaches a row with :func:`.state.record`, and
#: a detector subscribes to one with :meth:`.alerts.AlertManager.add`.
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    # queries arriving at nameserver machines
    "queries_received_total": ("counter", ("machine",)),
    # responses assembled, by final rcode
    "queries_answered_total": ("counter", ("machine", "rcode")),
    # queries shed before service: gray, not_running, firewall, io, queue
    "queries_dropped_total": ("counter", ("machine", "reason")),
    # queries placed into penalty queues
    "penalty_enqueued_total": ("counter", ("owner", "queue")),
    # total queued queries per machine
    "penalty_queue_depth": ("gauge", ("owner",)),
    # nonzero penalties contributed per filter
    "filter_penalties_total": ("counter", ("filter",)),
    # distribution of total penalty scores
    "filter_penalty_score": ("histogram", ()),
    # query-of-death firewall activity: crash_recorded, dropped
    "qod_events_total": ("counter", ("event",)),
    # monitoring-agent cycles by outcome
    "agent_checks_total": ("counter", ("machine", "outcome")),
    # suspended, resumed, denied, crashed, degraded, restored
    "machine_lifecycle_total": ("counter", ("machine", "event")),
    # recursive resolutions finished, by rcode
    "resolutions_total": ("counter", ("rcode",)),
    # end-to-end resolution latency
    "resolution_seconds": ("histogram", ()),
    # per-attempt timeouts during resolution
    "resolution_timeouts_total": ("counter", ()),
    # SLO probe resolutions, graded
    "probe_outcomes_total": ("counter", ("outcome",)),
    # SLO probe answer latency
    "probe_seconds": ("histogram", ()),
    # per-zone responses, by rcode (feeds enterprise reports)
    "zone_responses_total": ("counter", ("machine", "zone", "rcode")),
    # positive staleness checks (inputs older than threshold)
    "machine_stale_total": ("counter", ("machine",)),
    # zone installs/rejects/rollbacks at machines
    "zone_updates_total": ("counter", ("machine", "action")),
    # safe-rollout release phase transitions
    "rollout_events_total": ("counter", ("origin", "phase")),
    # defense-ladder rung transitions: engage, disengage, revert
    "defense_transitions_total": ("counter", ("controller", "rung", "action")),
    # the ladder's escalation level after each move (0 once unwound)
    "defense_ladder_rung": ("gauge", ("controller",)),
    # RRSIGs produced by the zone-signing pipeline: created, reused
    "dnssec_signatures_total": ("counter", ("origin", "disposition")),
    # validations at resolvers and probe clients (no qname: unbounded)
    "dnssec_validations_total": ("counter", ("outcome",)),
    # key-rollover state machine events
    "dnssec_rollover_steps_total": ("counter", ("origin", "kind", "step")),
    # gray-failure verdict transitions (control.grayfail)
    "gray_verdicts_total": ("counter", ("machine", "verdict")),
    # verdict level: 0 healthy, 1 suspect, 2 convicted, 3 probation
    "gray_verdict_state": ("gauge", ("machine",)),
    # first differential evidence to conviction
    "gray_detection_seconds": ("histogram", ()),
}

#: Geometric bucket growth factor: 4 buckets per decade.
_BUCKET_BASE = 10.0 ** 0.25
_LOG_BASE = math.log(_BUCKET_BASE)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value, tracked with its observed extremes."""

    __slots__ = ("value", "max_value", "min_value")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = float("-inf")
        self.min_value = float("inf")

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value


class Histogram:
    """Log-bucketed distribution with p50/p99/max readout.

    Values ``<= 0`` land in a dedicated underflow bucket (index None in
    spirit; stored as the minimum int key) so latencies of exactly zero
    — possible in a discrete-event world — are still counted.
    """

    __slots__ = ("buckets", "count", "sum", "max", "min", "zeros")

    def __init__(self) -> None:
        #: bucket index -> count; value v lands in floor(log(v)/log(base)).
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.max = float("-inf")
        self.min = float("inf")
        self.zeros = 0

    def record(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = math.floor(math.log(value) / _LOG_BASE)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @staticmethod
    def bucket_bounds(index: int) -> tuple[float, float]:
        """(low, high) value bounds of bucket ``index``."""
        return (_BUCKET_BASE ** index, _BUCKET_BASE ** (index + 1))

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0 <= q <= 1).

        Returns the geometric midpoint of the bucket containing the
        quantile rank, so the relative error is bounded by
        ``sqrt(_BUCKET_BASE)`` (~1.33x at 4 buckets/decade). The exact
        observed extremes clamp the ends.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        seen = self.zeros
        if self.zeros and rank <= seen:
            return max(self.min, 0.0) if self.min <= 0.0 else 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank <= seen:
                low, high = self.bucket_bounds(index)
                mid = math.sqrt(low * high)
                return min(max(mid, self.min), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float | int | dict[str, int]]:
        """Export view: count/sum/extremes/quantiles plus raw buckets."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {str(k): self.buckets[k]
                        for k in sorted(self.buckets)},
        }


@dataclass(slots=True)
class MetricFamily:
    """One named metric with a fixed label schema.

    ``labels(...)`` returns the instrument for a tuple of label texts,
    creating it on first use. Instruments are plain objects with no
    back-pointer, so the hot path can cache them.
    """

    name: str
    kind: str                       # "counter" | "gauge" | "histogram"
    labelnames: tuple[str, ...] = ()
    series: dict[tuple[str, ...], object] = field(default_factory=dict)

    _CTORS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def labels(self, *labelvalues: str):
        instrument = self.series.get(labelvalues)
        if instrument is None:
            if len(labelvalues) != len(self.labelnames):
                raise ValueError(
                    f"{self.name}: expected labels {self.labelnames}, "
                    f"got {labelvalues!r}")
            instrument = self.series[labelvalues] = self._CTORS[self.kind]()
        return instrument

    def items(self):
        """(label tuple, instrument) pairs in sorted label order."""
        return [(key, self.series[key]) for key in sorted(self.series)]


def _series_key(name: str, labelnames: tuple[str, ...],
                labelvalues: tuple[str, ...]) -> str:
    if not labelnames:
        return name
    inner = ",".join(f"{n}={v}" for n, v in zip(labelnames, labelvalues))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """All metric families of one telemetry session."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def family(self, name: str, kind: str,
               labelnames: tuple[str, ...] = ()) -> MetricFamily:
        """The ``kind`` family ``name``, registered on first use."""
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, tuple(labelnames))
            self._families[name] = family
            return family
        if family.kind != kind or family.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} re-registered with a different "
                f"kind/label schema")
        return family

    def snapshot(self) -> dict[str, dict]:
        """The full registry as a sorted, JSON-ready mapping."""
        out: dict[str, dict] = {"counters": {}, "gauges": {},
                                "histograms": {}}
        for name in sorted(self._families):
            family = self._families[name]
            for key, instrument in family.items():
                series = _series_key(family.name, family.labelnames, key)
                if family.kind == "counter":
                    out["counters"][series] = instrument.value
                elif family.kind == "gauge":
                    out["gauges"][series] = {
                        "value": instrument.value,
                        "max": instrument.max_value,
                        "min": instrument.min_value,
                    }
                else:
                    out["histograms"][series] = instrument.snapshot()
        return out
