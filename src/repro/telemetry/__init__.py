"""Deterministic, sim-time-clocked observability (paper section 3.2).

The platform in the paper is operated through pervasive measurement:
on-machine agents and collectors feed dashboards and alerting, and the
section 4.3 attack defenses are *activated* when monitoring detects an
anomaly. This package is that measurement substrate for the repro, in
four layers:

* a **metrics registry** (:mod:`.registry`) — counters, gauges, and
  log-bucketed histograms, labeled and exported in sorted order;
* **per-query trace spans** (:mod:`.trace`) — head-sampled traces that
  follow a query resolver -> network -> PoP -> penalty queue -> engine;
* **exporters** (:mod:`.exporters`) — Chrome trace-event JSON
  (``runner --trace``) and JSONL events (the form the golden
  recordings under ``tests/telemetry`` are kept in);
* an **alerting pipeline** (:mod:`.alerts`) — rolling-window detectors
  (QPS spike, NXDOMAIN ratio, SERVFAIL rate, queue depth) subscribed to
  :data:`METRICS` rows, raising typed :class:`~.alerts.Alert` objects;
  the defense ladder (:mod:`repro.control.defense`) subscribes to them,
  closing the paper's detect -> mitigate loop.

Determinism contract (stronger than "seeded"): with a fixed telemetry
seed, every export is bit-reproducible, **and** enabling telemetry does
not change any simulation result — instrumentation never schedules
events on the sim loop, never draws from simulation RNG streams, and
never mutates sim state (arming the defense ladder is opt-in and off by
default). When no session is active each emit and span helper of
:mod:`.state` costs a call and one ``is not None`` test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .alerts import (
    Alert,
    AlertManager,
    AlertSeverity,
    Detector,
    GaugeDetector,
    RateDetector,
    RatioDetector,
)
from .registry import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from .state import activate, deactivate, session
from .trace import InstantEvent, Span, Tracer

__all__ = [
    "Alert", "AlertManager", "AlertSeverity", "Counter", "Detector",
    "Gauge", "GaugeDetector", "Histogram", "InstantEvent",
    "MetricsRegistry", "RateDetector", "RatioDetector", "Span",
    "Telemetry", "TelemetryConfig", "Tracer", "activate", "deactivate",
    "session", "standard_detectors",
]


@dataclass(slots=True)
class TelemetryConfig:
    """Knobs for one telemetry session."""

    #: Seeds the tracer's private sampling stream (never a sim stream).
    seed: int = 0
    #: Fraction of trace roots kept; 0 disables span recording entirely.
    trace_sample_rate: float = 0.01
    #: Bound on retained spans, and separately on retained instants;
    #: what overflows either is counted in ``dropped_spans``, not kept.
    max_spans: int = 50_000
    #: When False, ``DefenseController.arm`` refuses the session, so no
    #: alert callback that would mutate simulator state is attached.
    #: Off by default so an observing session can never change results.
    arm_mitigations: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(f"trace_sample_rate must be in [0, 1], "
                             f"got {self.trace_sample_rate}")
        if self.max_spans < 0:
            raise ValueError(f"max_spans must be >= 0, got {self.max_spans}")


#: What ``record``'s value does to an instrument of each kind.
_UPDATE = {"counter": "inc", "gauge": "set", "histogram": "record"}


class _Bound(dict):
    """Label arguments as passed -> (the series' update method, its label
    texts), resolved on first use: a caller pays one dict probe per call
    and the label text (an enum member's name, as ``RCode``'s, else
    ``str``) is computed once per series."""

    def __init__(self, family, method: str) -> None:
        self._family = family
        self._method = method

    def __missing__(self, labels: tuple):
        texts = tuple(arg.name if isinstance(arg, enum.Enum) else str(arg)
                      for arg in labels)
        bound = self[labels] = (
            getattr(self._family.labels(*texts), self._method), texts)
        return bound


class Telemetry:
    """One observability session: registry + tracer + alerts + stats taps.

    Activate with :func:`repro.telemetry.activate` (or the
    :func:`~repro.telemetry.state.session` context manager). Instrumented
    code emits a :data:`METRICS` row through :func:`.state.record`, which
    lands in :meth:`record`, and opens and closes spans through
    :mod:`.state`'s ``begin``, ``end`` and ``instant``, which go straight
    to :attr:`tracer`. Nothing else is called, so the instrumentation
    surface stays greppable and the hot-path cost auditable.
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(sample_rate=self.config.trace_sample_rate,
                             seed=self.config.seed,
                             max_spans=self.config.max_spans)
        self.alerts = AlertManager()
        #: Monotonic count of simulation worlds (EventLoops) observed.
        self.epoch = 0
        self._loop = None
        #: name -> provider callable for end-of-epoch stats snapshots.
        self._stats_providers: list[tuple[str, Callable[[], dict]]] = []
        self._stats_frozen: dict[str, dict] = {}
        #: row -> (its series by label arguments as passed, its detectors;
        #: the alert manager's own list, so one added later is fed too).
        self._rows: dict[str, tuple[_Bound, list]] = {}
        for name, (kind, labelnames) in METRICS.items():
            family = self.registry.family(name, kind, labelnames)
            if not labelnames:
                family.labels()     # the export lists it even when empty
            self._rows[name] = (_Bound(family, _UPDATE[kind]),
                                self.alerts._subscribers[name])

    # -- clock / epoch ------------------------------------------------------

    def attach_loop(self, loop) -> None:
        """A new simulated world started; begin a fresh epoch.

        Each :class:`~repro.netsim.clock.EventLoop` restarts simulated
        time at zero, so rolling alert windows and span timelines from
        the previous world must not bleed into the new one. The loop's
        ``now`` is the time every detector observation is stamped with.
        """
        self._freeze_stats()
        self.epoch += 1
        self._loop = loop
        self.tracer.epoch = self.epoch
        self.alerts.reset_epoch(self.epoch)

    # -- stats taps ---------------------------------------------------------

    def register_stats(self, name: str,
                       provider: Callable[[], dict]) -> None:
        """Register a snapshot provider (e.g. NetworkStats) for export."""
        self._stats_providers.append((name, provider))

    def _freeze_stats(self) -> None:
        for name, provider in self._stats_providers:
            self._stats_frozen[f"epoch{self.epoch}.{name}"] = provider()
        self._stats_providers.clear()

    # -- metrics ------------------------------------------------------------

    def record(self, name: str, labels: tuple, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` at series ``labels`` (set the
        gauge, sample the histogram), then feed the row's detectors in the
        order they were added, at the attached loop's ``now``. ``labels``
        are the site's own values (a ``Name``, an ``RCode``). An unknown
        ``name`` raises KeyError; a row with detectors recorded before a
        loop is attached raises RuntimeError."""
        series, subscribers = self._rows[name]
        update, texts = series[labels]
        update(value)
        if subscribers:
            if self._loop is None:
                raise RuntimeError(f"{name} has detectors but no EventLoop "
                                   f"is attached to stamp them")
            now = self._loop.now
            for detector, index, text in subscribers:
                detector.observe(now, value if index is None else
                                 1.0 if texts[index] == text else 0.0)

    # -- export -------------------------------------------------------------

    def finalize(self) -> None:
        """Flush trailing alert windows and stats snapshots."""
        if self._loop is not None:
            self.alerts.finalize(self._loop.now)
        self._freeze_stats()

    def export(self) -> dict:
        """The whole session as a JSON-ready dict (sorted, reproducible)."""
        self.finalize()
        return {
            "epochs": self.epoch,
            "metrics": self.registry.snapshot(),
            "alerts": self.alerts.to_dict(),
            "stats": {name: self._stats_frozen[name]
                      for name in sorted(self._stats_frozen)},
            "trace": {
                "roots_started": self.tracer.roots_started,
                "roots_sampled": self.tracer.roots_sampled,
                "spans": len(self.tracer.spans),
                "instants": len(self.tracer.events),
                "dropped_spans": self.tracer.dropped_spans,
            },
        }


def standard_detectors(manager: AlertManager) -> AlertManager:
    """Arm the four detectors the paper's defenses key off.

    QPS spike and NXDOMAIN ratio are the section 4.3.4 attack signals
    (volumetric flood, random-subdomain attack); SERVFAIL rate and
    penalty-queue depth are platform-health signals.
    """
    manager.add(RateDetector(
        "qps-spike", window=1.0, threshold=1_000.0, for_windows=2,
        severity=AlertSeverity.CRITICAL), "queries_received_total")
    manager.add(RatioDetector(
        "nxdomain-ratio", window=1.0, threshold=0.30, min_count=20,
        for_windows=2, severity=AlertSeverity.CRITICAL),
        "queries_answered_total", "rcode=NXDOMAIN")
    manager.add(RatioDetector(
        "servfail-ratio", window=5.0, threshold=0.20, min_count=10),
        "queries_answered_total", "rcode=SERVFAIL")
    manager.add(GaugeDetector(
        "queue-depth", window=1.0, threshold=200.0), "penalty_queue_depth")
    return manager
