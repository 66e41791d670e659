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
  (QPS spike, NXDOMAIN ratio, SERVFAIL rate, queue depth) that raise
  typed :class:`~.alerts.Alert` objects; the defense ladder
  (:mod:`repro.control.defense`) subscribes to them, closing the
  paper's detect -> mitigate loop.

Determinism contract (stronger than "seeded"): with a fixed telemetry
seed, every export is bit-reproducible, **and** enabling telemetry does
not change any simulation result — hooks never schedule events on the
sim loop, never draw from simulation RNG streams, and never mutate sim
state (arming the defense ladder is opt-in and off by default). When no
session is active each site costs one ``is not None`` test (:mod:`.state`).
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
from .registry import Counter, Gauge, Histogram, MetricsRegistry
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


#: Every metric family of a session: name -> (kind, label names). The
#: comment above a row says what it counts; instrumented code reaches a
#: row with :func:`.state.record` unless a hook below owns it.
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

#: What ``record``'s value does to an instrument of each kind.
_UPDATE = {"counter": "inc", "gauge": "set", "histogram": "record"}


class _Bound(dict):
    """Arguments as passed -> what they update, resolved on first use: a
    caller pays one dict probe per call, ``labels`` once per series."""

    def __init__(self, resolve: Callable) -> None:
        self._resolve = resolve

    def __missing__(self, key):
        bound = self[key] = (self._resolve(*key) if type(key) is tuple
                             else self._resolve(key))
        return bound


def _series(family, method: str = "") -> _Bound:
    """Label arguments as passed -> ``family``'s instrument, or its
    ``method``. The label text (an enum member's name, as ``RCode``'s,
    else ``str``) is computed once per series."""
    def resolve(*args):
        instrument = family.labels(*(
            arg.name if isinstance(arg, enum.Enum) else str(arg)
            for arg in args))
        return getattr(instrument, method) if method else instrument
    return _Bound(resolve)


class Telemetry:
    """One observability session: registry + tracer + alerts + stats taps.

    Activate with :func:`repro.telemetry.activate` (or the
    :func:`~repro.telemetry.state.session` context manager). A site
    that only counts reaches a :data:`METRICS` row through
    :meth:`record`; the hooks below also feed alert detectors or spans.
    Nothing else is called, so the instrumentation surface stays
    greppable and the hot-path cost auditable.
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

        families = {}
        #: row -> label arguments as passed -> the series' update method.
        self._update: dict[str, _Bound] = {}
        for name, (kind, labelnames) in METRICS.items():
            family = families[name] = self.registry.family(name, kind,
                                                           labelnames)
            if not labelnames:
                family.labels()     # the export lists it even when empty
            self._update[name] = _series(family, _UPDATE[kind])
        # Packet-path hooks touch instruments directly and feed each
        # detector list (detectors added later land in it too).
        self._received = _series(families["queries_received_total"])
        answered = families["queries_answered_total"]
        # (series, what an answer feeds the NXDOMAIN and SERVFAIL ratios)
        self._answered = _Bound(lambda machine_id, rcode: (
            answered.labels(machine_id, rcode.name),
            float(rcode.name == "NXDOMAIN"), float(rcode.name == "SERVFAIL")))
        self._enqueued = _series(families["penalty_enqueued_total"])
        self._depth = _series(families["penalty_queue_depth"])
        self._qps, self._nxdomain, self._servfail, self._queue_depth = map(
            self.alerts.feed, ("qps", "nxdomain", "servfail", "queue_depth"))

    # -- clock / epoch ------------------------------------------------------

    def attach_loop(self, loop) -> None:
        """A new simulated world started; begin a fresh epoch.

        Each :class:`~repro.netsim.clock.EventLoop` restarts simulated
        time at zero, so rolling alert windows and span timelines from
        the previous world must not bleed into the new one.
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
        gauge, sample the histogram); ``labels`` are the site's own values
        (a ``Name``, an ``RCode``). An unknown ``name`` raises KeyError."""
        self._update[name][labels](value)

    # -- machine hooks ------------------------------------------------------

    def query_received(self, machine_id: str, now: float) -> None:
        self._received[machine_id].value += 1.0
        for detector in self._qps:
            detector.observe(now, 1.0)

    def query_answered(self, machine_id: str, rcode, now: float) -> None:
        """``rcode``: the ``RCode`` member, named once per series."""
        counter, nxdomain, servfail = self._answered[machine_id, rcode]
        counter.value += 1.0
        for detector in self._nxdomain:
            detector.observe(now, nxdomain)
        for detector in self._servfail:
            detector.observe(now, servfail)

    def queue_enqueued(self, owner: str, queue_index: int,
                       total_depth: int, now: float) -> None:
        self._enqueued[owner, queue_index].value += 1.0
        # As queue_served, inline: one hook call per instrumented event.
        depth = float(total_depth)
        self._depth[owner].set(depth)
        for detector in self._queue_depth:
            detector.observe(now, depth)

    def queue_served(self, owner: str, total_depth: int,
                     now: float) -> None:
        depth = float(total_depth)
        self._depth[owner].set(depth)
        for detector in self._queue_depth:
            detector.observe(now, depth)

    # -- resolver hooks -----------------------------------------------------

    def resolution_started(self, now: float) -> Span | None:
        return self.tracer.start_trace("resolver.resolve", "resolver",
                                       now)

    def resolution_finished(self, span: Span | None, rcode: str,
                            duration: float, timeouts: int,
                            now: float) -> None:
        update = self._update
        update["resolutions_total"][(rcode,)](1.0)
        update["resolution_seconds"][()](duration)
        if timeouts:
            update["resolution_timeouts_total"][()](timeouts)
        if span is not None:
            span.attrs["rcode"] = rcode
            span.attrs["timeouts"] = timeouts
            self.tracer.finish(span, now)

    # -- SLO probe hooks ----------------------------------------------------

    def probe_outcome(self, ok: bool, duration: float, now: float) -> None:
        update = self._update
        update["probe_outcomes_total"][("ok" if ok else "failed",)](1.0)
        if ok:
            update["probe_seconds"][()](duration)
        self.alerts.observe("probe.fail", now, 0.0 if ok else 1.0)

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


def standard_detectors(manager: AlertManager, *,
                       qps_threshold: float = 1_000.0,
                       nxdomain_ratio: float = 0.30,
                       servfail_ratio: float = 0.20,
                       queue_depth: float = 200.0,
                       window: float = 1.0) -> AlertManager:
    """Arm the four detectors the paper's defenses key off.

    QPS spike and NXDOMAIN ratio are the section 4.3.4 attack signals
    (volumetric flood, random-subdomain attack); SERVFAIL rate and
    penalty-queue depth are platform-health signals.
    """
    manager.add(RateDetector(
        "qps-spike", window=window, threshold=qps_threshold,
        for_windows=2, severity=AlertSeverity.CRITICAL), "qps")
    manager.add(RatioDetector(
        "nxdomain-ratio", window=window, threshold=nxdomain_ratio,
        min_count=20, for_windows=2,
        severity=AlertSeverity.CRITICAL), "nxdomain")
    manager.add(RatioDetector(
        "servfail-ratio", window=5 * window, threshold=servfail_ratio,
        min_count=10), "servfail")
    manager.add(GaugeDetector(
        "queue-depth", window=window, threshold=queue_depth),
        "queue_depth")
    return manager
