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
session is active the entire subsystem costs one ``is not None`` guard
per hook site (see :mod:`.state`).
"""

from __future__ import annotations

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
    #: Bound on retained spans/instants (overflow is counted, not kept).
    max_spans: int = 50_000
    #: When False, ``DefenseController.arm`` refuses the session, so no
    #: alert callback that would mutate simulator state is attached.
    #: Off by default so an observing session can never change results.
    arm_mitigations: bool = False


class _Bound(dict):
    """Hook arguments -> what the hook updates, resolved on first use: a
    hook pays one dict probe per call, ``labels`` once per series."""

    def __init__(self, resolve: Callable) -> None:
        self._resolve = resolve

    def __missing__(self, key):
        bound = self[key] = (self._resolve(*key) if type(key) is tuple
                             else self._resolve(key))
        return bound


class Telemetry:
    """One observability session: registry + tracer + alerts + stats taps.

    Activate with :func:`repro.telemetry.activate` (or the
    :func:`~repro.telemetry.state.session` context manager);
    instrumentation hooks throughout the simulator feed whichever
    session is active. The hook methods below are the *only* interface
    instrumented code calls, so the instrumentation surface stays
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

        reg = self.registry
        # Packet-path hooks: series bound by the hook's own arguments, and
        # each feed's live detector list (later detectors land in it).
        self._received = _Bound(reg.counter(
            "queries_received_total",
            "queries arriving at nameserver machines", ("machine",)).labels)
        answered = reg.counter(
            "queries_answered_total",
            "responses assembled, by final rcode", ("machine", "rcode"))
        # (series, what an answer feeds the NXDOMAIN and SERVFAIL ratios)
        self._answered = _Bound(lambda machine_id, rcode: (
            answered.labels(machine_id, rcode.name),
            float(rcode.name == "NXDOMAIN"), float(rcode.name == "SERVFAIL")))
        self._dropped = _Bound(reg.counter(
            "queries_dropped_total",
            "queries shed before service", ("machine", "reason")).labels)
        self._enqueued = _Bound(reg.counter(
            "penalty_enqueued_total",
            "queries placed into penalty queues", ("owner", "queue")).labels)
        self._depth = _Bound(reg.gauge(
            "penalty_queue_depth",
            "total queued queries per machine", ("owner",)).labels)
        self._filter = _Bound(reg.counter(
            "filter_penalties_total",
            "nonzero penalties contributed per filter", ("filter",)).labels)
        self._qps, self._nxdomain, self._servfail, self._queue_depth = map(
            self.alerts.feed, ("qps", "nxdomain", "servfail", "queue_depth"))
        self._h_penalty = reg.histogram(
            "filter_penalty_score",
            "distribution of total penalty scores").labels()
        self._c_qod = reg.counter(
            "qod_events_total",
            "query-of-death firewall activity", ("event",))
        self._c_agent = reg.counter(
            "agent_checks_total",
            "monitoring-agent cycles by outcome", ("machine", "outcome"))
        self._c_lifecycle = reg.counter(
            "machine_lifecycle_total",
            "suspensions/resumptions/crashes", ("machine", "event"))
        self._c_resolutions = reg.counter(
            "resolutions_total",
            "recursive resolutions finished, by rcode", ("rcode",))
        self._h_resolution = reg.histogram(
            "resolution_seconds",
            "end-to-end resolution latency").labels()
        self._c_timeouts = reg.counter(
            "resolution_timeouts_total",
            "per-attempt timeouts during resolution").labels()
        self._c_probe = reg.counter(
            "probe_outcomes_total",
            "SLO probe resolutions, graded", ("outcome",))
        zone = reg.counter(
            "zone_responses_total",
            "per-zone responses, by rcode (feeds enterprise reports)",
            ("machine", "zone", "rcode"))
        self._zone = _Bound(lambda machine_id, origin, rcode: zone.labels(
            machine_id, str(origin), rcode.name))
        self._c_stale = reg.counter(
            "machine_stale_total",
            "positive staleness checks (inputs older than threshold)",
            ("machine",))
        self._c_zone_updates = reg.counter(
            "zone_updates_total",
            "zone installs/rejects/rollbacks at machines",
            ("machine", "action"))
        self._c_rollout = reg.counter(
            "rollout_events_total",
            "safe-rollout release phase transitions",
            ("origin", "phase"))
        self._h_probe = reg.histogram(
            "probe_seconds", "SLO probe answer latency").labels()
        self._c_defense = reg.counter(
            "defense_transitions_total",
            "defense-ladder rung transitions",
            ("controller", "rung", "action"))
        self._g_defense = reg.gauge(
            "defense_ladder_rung",
            "current defense-ladder escalation level", ("controller",))
        self._c_dnssec_sign = reg.counter(
            "dnssec_signatures_total",
            "RRSIGs produced by the zone-signing pipeline",
            ("origin", "disposition"))
        self._c_dnssec_validate = reg.counter(
            "dnssec_validations_total",
            "signature validations at resolvers and probe clients",
            ("outcome",))
        self._c_dnssec_rollover = reg.counter(
            "dnssec_rollover_steps_total",
            "key-rollover state machine events",
            ("origin", "kind", "step"))
        self._c_gray = reg.counter(
            "gray_verdicts_total",
            "gray-failure verdict transitions (control.grayfail)",
            ("machine", "verdict"))
        self._g_gray = reg.gauge(
            "gray_verdict_state",
            "current verdict level (0 healthy, 1 suspect, 2 convicted, "
            "3 probation)", ("machine",))
        self._h_gray_detect = reg.histogram(
            "gray_detection_seconds",
            "first differential evidence to conviction").labels()

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

    def query_dropped(self, machine_id: str, reason: str) -> None:
        self._dropped[machine_id, reason].value += 1.0

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

    def filter_scored(self, contributions: dict[str, float],
                      total: float) -> None:
        for filter_name in contributions:
            self._filter[filter_name].value += 1.0
        self._h_penalty.record(total)

    def qod_event(self, event: str) -> None:
        """``event`` is "crash_recorded", "dropped", or "armed"."""
        self._c_qod.labels(event).inc()

    # -- monitoring / lifecycle hooks ---------------------------------------

    def agent_check(self, machine_id: str, healthy: bool) -> None:
        outcome = "healthy" if healthy else "unhealthy"
        self._c_agent.labels(machine_id, outcome).inc()

    def machine_lifecycle(self, machine_id: str, event: str) -> None:
        """``event``: "suspended", "resumed", "denied", "crashed",
        "degraded", or "restored"."""
        self._c_lifecycle.labels(machine_id, event).inc()

    def machine_stale(self, machine_id: str) -> None:
        """A staleness check came back positive for this machine."""
        self._c_stale.labels(machine_id).inc()

    def zone_update(self, machine_id: str, action: str) -> None:
        """``action``: "install", "reject", or "rollback"."""
        self._c_zone_updates.labels(machine_id, action).inc()

    def rollout_event(self, origin: str, phase: str) -> None:
        """A safe-rollout release changed phase (control.rollout)."""
        self._c_rollout.labels(origin, phase).inc()

    def defense_transition(self, controller: str, rung: str, action: str,
                           level: int, now: float,
                           trace_id: int | None = None) -> None:
        """The defense ladder moved (control.defense).

        ``action``: "engage", "disengage", or "revert" (guardrail trip);
        ``level`` is the ladder's escalation level *after* the move, so
        the gauge tracks the ladder and reads 0 once fully unwound.
        """
        self._c_defense.labels(controller, rung, action).inc()
        self._g_defense.labels(controller).set(float(level))
        if trace_id is not None:
            self.tracer.instant(trace_id, f"defense.{action}", "defense",
                                now, rung=rung, level=level)

    def gray_verdict(self, machine_id: str, verdict: str,
                     level: int) -> None:
        """The gray-failure controller moved a machine's verdict.

        ``level`` is the verdict's gauge encoding *after* the move, so
        the per-machine gauge reads 0 once a machine is exonerated.
        """
        self._c_gray.labels(machine_id, verdict).inc()
        self._g_gray.labels(machine_id).set(float(level))

    def gray_detection(self, latency: float) -> None:
        """A conviction landed; record first-evidence-to-verdict latency."""
        self._h_gray_detect.record(latency)

    # -- resolver hooks -----------------------------------------------------

    def resolution_started(self, now: float) -> Span | None:
        return self.tracer.start_trace("resolver.resolve", "resolver",
                                       now)

    def resolution_finished(self, span: Span | None, rcode: str,
                            duration: float, timeouts: int,
                            now: float) -> None:
        self._c_resolutions.labels(rcode).inc()
        self._h_resolution.record(duration)
        if timeouts:
            self._c_timeouts.inc(timeouts)
        if span is not None:
            span.attrs["rcode"] = rcode
            span.attrs["timeouts"] = timeouts
            self.tracer.finish(span, now)

    # -- DNSSEC hooks -------------------------------------------------------

    def dnssec_signed(self, origin: str, created: int,
                      reused: int) -> None:
        """A zone (re-)signing pass finished (repro.dnssec.sign)."""
        if created:
            self._c_dnssec_sign.labels(origin, "created").inc(created)
        if reused:
            self._c_dnssec_sign.labels(origin, "reused").inc(reused)

    def dnssec_validation(self, ok: bool) -> None:
        """A validator judged a response (resolver or probe client).

        The qname is deliberately not a metric label: attack traffic
        makes it unbounded.
        """
        self._c_dnssec_validate.labels("ok" if ok else "bogus").inc()

    def dnssec_rollover(self, origin: str, kind: str, step: str) -> None:
        """A key-rollover state machine advanced (repro.dnssec.rollover)."""
        self._c_dnssec_rollover.labels(origin, kind, step).inc()

    # -- reporting hooks ----------------------------------------------------

    def zone_response(self, machine_id: str, origin, rcode) -> None:
        """``origin``: a ``Name``; ``rcode``: the ``RCode`` member."""
        self._zone[machine_id, origin, rcode].value += 1.0

    # -- SLO probe hooks ----------------------------------------------------

    def probe_outcome(self, ok: bool, duration: float, now: float) -> None:
        self._c_probe.labels("ok" if ok else "failed").inc()
        if ok:
            self._h_probe.record(duration)
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
