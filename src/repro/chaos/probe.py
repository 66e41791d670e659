"""The SLO probe: steady legitimate traffic measured through a campaign.

A chaos campaign without a workload proves nothing — the probe is the
"legitimate user" whose experience the scorecard grades. It resolves a
fresh, unique name under a wildcard-equipped zone at a fixed cadence
(unique names defeat the answer cache while the NS/glue cache stays
warm, so every probe exercises the authoritative fleet the way real
long-tail traffic does), classifies each outcome against an answer
deadline, and aggregates per-window availability, latency, and failure
counts plus time-to-recovery after fault edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dnscore.name import name
from ..dnscore.rrtypes import RCode, RType
from ..netsim.clock import EventLoop
from ..resolver.resolver import RecursiveResolver, ResolutionResult
from ..telemetry import state as _telemetry


#: Seconds of probing one availability window aggregates.
WINDOW = 5.0
#: An answer slower than this counts as unanswered.
ANSWER_DEADLINE = 2.0


@dataclass(slots=True)
class ProbeOutcome:
    """One probe resolution, graded."""

    sent_at: float
    finished_at: float
    rcode: RCode
    duration: float
    timeouts: int
    ok: bool


@dataclass(slots=True)
class ProbeWindow:
    """Aggregate over one fixed-size time window."""

    start: float
    end: float
    total: int = 0
    answered: int = 0
    servfails: int = 0
    timeouts: int = 0
    latency_sum: float = 0.0

    @property
    def availability(self) -> float:
        return self.answered / self.total if self.total else 1.0


@dataclass(slots=True)
class SLOReport:
    """What a finished probe run hands the scorecard."""

    windows: list[ProbeWindow]
    outcomes: list[ProbeOutcome] = field(default_factory=list)

    @property
    def total_probes(self) -> int:
        return sum(w.total for w in self.windows)

    @property
    def overall_availability(self) -> float:
        total = self.total_probes
        if not total:
            return 1.0
        return sum(w.answered for w in self.windows) / total

    @property
    def worst_window_availability(self) -> float:
        graded = [w.availability for w in self.windows if w.total]
        return min(graded) if graded else 1.0

    @property
    def total_servfails(self) -> int:
        return sum(w.servfails for w in self.windows)

    @property
    def total_timeouts(self) -> int:
        return sum(w.timeouts for w in self.windows)

    def availability_between(self, start: float, end: float) -> float:
        """Availability over probes *sent* in [start, end)."""
        hits = [o for o in self.outcomes if start <= o.sent_at < end]
        if not hits:
            return 1.0
        return sum(o.ok for o in hits) / len(hits)

    def time_to_recovery(self, clear_time: float,
                         until: float | None = None,
                         stable_for: float = 3.0) -> float | None:
        """Seconds from ``clear_time`` until service is fully recovered.

        Recovery means: a probe sent at t succeeded, and every probe
        sent in [t, t + stable_for) succeeded too — one lucky answer in
        a failing stretch does not count. Returns None when the service
        never stabilizes before ``until`` (default: end of the run).
        """
        horizon = until if until is not None else float("inf")
        tail = [o for o in self.outcomes
                if clear_time <= o.sent_at < horizon]
        for index, outcome in enumerate(tail):
            if not outcome.ok:
                continue
            stable_until = outcome.sent_at + stable_for
            window = [o for o in tail[index:]
                      if o.sent_at < stable_until]
            if window and all(o.ok for o in window):
                return outcome.sent_at - clear_time
        return None


class SLOProbe:
    """Issues background queries and grades the answers.

    ``zone`` must carry a wildcard A record so the generated unique
    names (``slo-<n>.<zone>``) always have an answer when the platform
    is healthy.
    """

    def __init__(self, loop: EventLoop, resolver: RecursiveResolver,
                 zone: str, *, period: float = 0.25) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.loop = loop
        self.resolver = resolver
        self.zone = zone.rstrip(".")
        self.period = period
        self.outcomes: list[ProbeOutcome] = []
        self._seq = 0
        self._running = False
        self._started_at = 0.0

    # -- driving -------------------------------------------------------------

    def start(self) -> None:
        self._running = True
        self._started_at = self.loop.now
        self._tick()

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self._seq += 1
        qname = name(f"slo-{self._seq}.{self.zone}")
        sent_at = self.loop.now

        def done(result: ResolutionResult) -> None:
            self._record(sent_at, result)

        self.resolver.resolve(qname, RType.A, done)
        self.loop.call_later(self.period, self._tick)

    def _record(self, sent_at: float, result: ResolutionResult) -> None:
        ok = (result.rcode == RCode.NOERROR
              and bool(result.addresses())
              and result.duration <= ANSWER_DEADLINE)
        self.outcomes.append(ProbeOutcome(
            sent_at=sent_at, finished_at=self.loop.now,
            rcode=result.rcode, duration=result.duration,
            timeouts=result.timeouts, ok=ok))
        _telemetry.record("probe_outcomes_total", "ok" if ok else "failed")
        if ok:
            _telemetry.record("probe_seconds", value=result.duration)

    # -- reporting -----------------------------------------------------------

    def report(self) -> SLOReport:
        """Aggregate everything recorded so far into fixed windows."""
        outcomes = sorted(self.outcomes, key=lambda o: o.sent_at)
        windows: list[ProbeWindow] = []
        if outcomes:
            t0 = self._started_at
            horizon = outcomes[-1].sent_at
            count = int((horizon - t0) // WINDOW) + 1
            windows = [ProbeWindow(t0 + i * WINDOW, t0 + (i + 1) * WINDOW)
                       for i in range(count)]
            for outcome in outcomes:
                slot = int((outcome.sent_at - t0) // WINDOW)
                window = windows[slot]
                window.total += 1
                window.timeouts += outcome.timeouts
                if outcome.ok:
                    window.answered += 1
                    window.latency_sum += outcome.duration
                elif outcome.rcode not in (RCode.NOERROR, RCode.NXDOMAIN):
                    window.servfails += 1
        return SLOReport(windows=windows, outcomes=outcomes)
