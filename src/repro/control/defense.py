"""Closed-loop attack mitigation: the defense escalation ladder.

The paper's attack playbook (section 4.3) is a *sequence* of defenses —
penalty queues absorb what compute allows, rate limits and firewall
rules shed abusive sources, and anycast traffic engineering isolates or
spreads what remains — applied and withdrawn as an incident evolves.
This module automates that sequence deterministically:

* a :class:`DefenseController` consumes the telemetry alert pipeline
  and walks a configurable ladder of :class:`DefenseRung` steps, one
  rung at a time, each soaking before the next may engage;
* tick-level hysteresis (``FOR_TICKS``/``CLEAR_TICKS``, the detectors'
  window streaks one level up) keeps a flapping alert from oscillating
  mitigations;
* de-escalation is symmetric — rungs unwind in reverse order once the
  signal clears, so no mitigation is ever left stuck; and
* every rung runs under a **collateral-damage guardrail**: a rolling
  estimate of legitimate-traffic loss (the answered fraction of traffic
  from known resolvers) that auto-reverts a rung — and latches it out
  for a cool-off — when the cure sheds more good traffic than the
  attack did, mirroring the safe-rollout canary's promote/rollback
  shape.

Engaging defenses mutates simulation behaviour by design, so
:meth:`DefenseController.arm` refuses passive telemetry sessions
(``TelemetryConfig(arm_mitigations=True)`` opts in). A quiet armed
run schedules nothing on the loop until the first alert raise, so
results stay byte-identical when no attack occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..telemetry import Telemetry, state as _telemetry
from ..telemetry.alerts import Alert

#: Cumulative (known_received, known_answered) across the fleet.
EstimatorFn = Callable[[], tuple[int, int]]


def known_resolver_estimator(machines: Sequence) -> EstimatorFn:
    """Sum the known-resolver counters across ``machines``.

    The machines' ``known_sources`` sets decide what counts as
    legitimate; wire those before arming the controller.
    """
    def estimate() -> tuple[int, int]:
        received = answered = 0
        for machine in machines:
            received += machine.metrics.known_received
            answered += machine.metrics.known_answered
        return received, answered
    return estimate


# -- rungs --------------------------------------------------------------------


class DefenseRung:
    """One step of the ladder: a reversible mitigation.

    ``soak_seconds`` (None = ``SOAK_SECONDS``) is how long the rung
    must hold — and its guardrail must stay clean — before the ladder
    may climb past it; ``cool_off_seconds`` is how long the rung stays
    latched out after a guardrail revert.
    """

    def __init__(self, name: str, *, soak_seconds: float | None = None,
                 cool_off_seconds: float = 60.0) -> None:
        self.name = name
        self.soak_seconds = soak_seconds
        self.cool_off_seconds = cool_off_seconds

    def engage(self, now: float) -> None:
        raise NotImplementedError

    def disengage(self, now: float) -> None:
        raise NotImplementedError


#: What the first rung scales every penalty-queue boundary by.
TIGHTEN_FACTOR = 0.5


class QueueTightenRung(DefenseRung):
    """Rung: tighten every machine's penalty-queue score bands.

    Swaps each queue runtime's :class:`~repro.filters.scoring.QueuePolicy`
    for a ``tightened(TIGHTEN_FACTOR)`` copy (same queue count,
    scaled-down boundaries and discard threshold) and restores the
    originals on disengage.
    """

    def __init__(self, machines: Sequence, **kwargs) -> None:
        super().__init__(kwargs.pop("name", "queue-tighten"), **kwargs)
        self.machines = list(machines)
        self._saved: list[tuple[object, object]] = []

    def engage(self, now: float) -> None:
        for machine in self.machines:
            policy = machine.queues.policy
            self._saved.append((machine, policy))
            machine.queues.policy = policy.tightened(TIGHTEN_FACTOR)

    def disengage(self, now: float) -> None:
        for machine, policy in self._saved:
            machine.queues.policy = policy
        self._saved.clear()


class FilterInsertRung(DefenseRung):
    """Rung: insert a scoring filter into every machine's pipeline.

    ``factory(machine)`` builds a fresh filter per machine per engage,
    so a re-engaged rung starts with clean learned state rather than
    resuming penalties from the previous incident.
    """

    def __init__(self, machines: Sequence, factory: Callable[[object], object],
                 **kwargs) -> None:
        super().__init__(kwargs.pop("name", "scoring-filter"), **kwargs)
        self.machines = list(machines)
        self.factory = factory
        self._inserted: list[tuple[object, object]] = []

    def engage(self, now: float) -> None:
        for machine in self.machines:
            filter_ = self.factory(machine)
            machine.pipeline.add(filter_)
            self._inserted.append((machine, filter_))

    def disengage(self, now: float) -> None:
        for machine, filter_ in self._inserted:
            if filter_ in machine.pipeline.filters:
                machine.pipeline.filters.remove(filter_)
        self._inserted.clear()


class FirewallRuleRung(DefenseRung):
    """Rung: install a targeted drop rule on every machine's firewall.

    The rule matches the (parent domain, qtype) shape of the attack —
    the same broad-by-design match the query-of-death path uses — and
    is withdrawn on disengage rather than waiting out ``t_qod``.
    """

    def __init__(self, machines: Sequence, qname, qtype, **kwargs) -> None:
        super().__init__(kwargs.pop("name", "qod-firewall"), **kwargs)
        self.machines = list(machines)
        self.qname = qname
        self.qtype = qtype
        self._installed: list[tuple[object, object]] = []

    def engage(self, now: float) -> None:
        for machine in self.machines:
            signature = machine.firewall.install_rule(
                self.qname, self.qtype, now)
            self._installed.append((machine, signature))

    def disengage(self, now: float) -> None:
        for machine, signature in self._installed:
            machine.firewall.remove_rule(signature)
        self._installed.clear()


class TrafficEngRung(DefenseRung):
    """Rung: apply a pre-built traffic-engineering plan.

    The plan (see :mod:`repro.platform.traffic_eng`) is decided at wire
    time from the operator's playbook; the rung only applies/reverts
    it. The engineer's reference-counted apply/revert makes both calls
    safe under overlap with manually applied plans.
    """

    def __init__(self, engineer, plan, **kwargs) -> None:
        super().__init__(kwargs.pop("name", "traffic-eng"), **kwargs)
        self.engineer = engineer
        self.plan = plan

    def engage(self, now: float) -> None:
        self.engineer.apply(self.plan)

    def disengage(self, now: float) -> None:
        self.engineer.revert(self.plan)


# -- controller ---------------------------------------------------------------


#: The alert that drives the ladder; whoever feeds the session's alert
#: manager registers its detector under this name.
ATTACK_QPS_ALERT = "attack-qps"
#: Seconds between controller ticks while the alert or a rung is active.
CHECK_PERIOD = 1.0
#: Extra legitimate-traffic loss a rung may cause beyond what the attack
#: itself was already causing before it is reverted.
GUARDRAIL_MARGIN = 0.25
#: Known-resolver queries that must arrive under a rung (and in the
#: pre-mitigation baseline window) before its loss is judged.
GUARDRAIL_MIN_SAMPLES = 4


#: Consecutive alert-active ticks before the first rung engages (also
#: the pre-mitigation window the attack-damage baseline is measured
#: over).
FOR_TICKS = 3
#: Consecutive calm ticks before each rung unwinds.
CLEAR_TICKS = 3
#: Per-rung soak; a rung's own ``soak_seconds`` overrides.
SOAK_SECONDS = 6.0


@dataclass(frozen=True, slots=True)
class DefenseTransition:
    """One recorded ladder move."""

    time: float
    rung: str
    action: str        # "engage" | "disengage" | "revert"
    level: int         # escalation level after the move
    detail: str = ""


class DefenseController:
    """Walks the escalation ladder off the alert pipeline.

    ``ladder`` orders the rungs mildest-first. ``ATTACK_QPS_ALERT`` is
    the driving signal — a QPS-spike detector on ``queries_received_total``
    (recorded *before* any shedding, so the signal persists while
    mitigations hold and clears only when the attack actually stops).
    ``estimator`` feeds the guardrail; ``machines`` are held in degraded
    mode (serve-from-LKG, per-rung shed attribution) while any rung is
    engaged.
    """

    def __init__(self, loop, ladder: Sequence[DefenseRung], *,
                 estimator: EstimatorFn | None = None,
                 machines: Sequence = ()) -> None:
        if not ladder:
            raise ValueError("the ladder needs at least one rung")
        self.loop = loop
        self.ladder = list(ladder)
        self.estimator = estimator
        self.machines = list(machines)
        #: Indices of currently engaged rungs, in engage order.
        self._stack: list[int] = []
        self.max_level = 0
        self.reverts = 0
        self.transitions: list[DefenseTransition] = []
        #: Rung index -> time until which a guardrail revert keeps it
        #: out of the ladder.
        self.latched_until: dict[int, float] = {}
        self._alert_active = False
        self._breach_ticks = 0
        self._calm_ticks = 0
        self._last_change = 0.0
        self._baseline_sample: tuple[int, int] | None = None
        self._rung_sample: tuple[int, int] | None = None
        #: Legitimate-traffic loss the attack caused before mitigation,
        #: measured between alert raise and the first engage.
        self.attack_loss: float | None = None
        self._armed = False
        self._ticking = False
        self._span = None

    # -- wiring ---------------------------------------------------------------

    @property
    def level(self) -> int:
        """Current escalation level (0 = fully unwound)."""
        return len(self._stack)

    def arm(self, telemetry: Telemetry) -> "DefenseController":
        """Attach to a session's alert callbacks.

        Refuses passive sessions: walking the ladder mutates simulator
        state.
        """
        if not telemetry.config.arm_mitigations:
            raise ValueError(
                "defense arming requires TelemetryConfig("
                "arm_mitigations=True); passive sessions must not "
                "mutate simulation state")
        if self._armed:
            return self
        self._armed = True
        telemetry.alerts.on_raise.append(self._on_raise)
        telemetry.alerts.on_clear.append(self._on_clear)
        return self

    def _on_raise(self, alert: Alert) -> None:
        if alert.name != ATTACK_QPS_ALERT:
            return
        self._alert_active = True
        if not self._stack and self.estimator is not None:
            self._baseline_sample = self.estimator()
        self._ensure_ticking()

    def _on_clear(self, alert: Alert) -> None:
        if alert.name == ATTACK_QPS_ALERT:
            self._alert_active = False

    def _ensure_ticking(self) -> None:
        if not self._ticking:
            self._ticking = True
            self.loop.call_later(CHECK_PERIOD, self._tick)

    # -- the tick loop --------------------------------------------------------

    def _tick(self) -> None:
        now = self.loop.now
        reverted = self._check_guardrail(now)
        if self._alert_active:
            self._calm_ticks = 0
            self._breach_ticks += 1
            if not reverted and self._may_escalate(now):
                nxt = self._next_rung(now)
                if nxt is not None:
                    self._engage(nxt, now)
        else:
            self._breach_ticks = 0
            if self._stack:
                self._calm_ticks += 1
                if self._calm_ticks >= CLEAR_TICKS:
                    self._disengage_top(now, "disengage")
                    self._calm_ticks = 0
        if self._stack or self._alert_active:
            self.loop.call_later(CHECK_PERIOD, self._tick)
        else:
            self._ticking = False

    def _may_escalate(self, now: float) -> bool:
        if self._breach_ticks < FOR_TICKS:
            return False
        if not self._stack:
            return True
        top = self.ladder[self._stack[-1]]
        soak = (top.soak_seconds if top.soak_seconds is not None
                else SOAK_SECONDS)
        return now - self._last_change >= soak

    def _next_rung(self, now: float) -> int | None:
        index = self._stack[-1] + 1 if self._stack else 0
        while index < len(self.ladder):
            if self.latched_until.get(index, 0.0) <= now:
                return index
            index += 1
        return None

    # -- guardrail ------------------------------------------------------------

    def _loss_between(self, before: tuple[int, int],
                      after: tuple[int, int]) -> float | None:
        received = after[0] - before[0]
        if received < GUARDRAIL_MIN_SAMPLES:
            return None
        answered = after[1] - before[1]
        return 1.0 - answered / received

    def _check_guardrail(self, now: float) -> bool:
        """Revert the top rung if it sheds too much good traffic."""
        if (not self._stack or self.estimator is None
                or self._rung_sample is None):
            return False
        loss = self._loss_between(self._rung_sample, self.estimator())
        if loss is None:
            return False
        allowed = (self.attack_loss or 0.0) + GUARDRAIL_MARGIN
        if loss <= allowed:
            return False
        index = self._stack[-1]
        rung = self.ladder[index]
        self.latched_until[index] = now + rung.cool_off_seconds
        self.reverts += 1
        self._disengage_top(
            now, "revert",
            detail=(f"legit loss {loss:.0%} > allowed {allowed:.0%}; "
                    f"latched {rung.cool_off_seconds:g}s"))
        # A revert restarts the escalation clock: the ladder must see
        # FOR_TICKS more active ticks before trying the next rung.
        self._breach_ticks = 0
        return True

    # -- transitions ----------------------------------------------------------

    def _engage(self, index: int, now: float) -> None:
        if not self._stack and self.estimator is not None \
                and self._baseline_sample is not None:
            self.attack_loss = self._loss_between(
                self._baseline_sample, self.estimator())
        rung = self.ladder[index]
        rung.engage(now)  # reprolint: disable=ROB002 -- the ladder's seam
        self._stack.append(index)
        self.max_level = max(self.max_level, len(self._stack))
        self._last_change = now
        self._rung_sample = (self.estimator() if self.estimator is not None
                             else None)
        for machine in self.machines:
            machine.enter_degraded(rung.name)
        if len(self._stack) == 1:
            self._span = _telemetry.begin("defense.ladder", "defense", now)
        self._record(now, rung.name, "engage")

    def _disengage_top(self, now: float, action: str,
                       detail: str = "") -> None:
        index = self._stack.pop()
        rung = self.ladder[index]
        rung.disengage(now)  # reprolint: disable=ROB002 -- the ladder's seam
        self._last_change = now
        self._rung_sample = (self.estimator()
                             if self.estimator is not None and self._stack
                             else None)
        if self._stack:
            top = self.ladder[self._stack[-1]]
            for machine in self.machines:
                machine.enter_degraded(top.name)
        else:
            for machine in self.machines:
                machine.exit_degraded()
            self.attack_loss = None
            # A guardrail revert can empty the ladder mid-attack; the
            # next engage must judge its rung against *re-measured*
            # attack damage, not a stale pre-incident sample (or, worse,
            # none at all — every rung would then be blamed for the
            # attack's own losses and falsely reverted).
            self._baseline_sample = (self.estimator()
                                     if self._alert_active
                                     and self.estimator is not None
                                     else None)
        self._record(now, rung.name, action, detail)
        if not self._stack:
            _telemetry.end(self._span, now)
            self._span = None

    def _record(self, now: float, rung_name: str, action: str,
                detail: str = "") -> None:
        self.transitions.append(
            DefenseTransition(now, rung_name, action, self.level, detail))
        _telemetry.record("defense_transitions_total",
                          ("defense", rung_name, action))
        _telemetry.record("defense_ladder_rung", ("defense",),
                          value=float(self.level))
        _telemetry.instant(self._span, f"defense.{action}", "defense", now,
                           rung=rung_name, level=self.level)

    # -- reporting ------------------------------------------------------------

    def unwound_at(self) -> float | None:
        """When the ladder last returned to level 0 (None if never/engaged)."""
        if self._stack:
            return None
        for transition in reversed(self.transitions):
            if transition.level == 0:
                return transition.time
        return None

    def timeline(self) -> list[str]:
        """Human-readable transition log for demos and debugging."""
        return [f"t={t.time:8.2f}s  level {t.level}  "
                f"{t.action:<9s} {t.rung}"
                + (f"  ({t.detail})" if t.detail else "")
                for t in self.transitions]
