"""The chaos engine: arms a campaign's timeline on the event loop.

The engine is deliberately thin — all policy lives in the campaign
(what breaks when) and the fault table (how each kind breaks). The
engine's jobs are ordering and bookkeeping: expand the campaign into
time-sorted edges, schedule each on the shared :class:`EventLoop`, hand
it to the kind's entry in :data:`~repro.chaos.INJECTORS`, keep what the
entries must undo, and keep an event log the scorecard uses to
attribute probe failures and recovery times to specific faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.clock import EventHandle, EventLoop, PeriodicTask
from ..platform.deployment import AkamaiDNSDeployment
from ..workload.attacks import RandomSubdomainAttack
from .faults import Campaign, FaultSpec
from .injectors import INJECTORS


@dataclass(slots=True)
class FaultEvent:
    """One executed fault edge, as it actually happened."""

    time: float
    action: str           # "inject" | "clear"
    spec: FaultSpec
    error: str = ""       # non-empty if the entry raised

    def describe(self) -> str:
        status = f" [FAILED: {self.error}]" if self.error else ""
        return (f"t={self.time:8.2f}s {self.action:>6} "
                f"{self.spec.describe()}{status}")


@dataclass(slots=True)
class ChaosEngine:
    """Runs one campaign against one deployment."""

    deployment: AkamaiDNSDeployment
    events: list[FaultEvent] = field(default_factory=list)
    strict: bool = True   # re-raise entry errors (tests want loud)
    _armed: list[EventHandle] = field(default_factory=list)
    # What the run's injected faults must undo when cleared: crash-loop
    # tasks by (target, machine id), capacities SLOW_IO scaled by machine
    # id, floods by (prefix, victim zone), and the floods launched so
    # far (each seeds its own generator).
    crash_loops: dict[tuple[str, str], PeriodicTask] = field(
        default_factory=dict, init=False)
    saved_capacity: dict[str, tuple[float, float]] = field(
        default_factory=dict, init=False)
    floods: dict[tuple[str, str], RandomSubdomainAttack] = field(
        default_factory=dict, init=False)
    floods_launched: int = field(default=0, init=False)

    @property
    def loop(self) -> EventLoop:
        return self.deployment.loop

    def arm(self, campaign: Campaign) -> None:
        """Schedule every fault edge relative to the current sim time.

        Each spec is validated against the fault table up front so a
        kind without an entry fails at arm time, not mid-run.
        """
        base = self.loop.now
        for spec in campaign.faults:
            if spec.kind not in INJECTORS:
                raise ValueError(f"no injector handles {spec.kind}")
        for time, action, spec in campaign.timeline():
            self._armed.append(self.loop.call_at(
                base + time,
                lambda a=action, s=spec: self._dispatch(a, s)))

    def disarm(self) -> None:
        """Cancel every not-yet-fired fault edge."""
        for handle in self._armed:
            self.loop.cancel(handle)
        self._armed.clear()

    def run(self, campaign: Campaign) -> list[FaultEvent]:
        """Arm the campaign and advance the loop through its duration."""
        base = self.loop.now
        self.arm(campaign)
        self.loop.run_until(base + campaign.duration)
        return self.events

    def _dispatch(self, action: str, spec: FaultSpec) -> None:
        entry = INJECTORS[spec.kind]
        event = FaultEvent(time=self.loop.now, action=action, spec=spec)
        try:
            entry(self, spec, action == "clear")
        except Exception as exc:  # noqa: BLE001 — logged, optionally re-raised
            event.error = f"{type(exc).__name__}: {exc}"
            self.events.append(event)
            if self.strict:
                # The campaign is aborting: cancel its remaining edges
                # so they cannot detonate inside later, unrelated
                # run_until calls on the shared loop.
                self.disarm()
                raise
            return
        self.events.append(event)

    # -- log helpers ---------------------------------------------------------

    def clears(self) -> list[FaultEvent]:
        return [e for e in self.events
                if e.action == "clear" and not e.error]

    def describe_log(self) -> str:
        return "\n".join(e.describe() for e in self.events)
