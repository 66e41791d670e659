"""The on-machine monitoring agent (paper sections 3.2 and 4.2.1).

Every nameserver machine carries an agent that continually runs a test
suite against the nameserver — a DNS query per hosted zone (the
paper's suite adds regression probes for known failure cases, which
this model has none of) — and checks metadata staleness. On failure
the agent *self-suspends* the machine: it instructs the co-resident BGP
speaker to withdraw the anycast advertisements, shifting traffic to
healthy machines (or, transitively, to other PoPs). Self-suspension is
gated by the platform-wide recovery coordinator so a bad input or a
buggy agent cannot suspend the fleet wholesale (section 4.2.1's
consensus limit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..dnscore.message import make_query
from ..dnscore.rrtypes import RCode, RType
from ..netsim.clock import EventLoop, PeriodicTask
from ..telemetry import state as _telemetry
from .machine import MachineState, NameserverMachine
from .speaker import MachineBGPSpeaker


class SuspensionCoordinator(Protocol):
    """Platform service bounding concurrent self-suspensions."""

    def suspend(self, machine: NameserverMachine,
                speaker: MachineBGPSpeaker) -> bool:
        """Suspend and withdraw under a lease; False if denied."""

    def resume(self, machine: NameserverMachine,
               speaker: MachineBGPSpeaker) -> None:
        """Resume and re-advertise, then free the lease."""

    def release_suspension(self, machine_id: str) -> None:
        """Free the machine's slot without resuming it (a crash)."""

    def renew(self, machine_id: str) -> bool:
        """Extend the machine's lease; False if it holds none."""


@dataclass(slots=True)
class AgentMetrics:
    """Counters for one agent."""

    checks_run: int = 0
    suspensions: int = 0
    resumptions: int = 0
    suspensions_denied: int = 0


#: Seconds between an agent's runs of its test suite.
PERIOD = 2.0
#: Hosted zones one run probes; a machine hosting more is covered by
#: rotation over successive runs.
MAX_PROBE_ZONES = 8


@dataclass(frozen=True, slots=True)
class HealthReport:
    """Outcome of one test-suite run.

    Frozen because the all-clear report is a shared singleton
    (``MonitoringAgent._HEALTHY``): a consumer that mutated it would
    poison every later cycle of every agent in the deployment.
    ``reasons`` is likewise coerced to a tuple so the sequence cannot be
    extended in place.
    """

    healthy: bool
    reasons: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.reasons, tuple):
            object.__setattr__(self, "reasons", tuple(self.reasons))


class MonitoringAgent:
    """Continuous health testing plus self-suspension logic."""

    def __init__(self, loop: EventLoop, machine: NameserverMachine,
                 speaker: MachineBGPSpeaker, *,
                 coordinator: SuspensionCoordinator | None = None) -> None:
        self.loop = loop
        self.machine = machine
        self.speaker = speaker
        #: Bounds this agent's self-suspensions; without one the agent
        #: never self-suspends (input-delayed machines).
        self.coordinator = coordinator
        self._probe_offset = 0
        #: Reused probe message per origin; only msg_id changes between
        #: cycles, so the agent avoids rebuilding an identical query
        #: every second for every hosted zone.
        self._probe_cache: dict = {}
        self.metrics = AgentMetrics()
        self._suspended_by_agent = False
        self._withdrew_for_crash = False
        self._msg_id = 0
        machine.crash_listeners.append(self._on_crash)
        self._task = PeriodicTask(loop, PERIOD, self.run_check,
                                  start_delay=PERIOD)

    def stop(self) -> None:
        self._task.stop()

    # -- crash path -------------------------------------------------------------

    def _on_crash(self, machine: NameserverMachine) -> None:
        """Immediate reaction to a detected crash: withdraw advertisements."""
        self.speaker.withdraw_all()
        self._withdrew_for_crash = True
        if self._suspended_by_agent:
            # A machine that crashes while self-suspended must not keep
            # renewing its lease: the platform-wide suspension budget
            # would leak a slot per crash-looping machine until healthy
            # machines that *need* to suspend are denied. The crash
            # withdrawal already protects clients, so free the slot.
            self._suspended_by_agent = False
            self.coordinator.release_suspension(machine.machine_id)

    # -- periodic test suite -------------------------------------------------------

    #: Shared all-clear report: the overwhelmingly common outcome, so
    #: the per-cycle dataclass allocation is skipped. Safe to share
    #: because HealthReport is frozen.
    _HEALTHY = HealthReport(True)

    def run_suite(self) -> HealthReport:
        """Run the full test suite once and report."""
        machine = self.machine
        reasons: list[str] | None = None
        if machine.state == MachineState.CRASHED:
            return HealthReport(False, ["nameserver process down"])
        if machine.is_stale(self.loop.now):
            reasons = ["critical inputs stale"]
        # origins_view() shares one sorted tuple across cycles — the
        # suite runs every few simulated seconds on every machine, so a
        # fresh list copy per cycle is measurable.
        origins = machine.engine.store.origins_view()
        if len(origins) > MAX_PROBE_ZONES:
            # Rotate through the zone list so every zone is probed over
            # successive cycles without making single cycles expensive.
            start = self._probe_offset % len(origins)
            self._probe_offset += MAX_PROBE_ZONES
            origins = (origins * 2)[start:start + MAX_PROBE_ZONES]
        msg_id = self._msg_id
        probe_cache = self._probe_cache
        health_probe = machine.health_probe
        for origin in origins:
            msg_id = (msg_id + 1) & 0xFFFF
            probe = probe_cache.get(origin)
            if probe is None:
                probe = make_query(msg_id, origin, RType.SOA)
                probe_cache[origin] = probe
            else:
                probe.msg_id = msg_id
            response = health_probe(probe)
            if response is None:
                if reasons is None:
                    reasons = []
                reasons.append(f"no response for {origin}")
                break
            if response.flags.rcode != RCode.NOERROR or not response.answers:
                if reasons is None:
                    reasons = []
                reasons.append(f"bad answer for {origin}")
        self._msg_id = msg_id
        if reasons is None:
            return self._HEALTHY
        return HealthReport(False, reasons)

    def run_check(self) -> None:
        """One periodic agent cycle."""
        self.metrics.checks_run += 1
        machine = self.machine
        if self._suspended_by_agent:
            # Keep the suspension lease alive while we hold the slot, so
            # the platform-wide concurrency bound stays accurate.
            self.coordinator.renew(machine.machine_id)
        if machine.state == MachineState.CRASHED:
            if not self._withdrew_for_crash:
                self._on_crash(machine)
            return
        report = self.run_suite()
        verdict = "healthy" if report.healthy else "unhealthy"
        _telemetry.record("agent_checks_total", (machine.machine_id, verdict))
        if not report.healthy:
            self._handle_unhealthy()
        else:
            self._handle_healthy()

    def _handle_unhealthy(self) -> None:
        if self._suspended_by_agent or self.coordinator is None:
            return
        if not self.coordinator.suspend(self.machine, self.speaker):
            self.metrics.suspensions_denied += 1
            _telemetry.record("machine_lifecycle_total",
                              (self.machine.machine_id, "denied"))
            return
        self._suspended_by_agent = True
        self.metrics.suspensions += 1

    def _handle_healthy(self) -> None:
        if self._suspended_by_agent:
            self.coordinator.resume(self.machine, self.speaker)
            self._suspended_by_agent = False
            self.metrics.resumptions += 1
        elif self._withdrew_for_crash:
            # Recovered from a crash: resume advertising.
            self.speaker.advertise_all()
            self._withdrew_for_crash = False
