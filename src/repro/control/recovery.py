"""Platform-wide monitoring, alerting, and automated recovery.

Models the Monitoring/Automated Recovery component of paper Figure 5: it
aggregates health reports from every machine, tracks trends, raises
alerts for the NOCC when anomalies persist (human timescale), and hosts
the quorum coordinator that bounds concurrent self-suspensions (machine
timescale, section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.clock import EventLoop, PeriodicTask
from ..server.machine import MachineState, NameserverMachine
from .consensus import QuorumSuspensionCoordinator


@dataclass(slots=True)
class Alert:
    """One operator-facing alert."""

    time: float
    severity: str
    summary: str


@dataclass(slots=True)
class FleetSnapshot:
    """Aggregated fleet health at one sampling instant."""

    time: float
    total: int
    running: int
    suspended: int
    crashed: int
    stale: int

    @property
    def unavailable_fraction(self) -> float:
        return 0.0 if not self.total else 1 - self.running / self.total


class RecoverySystem:
    """Aggregation, alerting, and the suspension coordinator."""

    def __init__(self, loop: EventLoop, *,
                 coordinator: QuorumSuspensionCoordinator | None = None,
                 sample_period: float = 5.0,
                 alert_unavailable_fraction: float = 0.25) -> None:
        self.loop = loop
        self.coordinator = coordinator or QuorumSuspensionCoordinator(loop)
        self.alert_threshold = alert_unavailable_fraction
        self.machines: list[NameserverMachine] = []
        self.history: list[FleetSnapshot] = []
        self.alerts: list[Alert] = []
        self._task = PeriodicTask(loop, sample_period, self.sample,
                                  start_delay=sample_period)

    def register(self, machine: NameserverMachine) -> None:
        self.machines.append(machine)

    def sample(self) -> FleetSnapshot:
        """Take one fleet-health sample; raise an alert if degraded."""
        now = self.loop.now
        snapshot = FleetSnapshot(
            time=now,
            total=len(self.machines),
            running=sum(m.state == MachineState.RUNNING
                        for m in self.machines),
            suspended=sum(m.state == MachineState.SUSPENDED
                          for m in self.machines),
            crashed=sum(m.state == MachineState.CRASHED
                        for m in self.machines),
            stale=sum(m.is_stale(now) for m in self.machines),
        )
        self.history.append(snapshot)
        if snapshot.unavailable_fraction >= self.alert_threshold:
            self.alerts.append(Alert(
                now, "critical",
                f"{snapshot.unavailable_fraction:.0%} of fleet unavailable "
                f"({snapshot.crashed} crashed, {snapshot.suspended} "
                f"suspended)"))
        return snapshot
