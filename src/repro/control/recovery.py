"""Platform-wide monitoring, alerting, and automated recovery.

Models the Monitoring/Automated Recovery component of paper Figure 5: it
samples the health of every machine, keeps the newest fleet sample and
raises alerts for the NOCC when too much of the fleet is down (human
timescale). The quorum
coordinator that bounds concurrent self-suspensions (machine timescale,
section 4.2.1) is :mod:`repro.control.consensus`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.clock import EventLoop, PeriodicTask
from ..server.machine import MachineState, NameserverMachine


#: Seconds between fleet-health samples.
SAMPLE_PERIOD = 5.0
#: Share of the fleet not running at which the NOCC is alerted.
ALERT_UNAVAILABLE_FRACTION = 0.25


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

    @property
    def unavailable_fraction(self) -> float:
        return 0.0 if not self.total else 1 - self.running / self.total


class RecoverySystem:
    """Aggregation and alerting."""

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self.machines: list[NameserverMachine] = []
        #: The newest sample; None before the first.
        self.latest: FleetSnapshot | None = None
        self.alerts: list[Alert] = []
        self._task = PeriodicTask(loop, SAMPLE_PERIOD, self.sample,
                                  start_delay=SAMPLE_PERIOD)

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
        )
        self.latest = snapshot
        if snapshot.unavailable_fraction >= ALERT_UNAVAILABLE_FRACTION:
            self.alerts.append(Alert(
                now, "critical",
                f"{snapshot.unavailable_fraction:.0%} of fleet unavailable "
                f"({snapshot.crashed} crashed, {snapshot.suspended} "
                f"suspended)"))
        return snapshot
