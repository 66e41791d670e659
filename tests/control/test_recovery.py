"""Tests for the fleet monitoring/automated recovery system."""

import random

from repro.control import RecoverySystem
from repro.dnscore import parse_zone_text
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import EventLoop
from repro.server import (
    AuthoritativeEngine,
    MachineConfig,
    NameserverMachine,
    ZoneStore,
)

ZONE = """\
$ORIGIN r.example.
$TTL 300
@ IN SOA ns1.r.example. admin.r.example. 1 2 3 4 300
@ IN NS ns1.r.example.
"""


def make_fleet(loop, count):
    machines = []
    for i in range(count):
        store = ZoneStore()
        store.add(parse_zone_text(ZONE))
        machines.append(NameserverMachine(
            loop, f"m{i}", AuthoritativeEngine(store), ScoringPipeline([]),
            QueuePolicy(),
            MachineConfig(staleness_threshold=float("inf"),
                          restart_delay=1e9)))
    return machines


class TestRecoverySystem:
    def test_healthy_fleet_no_alerts(self):
        loop = EventLoop()
        recovery = RecoverySystem(loop)
        for machine in make_fleet(loop, 8):
            recovery.register(machine)
        loop.run_until(60.0)
        assert not recovery.alerts
        assert recovery.latest.unavailable_fraction == 0.0

    def test_alert_on_widespread_failure(self):
        loop = EventLoop()
        recovery = RecoverySystem(loop)
        fleet = make_fleet(loop, 8)
        for machine in fleet:
            recovery.register(machine)
        loop.run_until(10.0)
        for machine in fleet[:4]:
            machine.crash()
        loop.run_until(20.0)
        assert recovery.alerts
        assert "50%" in recovery.alerts[0].summary
        assert recovery.latest.unavailable_fraction == 0.5

    def test_snapshot_counts_states(self):
        loop = EventLoop()
        recovery = RecoverySystem(loop)
        fleet = make_fleet(loop, 6)
        for machine in fleet:
            recovery.register(machine)
        fleet[0].crash()
        fleet[1].suspend()
        loop.run_until(6.0)
        snap = recovery.latest
        assert snap.crashed == 1
        assert snap.suspended == 1
        assert snap.running == 4
