"""Recovery-system edge cases under chaos-scale failures.

Chaos campaigns crash more machines than the suspension budget covers
and can take an entire fleet down at once; the monitoring/recovery
machinery must degrade into alerts, never into deadlocks, leaked
suspension leases, or arithmetic errors.
"""

import random

import pytest

from repro.control import RecoverySystem
from repro.control.consensus import QuorumSuspensionCoordinator
from repro.dnscore import parse_zone_text
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import (
    EventLoop,
    InternetParams,
    Network,
    attach_host,
    attach_pop,
    build_internet,
)
from repro.server import (
    AuthoritativeEngine,
    MachineBGPSpeaker,
    MachineConfig,
    MachineState,
    MonitoringAgent,
    NameserverMachine,
    PoP,
    ZoneStore,
)

ZONE = """\
$ORIGIN re.example.
$TTL 300
@ IN SOA ns1.re.example. admin.re.example. 1 2 3 4 300
@ IN NS ns1.re.example.
"""

PREFIX = "23.222.61.64"


def make_machine(loop, machine_id, *, restart_delay=1e9):
    store = ZoneStore()
    store.add(parse_zone_text(ZONE))
    return NameserverMachine(
        loop, machine_id, AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(),
        MachineConfig(staleness_threshold=float("inf"),
                      restart_delay=restart_delay))


@pytest.fixture
def pop_world():
    rng = random.Random(7)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                              n_stub=24))
    pop_id = attach_pop(inet, rng)
    attach_host(inet, rng, host_id="client-0")
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    pop = PoP(loop, net, pop_id)
    return loop, net, pop


def agented_machine(loop, pop, machine_id, coordinator, *,
                    restart_delay=1e9):
    machine = make_machine(loop, machine_id, restart_delay=restart_delay)
    pop.add_machine(machine)
    speaker = MachineBGPSpeaker(pop, machine_id, [PREFIX])
    agent = MonitoringAgent(loop, machine, speaker,
                            coordinator=coordinator)
    speaker.advertise_all()
    return machine, speaker, agent


class TestFleetEdgeCases:
    def test_all_crashed_fleet_still_alerts(self):
        loop = EventLoop()
        recovery = RecoverySystem(loop)
        fleet = [make_machine(loop, f"m{i}") for i in range(4)]
        for machine in fleet:
            recovery.register(machine)
        for machine in fleet:
            machine.crash()
        loop.run_until(10.0)
        assert recovery.latest.unavailable_fraction == 1.0
        assert recovery.alerts
        assert "100%" in recovery.alerts[0].summary

    def test_empty_fleet_samples_without_dividing_by_zero(self):
        loop = EventLoop()
        recovery = RecoverySystem(loop)
        loop.run_until(20.0)
        assert recovery.latest.unavailable_fraction == 0.0
        assert not recovery.alerts


class TestSuspensionBudgetUnderChaos:
    def test_crash_releases_suspension_lease(self, pop_world):
        # A machine that crashes while self-suspended must free its
        # slot; otherwise every crash-looping machine leaks one lease
        # and healthy machines that need to suspend get denied forever.
        loop, net, pop = pop_world
        coordinator = QuorumSuspensionCoordinator(loop, max_concurrent=1)
        m1, _, _ = agented_machine(loop, pop, "m1", coordinator)
        m2, _, _ = agented_machine(loop, pop, "m2", coordinator)

        m1.fault = "wrong_answer"
        loop.run_until(5.0)
        assert m1.state == MachineState.SUSPENDED
        assert coordinator.active_suspensions() == {"m1"}

        m1.crash()
        assert coordinator.active_suspensions() == set()

        m2.fault = "wrong_answer"
        loop.run_until(10.0)
        assert m2.state == MachineState.SUSPENDED
        assert coordinator.active_suspensions() == {"m2"}

    def test_crashes_beyond_budget_do_not_deadlock(self, pop_world):
        # Crash 4 machines with a budget of 1: the crash path bypasses
        # the coordinator entirely (withdrawal protects clients), so
        # nothing queues on the budget and every machine restarts and
        # re-advertises.
        loop, net, pop = pop_world
        coordinator = QuorumSuspensionCoordinator(loop, max_concurrent=1)
        machines = [
            agented_machine(loop, pop, f"m{i}", coordinator,
                            restart_delay=5.0)[0]
            for i in range(4)
        ]
        loop.run_until(3.0)
        for machine in machines:
            machine.crash()
        assert not pop.advertises(PREFIX)

        loop.run_until(20.0)
        assert all(m.state == MachineState.RUNNING for m in machines)
        assert pop.advertises(PREFIX)
        assert coordinator.active_suspensions() == set()

    def test_denied_machines_keep_serving_then_suspend_in_turn(
            self, pop_world):
        # More failing machines than budget: the overflow machine is
        # denied and keeps serving (degraded beats dark); when a slot
        # frees, it suspends on a later agent cycle.
        loop, net, pop = pop_world
        coordinator = QuorumSuspensionCoordinator(loop, max_concurrent=1)
        m1, _, a1 = agented_machine(loop, pop, "m1", coordinator)
        m2, _, a2 = agented_machine(loop, pop, "m2", coordinator)

        m1.fault = "wrong_answer"
        m2.fault = "wrong_answer"
        loop.run_until(6.0)
        states = {m1.state, m2.state}
        assert states == {MachineState.SUSPENDED, MachineState.RUNNING}
        assert a1.metrics.suspensions_denied + \
            a2.metrics.suspensions_denied > 0
        assert pop.advertises(PREFIX)

        # The suspended one heals and releases; the other takes the slot.
        suspended, denied = (m1, m2) if m1.state == MachineState.SUSPENDED \
            else (m2, m1)
        suspended.fault = None
        loop.run_until(12.0)
        assert suspended.state == MachineState.RUNNING
        assert denied.state == MachineState.SUSPENDED
        assert coordinator.active_suspensions() == {denied.machine_id}
