"""Quorum suspension boundary exactness and lease interleavings.

The coordinator's one job is a hard capacity bound: never let more
than ``max_concurrent`` machines hold a suspension lease at once
(section 4.2.1's consensus limit). These tests pin the boundary
exactly — granted *at* the threshold, denied one past it — and
interleave the two request populations that now share the budget:
agent-driven suspensions (a machine's own failing health suite) and
verdict-driven ones (the external gray-failure prober).
"""

from repro.control.consensus import QuorumSuspensionCoordinator
from repro.dnscore import A, RType, SOA, make_rrset, make_zone, name
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import EventLoop
from repro.server import (
    AuthoritativeEngine,
    MachineConfig,
    MachineState,
    NameserverMachine,
    ZoneStore,
)
from repro.server.monitoring import MonitoringAgent

ORIGIN = name("b.example")


class StubSpeaker:
    def __init__(self):
        self.advertised = True

    def withdraw_all(self):
        self.advertised = False

    def advertise_all(self):
        self.advertised = True


def baseline_zone():
    z = make_zone(ORIGIN,
                  SOA(name("ns1.b.example"), name("admin.b.example"),
                      1, 7200, 3600, 1209600, 300),
                  [name("ns1.akam.net")])
    z.add_rrset(make_rrset(name("www.b.example"), RType.A, 300,
                           [A("10.0.0.1")]))
    return z


def make_machine(loop, machine_id):
    machine = NameserverMachine(
        loop, machine_id, AuthoritativeEngine(ZoneStore()),
        ScoringPipeline([]), QueuePolicy(),
        MachineConfig(staleness_threshold=float("inf")))
    machine.install_zone(baseline_zone())
    return machine


class TestBoundaryExactness:
    def test_granted_at_exactly_the_threshold(self):
        loop = EventLoop()
        quorum = QuorumSuspensionCoordinator(loop, max_concurrent=3)
        assert all(quorum.request_suspension(f"m{i}") for i in range(3))
        assert quorum.active_suspensions() == {"m0", "m1", "m2"}
        assert quorum.denials == 0

    def test_denied_one_past_the_threshold(self):
        loop = EventLoop()
        quorum = QuorumSuspensionCoordinator(loop, max_concurrent=3)
        for i in range(3):
            assert quorum.request_suspension(f"m{i}")
        assert not quorum.request_suspension("m3")
        assert quorum.denials == 1
        assert quorum.active_suspensions() == {"m0", "m1", "m2"}

    def test_release_frees_exactly_one_slot(self):
        loop = EventLoop()
        quorum = QuorumSuspensionCoordinator(loop, max_concurrent=2)
        assert quorum.request_suspension("m0")
        assert quorum.request_suspension("m1")
        assert not quorum.request_suspension("m2")
        quorum.release_suspension("m0")
        assert quorum.request_suspension("m2")
        assert not quorum.request_suspension("m3")
        assert quorum.active_suspensions() == {"m1", "m2"}

    def test_regrant_to_current_holder_is_not_a_new_slot(self):
        loop = EventLoop()
        quorum = QuorumSuspensionCoordinator(loop, max_concurrent=1)
        assert quorum.request_suspension("m0")
        # Re-requesting an already-held lease must not double-count.
        assert quorum.request_suspension("m0")
        assert quorum.active_suspensions() == {"m0"}
        assert not quorum.request_suspension("m1")

    def test_expired_lease_frees_the_slot(self):
        loop = EventLoop()
        quorum = QuorumSuspensionCoordinator(loop, max_concurrent=1)
        assert quorum.request_suspension("m0")
        loop.run_until(299.0)
        assert not quorum.request_suspension("m1")
        loop.run_until(300.0)
        assert quorum.active_suspensions() == set()
        assert quorum.request_suspension("m1")


class TestInterleavedRequesters:
    """Agent-driven and verdict-driven suspensions share one budget."""

    def test_verdict_lease_counts_against_agent_budget(self):
        loop = EventLoop()
        quorum = QuorumSuspensionCoordinator(loop, max_concurrent=2)
        machines = [make_machine(loop, f"m{i}") for i in range(3)]
        agents = [MonitoringAgent(loop, machine, StubSpeaker(),
                                  coordinator=quorum)
                  for machine in machines]

        # The external prober convicts an (unnamed here) machine and
        # takes a verdict-driven lease: one of the two slots is gone.
        assert quorum.request_suspension("gray-victim")

        # Two agents then find their machines unhealthy; only one slot
        # remains, so exactly one self-suspends and one is denied.
        machines[0].set_fault("wrong_answer")
        machines[1].set_fault("wrong_answer")
        loop.run_until(3.0)
        assert [m.state for m in machines[:2]].count(
            MachineState.SUSPENDED) == 1
        denied_agent = next(a for a in agents[:2]
                            if a.metrics.suspensions_denied)
        assert denied_agent.metrics.suspensions_denied >= 1
        assert len(quorum.active_suspensions()) == 2

        # The verdict lease releases (probation rejoin elsewhere): the
        # denied agent's next cycle picks up the freed slot.
        quorum.release_suspension("gray-victim")
        loop.run_until(6.0)
        assert [m.state for m in machines[:2]].count(
            MachineState.SUSPENDED) == 2
        assert len(quorum.active_suspensions()) == 2

        # Faults heal: both resume and every slot is returned.
        machines[0].set_fault(None)
        machines[1].set_fault(None)
        loop.run_until(9.0)
        assert all(m.state is MachineState.RUNNING for m in machines)
        assert quorum.active_suspensions() == set()

    def test_crash_while_self_suspended_releases_the_lease(self):
        loop = EventLoop()
        quorum = QuorumSuspensionCoordinator(loop, max_concurrent=1)
        machine = make_machine(loop, "m0")
        agent = MonitoringAgent(loop, machine, StubSpeaker(),
                                coordinator=quorum)
        machine.set_fault("wrong_answer")
        loop.run_until(3.0)
        assert machine.state is MachineState.SUSPENDED
        assert quorum.active_suspensions() == {"m0"}

        # Crash while holding the lease: the slot must come back
        # immediately, not leak until lease expiry — another machine
        # with a genuine need can take it on its very next cycle.
        machine.crash()
        assert quorum.active_suspensions() == set()
        assert agent.metrics.suspensions == 1
        assert quorum.request_suspension("other-machine")
