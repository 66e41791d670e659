"""Rollback vs. the suspension quorum: denied machines are not stranded.

The quorum coordinator bounds how many machines may self-suspend at
once (section 4.2.1). A canary that is serving a corrupt zone *and*
denied a suspension slot keeps answering — so the rollout train's
rollback is its only remedy, and metadata delivery must reach machines
regardless of their suspension state.
"""

import random

from repro.control.consensus import QuorumSuspensionCoordinator
from repro.control.pubsub import CDN_CHANNEL, MetadataBus
from repro.control.rollout import RolloutCoordinator, RolloutParams
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

ORIGIN = name("q.example")


class StubSpeaker:
    def withdraw_all(self):
        pass

    def advertise_all(self):
        pass


def zone_v(serial, *, with_www=True):
    z = make_zone(ORIGIN,
                  SOA(name("ns1.q.example"), name("admin.q.example"),
                      serial, 7200, 3600, 1209600, 300),
                  [name("ns1.akam.net")])
    if with_www:
        z.add_rrset(make_rrset(name("www.q.example"), RType.A, 300,
                               [A("10.0.0.1")]))
    return z


class World:
    def __init__(self):
        self.loop = EventLoop()
        self.bus = MetadataBus(self.loop, random.Random(11))
        self.quorum = QuorumSuspensionCoordinator(self.loop,
                                                  max_concurrent=2)
        self.machines = []
        self.agents = []
        baseline = zone_v(1)
        for i in range(5):
            machine = NameserverMachine(
                self.loop, f"q{i}", AuthoritativeEngine(ZoneStore()),
                ScoringPipeline([]), QueuePolicy(),
                MachineConfig(zone_guard_enabled=True,
                              staleness_threshold=float("inf")))
            machine.metadata_handlers["zone"] = machine.handle_zone_update
            machine.install_zone(baseline)
            self.bus.subscribe(CDN_CHANNEL, machine)
            self.machines.append(machine)
            self.agents.append(MonitoringAgent(
                self.loop, machine, StubSpeaker(),
                coordinator=self.quorum))
        self.canaries = self.machines[:2]
        self.rest = self.machines[2:]
        self.rollout = RolloutCoordinator(
            self.loop, self.bus, canaries=self.canaries,
            fleet=self.machines,
            params=RolloutParams(soak_seconds=30.0, check_period=1.0))
        self.rollout.set_baseline(baseline)

    def serial(self, machine):
        return machine.engine.store.get(ORIGIN).serial


def test_rollback_lands_despite_active_quorum_denial():
    world = World()

    # Two fleet machines go sick first and win both suspension slots.
    def fill_quorum():
        for machine in world.rest[:2]:
            machine.set_fault("wrong_answer")
    world.loop.call_later(0.2, fill_quorum)

    # The canaries then go sick while a corrupt (but semantically
    # valid) release is in flight: their suspension requests must be
    # denied for the rest of the run.
    def corrupt_canaries():
        for machine in world.canaries:
            machine.set_fault("wrong_answer")
    world.loop.call_later(2.5, corrupt_canaries)
    world.loop.call_later(
        3.0, lambda: world.rollout.publish(zone_v(2, with_www=False)))

    world.loop.run_until(200.0)

    # The slots really were exhausted by the first two machines...
    assert [m.state for m in world.rest[:2]] == \
        [MachineState.SUSPENDED] * 2
    # ...and the canaries were denied, repeatedly, yet kept running.
    denied = [a.metrics.suspensions_denied for a in world.agents[:2]]
    assert all(d > 0 for d in denied)
    assert all(a.metrics.suspensions == 0 for a in world.agents[:2])
    assert all(m.state == MachineState.RUNNING for m in world.canaries)

    # The gate tripped and the rollback reached every canary: nobody
    # is stranded on the corrupt serial, no matter how the corrupt
    # delivery and the rollback interleaved on the versioned bus.
    assert world.rollout.rollbacks == 1
    assert all(world.serial(m) == 1 for m in world.machines)
    assert all(m.metrics.zone_rollbacks == 1 for m in world.canaries)


def test_suspended_machines_still_receive_emergency_rollback():
    world = World()
    sick = world.rest[0]
    sick.set_fault("wrong_answer")
    world.loop.run_until(5.0)
    assert sick.state == MachineState.SUSPENDED

    # Emergency fleet-wide republish (corruption found post-promotion):
    # self-suspension only withdraws BGP, the process keeps consuming
    # metadata, so the suspended machine converges too.
    assert world.rollout.rollback_origin(ORIGIN, reason="page")
    world.loop.run_until(60.0)
    assert all(m.metrics.zone_rollbacks == 1 for m in world.machines)
    assert world.serial(sick) == 1
