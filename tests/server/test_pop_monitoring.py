"""Tests for PoP ECMP/origination and the monitoring agent."""

import random
import zlib

import pytest

from repro.control.consensus import QuorumSuspensionCoordinator
from repro.dnscore import RType, make_query, name, parse_zone_text
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import (
    Datagram,
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
    QueryEnvelope,
    ZoneStore,
    ecmp_hash,
)
from repro.server.monitoring import HealthReport

ZONE = """\
$ORIGIN p.example.
$TTL 300
@ IN SOA ns1.p.example. admin.p.example. 1 7200 3600 1209600 300
@ IN NS ns1.p.example.
www IN A 10.0.0.1
"""

PREFIX = "23.222.61.64"


@pytest.fixture
def world():
    rng = random.Random(21)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                              n_stub=24))
    pop_id = attach_pop(inet, rng)
    attach_host(inet, rng, host_id="client-0")
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    pop = PoP(loop, net, pop_id)
    return loop, net, pop


def add_machine(loop, pop, machine_id, med=0,
                config=None) -> tuple[NameserverMachine, MachineBGPSpeaker]:
    store = ZoneStore()
    store.add(parse_zone_text(ZONE))
    machine = NameserverMachine(
        loop, machine_id, AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(),
        config or MachineConfig(staleness_threshold=float("inf")))
    pop.add_machine(machine)
    speaker = MachineBGPSpeaker(pop, machine_id, [PREFIX], med=med)
    return machine, speaker


def send_query(loop, net, port, msg_id=1):
    q = make_query(msg_id, name("www.p.example"), RType.A)
    net.send(Datagram(src="client-0", dst=PREFIX,
                      payload=QueryEnvelope(q), src_port=port))


class TestPoPOrigination:
    def test_advertises_when_first_machine_appears(self, world):
        loop, net, pop = world
        _, speaker = add_machine(loop, pop, "m1")
        speaker.advertise_all()
        assert pop.advertises(PREFIX)
        assert net.speaker(pop.router_id).best_route(PREFIX) is not None

    def test_withdraws_when_last_machine_leaves(self, world):
        loop, net, pop = world
        _, s1 = add_machine(loop, pop, "m1")
        _, s2 = add_machine(loop, pop, "m2")
        s1.advertise_all()
        s2.advertise_all()
        s1.withdraw_all()
        assert pop.advertises(PREFIX)
        s2.withdraw_all()
        assert not pop.advertises(PREFIX)
        assert net.speaker(pop.router_id).best_route(PREFIX) is None

    def test_med_keeps_input_delayed_out_of_ecmp(self, world):
        loop, net, pop = world
        _, s_regular = add_machine(loop, pop, "m-reg", med=0)
        _, s_delayed = add_machine(loop, pop, "m-del", med=100)
        s_regular.advertise_all()
        s_delayed.advertise_all()
        assert pop.ecmp_set(PREFIX) == ["m-reg"]
        # Regular machine withdraws: router falls back to high-MED.
        s_regular.withdraw_all()
        assert pop.ecmp_set(PREFIX) == ["m-del"]

    def test_ecmp_spreads_random_ports(self, world):
        loop, net, pop = world
        machines = []
        for i in range(4):
            m, s = add_machine(loop, pop, f"m{i}")
            s.advertise_all()
            machines.append(m)
        loop.run_until(30)
        for i in range(200):
            send_query(loop, net, port=1024 + i * 7, msg_id=i)
        loop.run_until(40)
        received = [m.metrics.received for m in machines]
        assert sum(received) == 200
        assert all(count > 20 for count in received)

    def test_fixed_port_pins_one_machine(self, world):
        loop, net, pop = world
        machines = []
        for i in range(4):
            m, s = add_machine(loop, pop, f"m{i}")
            s.advertise_all()
            machines.append(m)
        loop.run_until(30)
        for i in range(50):
            send_query(loop, net, port=5353, msg_id=i)
        loop.run_until(40)
        received = [m.metrics.received for m in machines]
        assert sorted(received) == [0, 0, 0, 50]

    def test_ecmp_hash_deterministic(self):
        key = ("1.2.3.4", 5353, "5.6.7.8", 53)
        assert ecmp_hash(key) == ecmp_hash(key)
        assert ecmp_hash(key) != ecmp_hash(("1.2.3.4", 5354, "5.6.7.8", 53))

    def test_each_flow_lands_where_ecmp_hash_places_it(self, world):
        """The PoP spells the key out per packet; the gray-failure
        prober predicts placement with ``ecmp_hash``. They must agree."""
        loop, net, pop = world
        machines = {}
        for i in range(4):
            m, s = add_machine(loop, pop, f"m{i}")
            s.advertise_all()
            machines[m.machine_id] = m
        loop.run_until(30)
        ecmp = pop.ecmp_set(PREFIX)
        expected = dict.fromkeys(machines, 0)
        for port in range(5000, 5040):
            send_query(loop, net, port=port, msg_id=port)
            expected[ecmp[ecmp_hash(("client-0", port, PREFIX, 53))
                          % len(ecmp)]] += 1
        loop.run_until(40)
        assert {m: machine.metrics.received
                for m, machine in machines.items()} == expected
        assert len([n for n in expected.values() if n]) > 1

    def test_ecmp_hash_is_crc32_of_the_joined_tuple(self):
        """Machine placement of every flow depends on these exact bytes."""
        for key in (("1.2.3.4", 5353, "5.6.7.8", 53),
                    ("2001:db8::1", 0, "2001:db8:53::", 65535),
                    ("host-a", 40000, "acast", 53)):
            assert ecmp_hash(key) == zlib.crc32(
                "|".join(map(str, key)).encode("ascii"))


class TestMonitoringAgent:
    def test_detects_fault_and_self_suspends(self, world):
        loop, net, pop = world
        machine, speaker = add_machine(loop, pop, "m1")
        agent = MonitoringAgent(
            loop, machine, speaker,
            coordinator=QuorumSuspensionCoordinator(loop))
        speaker.advertise_all()
        loop.run_until(5)
        machine.set_fault("wrong_answer")
        loop.run_until(8)
        assert machine.state == MachineState.SUSPENDED
        assert not pop.advertises(PREFIX)
        assert agent.metrics.suspensions == 1

    def test_resumes_after_recovery(self, world):
        loop, net, pop = world
        machine, speaker = add_machine(loop, pop, "m1")
        agent = MonitoringAgent(
            loop, machine, speaker,
            coordinator=QuorumSuspensionCoordinator(loop))
        speaker.advertise_all()
        loop.run_until(5)
        machine.set_fault("unresponsive")
        loop.run_until(8)
        machine.set_fault(None)
        loop.run_until(12)
        assert machine.state == MachineState.RUNNING
        assert pop.advertises(PREFIX)
        assert agent.metrics.resumptions == 1

    def test_crash_withdraws_and_readvertises(self, world):
        loop, net, pop = world
        machine, speaker = add_machine(
            loop, pop, "m1",
            config=MachineConfig(restart_delay=3.0,
                                 staleness_threshold=float("inf")))
        MonitoringAgent(loop, machine, speaker)
        speaker.advertise_all()
        loop.run_until(5)
        machine.crash()
        assert not pop.advertises(PREFIX)
        loop.run_until(15)
        assert machine.state == MachineState.RUNNING
        assert pop.advertises(PREFIX)

    def test_coordinator_denial_prevents_suspension(self, world):
        loop, net, pop = world
        machine, speaker = add_machine(loop, pop, "m1")

        class Deny:
            def suspend(self, machine, speaker):
                return False

            def resume(self, machine, speaker):
                pass

            def release_suspension(self, machine_id):
                pass

            def renew(self, machine_id):
                return False

        agent = MonitoringAgent(loop, machine, speaker,
                                coordinator=Deny())
        speaker.advertise_all()
        loop.run_until(5)
        machine.set_fault("wrong_answer")
        loop.run_until(10)
        # Denied: keeps serving in a degraded state.
        assert machine.state == MachineState.RUNNING
        assert pop.advertises(PREFIX)
        assert agent.metrics.suspensions_denied > 0

    def test_staleness_triggers_suspension(self, world):
        loop, net, pop = world
        machine, speaker = add_machine(
            loop, pop, "m1",
            config=MachineConfig(staleness_threshold=10.0))
        MonitoringAgent(loop, machine, speaker,
                        coordinator=QuorumSuspensionCoordinator(loop))
        speaker.advertise_all()
        machine.receive_metadata(0.0)
        loop.run_until(5)
        assert machine.state == MachineState.RUNNING
        loop.run_until(20)
        assert machine.state == MachineState.SUSPENDED
        # Metadata returns: agent resumes the machine.
        machine.receive_metadata(loop.now)
        loop.run_until(25)
        assert machine.state == MachineState.RUNNING

    def test_regression_tests_run(self, world):
        loop, net, pop = world
        machine, speaker = add_machine(loop, pop, "m1")
        failures = {"fail": False}
        MonitoringAgent(
            loop, machine, speaker,
            coordinator=QuorumSuspensionCoordinator(loop),
            regression_tests=[lambda m: not failures["fail"]])
        speaker.advertise_all()
        loop.run_until(3)
        assert machine.state == MachineState.RUNNING
        failures["fail"] = True
        loop.run_until(6)
        assert machine.state == MachineState.SUSPENDED

    def test_without_coordinator_never_self_suspends(self, world):
        # Input-delayed machines run an agent with no coordinator: it
        # keeps testing but never takes the machine out of service.
        loop, net, pop = world
        machine, speaker = add_machine(loop, pop, "m1")
        agent = MonitoringAgent(loop, machine, speaker)
        speaker.advertise_all()
        loop.run_until(5)
        machine.set_fault("wrong_answer")
        loop.run_until(30)
        assert machine.state == MachineState.RUNNING
        assert pop.advertises(PREFIX)
        assert agent.metrics.checks_run >= 10
        assert (agent.metrics.suspensions,
                agent.metrics.suspensions_denied) == (0, 0)

    def test_suspension_lease_renewed_while_held(self, world):
        loop, net, pop = world
        coordinator = QuorumSuspensionCoordinator(loop, max_concurrent=1)
        machine, speaker = add_machine(loop, pop, "m1")
        MonitoringAgent(loop, machine, speaker,
                        coordinator=coordinator)
        speaker.advertise_all()
        loop.run_until(3)
        machine.set_fault("wrong_answer")
        loop.run_until(6)
        assert machine.state == MachineState.SUSPENDED
        # Hold the fault far past the 300 s lease: the agent's renewals
        # must keep the slot occupied so no second machine could claim it.
        loop.run_until(1_000)
        assert "m1" in coordinator.active_suspensions()
        assert not coordinator.request_suspension("intruder")


class TestHealthReportImmutability:
    """The all-clear report is a shared singleton; it must be un-poisonable."""

    def test_report_fields_are_frozen(self, world):
        loop, net, pop = world
        machine, speaker = add_machine(loop, pop, "m1")
        agent = MonitoringAgent(loop, machine, speaker)
        loop.run_until(2)
        report = agent.run_suite()
        assert report.healthy
        with pytest.raises(AttributeError):
            report.healthy = False
        with pytest.raises(AttributeError):
            report.reasons = ("poisoned",)

    def test_reasons_are_a_tuple_even_when_built_from_a_list(self):
        report = HealthReport(False, ["bad answer"])
        assert report.reasons == ("bad answer",)
        with pytest.raises(AttributeError):
            report.reasons.append("more")  # tuples have no append

    def test_mutation_attempt_cannot_poison_later_cycles(self, world):
        # A consumer holding the shared all-clear report and trying to
        # flip it must fail — and every subsequent suite run (on this
        # agent and any other) must still see a genuinely healthy
        # report, not a poisoned singleton.
        loop, net, pop = world
        machine, speaker = add_machine(loop, pop, "m1")
        agent = MonitoringAgent(loop, machine, speaker)
        other_machine, other_speaker = add_machine(loop, pop, "m2")
        other_agent = MonitoringAgent(loop, other_machine, other_speaker)
        loop.run_until(2)
        report = agent.run_suite()
        with pytest.raises(AttributeError):
            report.healthy = False
        assert agent.run_suite().healthy
        assert other_agent.run_suite().healthy
        loop.run_until(6)
        assert machine.state == MachineState.RUNNING
        assert other_machine.state == MachineState.RUNNING
