"""The fault table's entries against a live (small) deployment."""

import pytest

from repro.chaos import (
    Campaign,
    ChaosEngine,
    FaultKind,
    FaultSpec,
    Schedule,
)
from repro.chaos.injectors import INJECTORS, attack_sources
from repro.dnscore import RCode, RType, name
from repro.netsim.builder import InternetParams
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.platform.deployment import METADATA_HEARTBEAT
from repro.server.machine import MachineState


def small_deployment(seed=5):
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=seed, n_pops=6, deployed_clouds=6, machines_per_pop=1,
        pops_per_cloud=2, n_edge_servers=6,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
        filters_enabled=False))
    deployment.provision_enterprise("ex", "ex.net",
                                    "www IN A 203.0.113.7\n")
    deployment.settle(30)
    return deployment


@pytest.fixture(scope="module")
def shared():
    """One deployment reused by read-mostly tests (faults cleared)."""
    return small_deployment()


def spec(kind, target, duration=10.0, severity=1.0):
    return FaultSpec(kind, target, Schedule.once(0.0, duration),
                     severity=severity)


def inject(engine, fault):
    INJECTORS[fault.kind](engine, fault, False)


def clear(engine, fault):
    INJECTORS[fault.kind](engine, fault, True)


class TestFaultTable:
    def test_every_kind_has_an_injector(self):
        assert set(INJECTORS) == set(FaultKind)

    def test_unknown_kind_rejected_at_arm(self, shared, monkeypatch):
        monkeypatch.delitem(INJECTORS, FaultKind.LINK_FLAP)
        engine = ChaosEngine(shared)
        campaign = Campaign("t", duration=10.0)
        campaign.add(spec(FaultKind.LINK_FLAP, "pop-0"))
        with pytest.raises(ValueError):
            engine.arm(campaign)

    def test_unknown_target_raises(self, shared):
        with pytest.raises(ValueError):
            inject(ChaosEngine(shared),
                   spec(FaultKind.MACHINE_CRASH, "no-such-pop"))


class TestNetsimEntries:
    def test_link_flap_downs_and_restores(self, shared):
        engine = ChaosEngine(shared)
        neighbor = shared.internet.topology.bgp_neighbors("pop-0")[0]
        fault = spec(FaultKind.LINK_FLAP, "pop-0")
        inject(engine, fault)
        assert not shared.network.link_is_up("pop-0", neighbor)
        clear(engine, fault)
        assert shared.network.link_is_up("pop-0", neighbor)

    def test_explicit_link_target(self, shared):
        engine = ChaosEngine(shared)
        neighbors = shared.internet.topology.bgp_neighbors("pop-1")
        fault = spec(FaultKind.LINK_FLAP, f"pop-1|{neighbors[0]}")
        inject(engine, fault)
        assert not shared.network.link_is_up("pop-1", neighbors[0])
        clear(engine, fault)

    def test_partition_downs_every_transit_link(self, shared):
        engine = ChaosEngine(shared)
        fault = spec(FaultKind.PARTITION, "pop-2")
        neighbors = shared.internet.topology.bgp_neighbors("pop-2")
        inject(engine, fault)
        assert all(not shared.network.link_is_up("pop-2", n)
                   for n in neighbors)
        clear(engine, fault)
        assert all(shared.network.link_is_up("pop-2", n)
                   for n in neighbors)

    def test_bgp_reset_keeps_links_up(self, shared):
        engine = ChaosEngine(shared)
        fault = spec(FaultKind.BGP_RESET, "pop-3")
        neighbors = shared.internet.topology.bgp_neighbors("pop-3")
        inject(engine, fault)
        speaker = shared.network.speaker("pop-3")
        assert all(not speaker.session_is_up(n) for n in neighbors)
        assert all(shared.network.link_is_up("pop-3", n)
                   for n in neighbors)
        clear(engine, fault)
        assert all(speaker.session_is_up(n) for n in neighbors)

    def test_link_degrade_severity_maps_to_loss(self, shared):
        engine = ChaosEngine(shared)
        neighbor = shared.internet.topology.bgp_neighbors("pop-4")[0]
        fault = spec(FaultKind.LINK_DEGRADE, "pop-4", severity=0.4)
        inject(engine, fault)
        loss, extra = shared.network.link_degradation("pop-4", neighbor)
        assert loss == pytest.approx(0.4)
        assert extra == pytest.approx(40.0)
        clear(engine, fault)
        assert shared.network.link_degradation("pop-4", neighbor) \
            == (0.0, 0.0)


class TestServerEntries:
    def test_machine_crash_targets_pop_regulars_only(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        pop = sorted(deployment.pops)[0]
        inject(engine, spec(FaultKind.MACHINE_CRASH, pop))
        for dep in deployment.deployments_at(pop):
            if dep.input_delayed:
                assert dep.machine.state != MachineState.CRASHED
            else:
                assert dep.machine.state == MachineState.CRASHED

    def test_machine_crash_restart_timer_recovers(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        machine = deployment.regular_deployments()[0].machine
        inject(engine, spec(FaultKind.MACHINE_CRASH,
                            machine.machine_id))
        assert machine.state == MachineState.CRASHED
        deployment.settle(machine.config.restart_delay + 5.0)
        assert machine.state == MachineState.RUNNING

    def test_crash_loop_keeps_machine_down_until_cleared(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        machine = deployment.regular_deployments()[0].machine
        fault = spec(FaultKind.CRASH_LOOP, machine.machine_id)
        inject(engine, fault)
        # Across several restart periods the machine never stays up.
        up_ratio = 0
        for _ in range(6):
            deployment.settle(machine.config.restart_delay)
            if machine.state == MachineState.RUNNING:
                up_ratio += 1
        assert machine.state != MachineState.RUNNING or up_ratio <= 2

        clear(engine, fault)
        deployment.settle(machine.config.restart_delay * 2 + 10.0)
        assert machine.state == MachineState.RUNNING

    def test_slow_io_scales_and_restores_capacity(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        machine = deployment.regular_deployments()[0].machine
        io_before = machine.config.io_capacity_qps
        compute_before = machine.config.compute_capacity_qps
        fault = spec(FaultKind.SLOW_IO, machine.machine_id, severity=0.25)
        inject(engine, fault)
        assert machine.config.io_capacity_qps \
            == pytest.approx(io_before * 0.25)
        clear(engine, fault)
        assert machine.config.io_capacity_qps == pytest.approx(io_before)
        assert machine.config.compute_capacity_qps \
            == pytest.approx(compute_before)

    def test_slow_io_severity_validated(self, shared):
        engine = ChaosEngine(shared)
        with pytest.raises(ValueError):
            inject(engine, spec(FaultKind.SLOW_IO, "pop-0",
                                severity=2.0))


class TestControlEntries:
    def test_pubsub_partition_halts_staleness_clock(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        dep = deployment.regular_deployments()[0]
        fault = spec(FaultKind.PUBSUB_PARTITION, dep.machine.machine_id)

        inject(engine, fault)
        frozen_at = dep.machine.last_input_time
        deployment.settle(3 * METADATA_HEARTBEAT)
        assert dep.machine.last_input_time == frozen_at

        clear(engine, fault)
        deployment.settle(METADATA_HEARTBEAT + 5.0)
        assert dep.machine.last_input_time > frozen_at

    def test_metadata_freeze_platform_wide(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        fault = spec(FaultKind.METADATA_FREEZE, "platform")
        inject(engine, fault)
        # Messages published just before the freeze are still in
        # flight; drain them before snapshotting the staleness clocks.
        deployment.settle(25.0)
        inputs = [d.machine.last_input_time
                  for d in deployment.regular_deployments()]
        deployment.settle(3 * METADATA_HEARTBEAT)
        assert [d.machine.last_input_time
                for d in deployment.regular_deployments()] == inputs

        clear(engine, fault)
        deployment.settle(1.0)
        refreshed = [d.machine.last_input_time
                     for d in deployment.regular_deployments()]
        assert all(after > before
                   for after, before in zip(refreshed, inputs))

    def test_zone_corruption_serves_nxdomain_then_recovers(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        resolver = deployment.add_resolver("corruption-resolver")
        fault = spec(FaultKind.ZONE_CORRUPTION, "ex.net")

        inject(engine, fault)
        deployment.settle(25.0)   # CDN-channel delivery
        results = []
        resolver.resolve(name("www.ex.net"), RType.A, results.append)
        deployment.settle(10.0)
        assert results[0].rcode == RCode.NXDOMAIN

        clear(engine, fault)
        deployment.settle(25.0)
        resolver.cache.flush()
        resolver.resolve(name("www.ex.net"), RType.A, results.append)
        deployment.settle(10.0)
        assert results[1].addresses() == ["203.0.113.7"]

    def test_zone_corruption_shorter_than_delivery_jitter_clears(self):
        # Both edges ride the CDN channel's U(2, 20) s delays. Cleared
        # one second after it was injected, the corrupt copy can still
        # arrive after the good one; the later publish must win anyway.
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        fault = spec(FaultKind.ZONE_CORRUPTION, "ex.net", duration=1.0)
        good = deployment.enterprise_zones[name("ex.net")]

        inject(engine, fault)
        deployment.settle(1.0)
        clear(engine, fault)
        deployment.settle(70.0)
        served = [dep.machine.engine.store.get(good.origin)
                  for dep in deployment.deployments]
        assert served and all(zone is good for zone in served)

    def test_zone_corruption_unknown_zone_raises(self, shared):
        engine = ChaosEngine(shared)
        with pytest.raises(ValueError):
            inject(engine, spec(FaultKind.ZONE_CORRUPTION,
                                "nonexistent.net"))


class TestEngine:
    def test_events_logged_in_execution_order(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        campaign = Campaign("order", duration=30.0)
        campaign.add(FaultSpec(FaultKind.LINK_FLAP, "pop-0",
                               Schedule.once(5.0, 10.0)))
        campaign.add(FaultSpec(FaultKind.MACHINE_CRASH, "pop-1",
                               Schedule.once(8.0, 10.0)))
        events = engine.run(campaign)
        kinds = [(e.action, e.spec.kind) for e in events]
        assert kinds == [
            ("inject", FaultKind.LINK_FLAP),
            ("inject", FaultKind.MACHINE_CRASH),
            ("clear", FaultKind.LINK_FLAP),
            ("clear", FaultKind.MACHINE_CRASH),
        ]
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_strict_engine_raises_on_bad_target(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        campaign = Campaign("bad", duration=10.0)
        campaign.add(FaultSpec(FaultKind.MACHINE_CRASH, "missing-pop",
                               Schedule.once(1.0, 2.0)))
        engine.arm(campaign)
        with pytest.raises(ValueError):
            deployment.run_until(deployment.loop.now + 10.0)

    def test_strict_failure_disarms_remaining_edges(self):
        # A strict abort must cancel its not-yet-fired edges: leftover
        # callbacks would otherwise detonate inside later, unrelated
        # run_until calls on the shared loop.
        deployment = small_deployment()
        engine = ChaosEngine(deployment)
        campaign = Campaign("bad", duration=10.0)
        campaign.add(FaultSpec(FaultKind.MACHINE_CRASH, "missing-pop",
                               Schedule.once(1.0, 2.0)))
        engine.arm(campaign)
        with pytest.raises(ValueError):
            deployment.run_until(deployment.loop.now + 10.0)
        # The clear edge at t=3 was cancelled: advancing further is calm.
        deployment.settle(20.0)

    def test_lenient_engine_records_error_and_continues(self):
        deployment = small_deployment()
        engine = ChaosEngine(deployment, strict=False)
        campaign = Campaign("bad", duration=10.0)
        campaign.add(FaultSpec(FaultKind.MACHINE_CRASH, "missing-pop",
                               Schedule.once(1.0, 2.0)))
        events = engine.run(campaign)
        assert all(e.error for e in events)
        assert engine.clears() == []


class TestAttackFlood:
    def test_flood_requires_victim_zone_note(self, shared):
        engine = ChaosEngine(shared)
        flood = spec(FaultKind.ATTACK_FLOOD, shared.clouds[0].prefix,
                     severity=100.0)
        with pytest.raises(ValueError):
            inject(engine, flood)

    def test_inject_is_keyed_and_idempotent(self, shared):
        engine = ChaosEngine(shared)
        flood = FaultSpec(FaultKind.ATTACK_FLOOD, shared.clouds[0].prefix,
                          Schedule.once(0.0, 5.0), severity=100.0,
                          note="ex.net")
        inject(engine, flood)
        inject(engine, flood)      # same (target, note): no second flood
        assert len(engine.floods) == 1
        clear(engine, flood)
        clear(engine, flood)       # already stopped: no-op
        assert engine.floods == {}

    def test_flood_traffic_reaches_machines_and_stops(self, shared):
        engine = ChaosEngine(shared)
        flood = FaultSpec(FaultKind.ATTACK_FLOOD, shared.clouds[0].prefix,
                          Schedule.once(0.0, 5.0), severity=200.0,
                          note="ex.net")
        def attack_received():
            return sum(m.metrics.attack_received
                       for m in shared.machines())

        before = attack_received()
        inject(engine, flood)
        shared.settle(3.0)
        during = attack_received()
        assert during > before
        clear(engine, flood)
        shared.settle(2.0)          # in-flight packets drain
        settled = attack_received()
        shared.settle(3.0)
        assert attack_received() == settled

    def test_sources_are_real_stub_routers(self, shared):
        sources = attack_sources(shared)
        assert len(sources) == 8
        assert set(sources) <= set(shared.internet.stubs)
        # Deterministic slice: same deployment, same sources.
        assert sources == attack_sources(shared)


class TestGrayFaults:
    def test_machine_target_sets_and_clears_the_seam(self, shared):
        engine = ChaosEngine(shared)
        machine = shared.regular_deployments()[0].machine
        fault = spec(FaultKind.GRAY_CORRUPT, machine.machine_id)
        inject(engine, fault)
        assert machine.fault == ("corrupt", 1.0)
        clear(engine, fault)
        assert machine.fault is None

    def test_pop_target_covers_all_its_machines(self, shared):
        engine = ChaosEngine(shared)
        fault = spec(FaultKind.GRAY_BLACKHOLE, "pop-0")
        inject(engine, fault)
        hit = [d.machine for d in shared.regular_deployments()
               if d.machine.machine_id.startswith("pop-0-")]
        assert hit
        assert all(m.fault == ("blackhole", 1.0) for m in hit)
        clear(engine, fault)
        assert all(m.fault is None for m in hit)

    def test_partial_drop_severity_must_be_a_fraction(self, shared):
        engine = ChaosEngine(shared)
        machine_id = shared.regular_deployments()[0].machine.machine_id
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                inject(engine, spec(FaultKind.GRAY_PARTIAL_DROP,
                                    machine_id, severity=bad))

    def test_health_probe_stays_green_under_gray_fault(self, shared):
        # The defining property: the chaos seam must never leak into
        # the in-process health probe, or the fault would not be gray.
        engine = ChaosEngine(shared)
        deployment = shared.regular_deployments()[0]
        fault = spec(FaultKind.GRAY_CORRUPT,
                     deployment.machine.machine_id)
        inject(engine, fault)
        try:
            assert deployment.agent.run_suite().healthy
        finally:
            clear(engine, fault)
