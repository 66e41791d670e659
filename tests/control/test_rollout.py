"""Tests for the safe-rollout release train (validate/canary/promote)."""

import random

from repro.control.pubsub import CDN_CHANNEL, MetadataBus
from repro.control.rollout import (
    RolloutCoordinator,
    RolloutParams,
    RolloutPhase,
    probe_targets,
)
from repro.dnscore import (
    A,
    RType,
    SOA,
    TXT,
    make_rrset,
    make_zone,
    name,
)
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import EventLoop
from repro.server import (
    AuthoritativeEngine,
    MachineConfig,
    NameserverMachine,
    ZoneStore,
)
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry import state as telemetry_state

ORIGIN = name("r.example")
PARAMS = RolloutParams(soak_seconds=30.0, check_period=1.0)


def zone_v(serial, *, with_www=True):
    z = make_zone(ORIGIN,
                  SOA(name("ns1.r.example"), name("admin.r.example"),
                      serial, 7200, 3600, 1209600, 300),
                  [name("ns1.akam.net")])
    if with_www:
        z.add_rrset(make_rrset(name("www.r.example"), RType.A, 300,
                               [A(f"10.0.{serial}.1")]))
    return z


class Train:
    """One loop + bus + machine fleet + coordinator, pre-baselined."""

    def __init__(self, n_canaries=2, n_rest=3, params=PARAMS):
        self.loop = EventLoop()
        self.bus = MetadataBus(self.loop, random.Random(7))
        self.machines = []
        for i in range(n_canaries + n_rest):
            machine = NameserverMachine(
                self.loop, f"m{i}", AuthoritativeEngine(ZoneStore()),
                ScoringPipeline([]), QueuePolicy(),
                MachineConfig(zone_guard_enabled=True,
                              staleness_threshold=float("inf")))
            machine.metadata_handlers["zone"] = machine.handle_zone_update
            self.bus.subscribe(CDN_CHANNEL, machine)
            self.machines.append(machine)
        self.canaries = self.machines[:n_canaries]
        self.rest = self.machines[n_canaries:]
        self.coordinator = RolloutCoordinator(
            self.loop, self.bus, canaries=self.canaries,
            fleet=self.machines, params=params)
        self.baseline = zone_v(1)
        for machine in self.machines:
            machine.install_zone(self.baseline)
        self.coordinator.set_baseline(self.baseline)

    def serials(self, machines=None):
        return [m.engine.store.get(ORIGIN).serial
                for m in (machines or self.machines)]


class TestValidationGate:
    def test_fatal_update_rejected_before_publish(self):
        train = Train()
        published_before = train.bus.published
        release = train.coordinator.publish(zone_v(0))   # regression vs 1
        assert release.phase is RolloutPhase.REJECTED
        assert "serial-regression" in release.detail
        assert train.bus.published == published_before
        assert train.coordinator.rejections == 1
        train.loop.run_until(100.0)
        assert train.serials() == [1] * 5


class TestPromotion:
    def test_clean_soak_promotes_to_fleet(self):
        train = Train()
        release = train.coordinator.publish(zone_v(2))
        assert release.phase is RolloutPhase.CANARY
        train.loop.run_until(25.0)
        # Mid-soak: canaries converted, the rest still on the baseline.
        assert train.serials(train.canaries) == [2, 2]
        assert train.serials(train.rest) == [1, 1, 1]
        train.loop.run_until(100.0)
        assert release.phase is RolloutPhase.PROMOTED
        assert train.serials() == [2] * 5
        assert train.coordinator.promotions == 1
        assert train.coordinator.last_known_good[ORIGIN] is release.zone

    def test_newer_publish_supersedes_active_canary(self):
        train = Train()
        first = train.coordinator.publish(zone_v(2))
        train.loop.run_until(5.0)
        second = train.coordinator.publish(zone_v(3))
        assert first.phase is RolloutPhase.SUPERSEDED
        assert second.phase is RolloutPhase.CANARY
        train.loop.run_until(150.0)
        assert second.phase is RolloutPhase.PROMOTED
        assert train.serials() == [3] * 5


class TestRollback:
    def test_gate_trip_rolls_canaries_back(self):
        train = Train()
        # Serial advances and the apex stays intact, so validation
        # passes — but the content the canaries get probed on is gone.
        corrupt = zone_v(2, with_www=False)
        release = train.coordinator.publish(corrupt)
        train.loop.run_until(200.0)
        assert release.phase is RolloutPhase.ROLLED_BACK
        assert "health gate tripped" in release.detail
        assert train.coordinator.rollbacks == 1
        # Canaries restored to the baseline; the rest never saw v2.
        assert train.serials() == [1] * 5
        rollbacks = [m.metrics.zone_rollbacks for m in train.canaries]
        assert rollbacks == [1, 1]
        assert all(m.metrics.zone_rollbacks == 0 for m in train.rest)

    def test_straggling_corrupt_delivery_loses_to_rollback(self):
        # The versioned bus is what makes rollback *stick*: a corrupt
        # delivery still in flight when the rollback lands must be
        # dropped, not applied over the restored zone.
        train = Train()
        train.coordinator.publish(zone_v(2, with_www=False))
        train.loop.run_until(500.0)
        assert train.serials() == [1] * 5
        assert train.bus.stale_deliveries_dropped >= 0  # drops counted

    def test_input_delayed_canary_is_not_probed(self):
        train = Train()
        delayed = train.canaries[0]
        delayed.config = MachineConfig(zone_guard_enabled=True,
                                       input_delayed=True,
                                       staleness_threshold=float("inf"))
        coordinator = RolloutCoordinator(
            train.loop, train.bus, canaries=train.canaries,
            fleet=train.machines, params=PARAMS)
        assert delayed not in coordinator._probed
        assert train.canaries[1] in coordinator._probed


class TestExternalRollback:
    def test_active_canary_rolled_back_in_place(self):
        train = Train()
        release = train.coordinator.publish(zone_v(2))
        train.loop.run_until(25.0)
        assert train.coordinator.rollback_origin(ORIGIN, reason="operator")
        assert release.phase is RolloutPhase.ROLLED_BACK
        train.loop.run_until(100.0)
        assert train.serials() == [1] * 5

    def test_emergency_republish_reaches_whole_fleet(self):
        train = Train()
        # Nothing in flight: the emergency path republishes LKG
        # fleet-wide (corruption detected after promotion).
        assert train.coordinator.rollback_origin(ORIGIN, reason="page")
        train.loop.run_until(100.0)
        assert all(m.metrics.zone_rollbacks == 1 for m in train.machines)

    def test_no_last_known_good_returns_false(self):
        train = Train()
        assert not train.coordinator.rollback_origin(name("unknown.test"))


class TestProbeTargets:
    def test_wildcards_get_synthesized_labels(self):
        z = zone_v(1, with_www=False)
        z.add_rrset(make_rrset(name("*.r.example"), RType.A, 300,
                               [A("10.9.9.9")]))
        targets = probe_targets(z, 8)
        assert (name("canary0.r.example"), RType.A) in targets

    def test_cname_targets_probe_qtype_a(self):
        z = zone_v(1)
        targets = probe_targets(z, 8)
        assert all(qtype is not RType.CNAME for _, qtype in targets)

    def test_empty_zone_falls_back_to_apex_soa(self):
        z = make_zone(ORIGIN,
                      SOA(name("ns1.r.example"), name("admin.r.example"),
                          1, 7200, 3600, 1209600, 300),
                      [name("ns1.akam.net")])
        assert probe_targets(z, 8) == [(ORIGIN, RType.SOA)]

    def test_sample_count_is_bounded(self):
        z = zone_v(1)
        for i in range(20):
            z.add_rrset(make_rrset(name(f"t{i}.r.example"), RType.TXT,
                                   300, [TXT(("x",))]))
        assert len(probe_targets(z, 8)) == 8


class TestTelemetryEvents:
    def test_transitions_count_in_passive_session(self):
        telemetry = Telemetry(TelemetryConfig(trace_sample_rate=0.0))
        with telemetry_state.session(telemetry):
            train = Train()
            train.coordinator.publish(zone_v(2))
            train.loop.run_until(100.0)
        counters = telemetry.registry.snapshot()["counters"]
        assert counters[
            "rollout_events_total{origin=r.example.,phase=canary}"] == 1.0
        assert counters[
            "rollout_events_total{origin=r.example.,phase=promoted}"] == 1.0
