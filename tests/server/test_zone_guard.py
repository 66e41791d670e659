"""Tests for the machine's guarded zone-install seam and staleness check."""

import pytest

from repro.dnscore import (
    A,
    RCode,
    RType,
    SOA,
    Zone,
    ZoneUpdate,
    make_query,
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

ORIGIN = name("g.example")


def zone_v(serial, address="10.0.0.1"):
    z = make_zone(ORIGIN,
                  SOA(name("ns1.g.example"), name("admin.g.example"),
                      serial, 7200, 3600, 1209600, 300),
                  [name("ns1.akam.net")])
    z.add_rrset(make_rrset(name("www.g.example"), RType.A, 300,
                           [A(address)]))
    return z


def make_machine(loop, guard=True, **config_kwargs):
    machine = NameserverMachine(
        loop, "m-guard", AuthoritativeEngine(ZoneStore()),
        ScoringPipeline([]), QueuePolicy(),
        MachineConfig(zone_guard_enabled=guard,
                      staleness_threshold=config_kwargs.pop(
                          "staleness_threshold", float("inf")),
                      **config_kwargs))
    return machine


class TestGuardedInstall:
    def test_valid_update_installs_and_retains_previous(self):
        m = make_machine(EventLoop())
        v1, v2 = zone_v(1), zone_v(2, "10.0.0.2")
        assert m.install_zone(v1)
        assert m.install_zone(v2)
        assert m.engine.store.get(ORIGIN) is v2
        assert m.last_known_good[ORIGIN] is v1
        assert m.metrics.zone_installs == 2
        assert [a for _, a, _, _ in m.zone_install_log] == \
            ["install", "install"]

    def test_fatal_update_is_rejected(self):
        m = make_machine(EventLoop())
        assert m.install_zone(zone_v(5))
        assert not m.install_zone(zone_v(4))     # serial regression
        assert m.engine.store.get(ORIGIN).serial == 5
        assert m.metrics.zone_rejects == 1
        assert m.zone_install_log[-1][1] == "reject"

    def test_guard_off_installs_anything(self):
        m = make_machine(EventLoop(), guard=False)
        assert m.install_zone(zone_v(5))
        assert m.install_zone(zone_v(4))
        assert m.engine.store.get(ORIGIN).serial == 4

    def test_structurally_invalid_zone_rejected_even_unguarded(self):
        m = make_machine(EventLoop(), guard=False)
        assert not m.install_zone(Zone(ORIGIN))  # no SOA: store refuses
        assert m.metrics.zone_rejects == 1

    def test_rollback_bypasses_validation_and_keeps_lkg(self):
        m = make_machine(EventLoop())
        v1, v2 = zone_v(1), zone_v(2, "10.0.0.2")
        m.install_zone(v1)
        m.install_zone(v2)
        assert m.rollback_zone(ORIGIN)           # v1's serial is older
        assert m.engine.store.get(ORIGIN) is v1
        assert m.metrics.zone_rollbacks == 1
        assert m.zone_install_log[-1][1] == "rollback"
        # The retained version is not clobbered by the rollback itself.
        assert m.last_known_good[ORIGIN] is v1

    def test_rollback_without_history_fails(self):
        m = make_machine(EventLoop())
        assert not m.rollback_zone(ORIGIN)

    def test_rolled_back_zone_actually_serves(self):
        loop = EventLoop()
        m = make_machine(loop)
        m.install_zone(zone_v(1))
        m.install_zone(zone_v(2, "10.0.0.2"))
        m.rollback_zone(ORIGIN)
        response = m.health_probe(
            make_query(7, name("www.g.example"), RType.A))
        assert response is not None
        assert response.rcode is RCode.NOERROR
        assert str(response.answers[0].rdata.address) == "10.0.0.1"


class TestMetadataDispatch:
    def test_zone_update_payload_unwrapped(self):
        m = make_machine(EventLoop())
        m.handle_zone_update(type("Msg", (), {
            "payload": ZoneUpdate(zone_v(1))})())
        assert m.engine.store.get(ORIGIN) is not None

    @pytest.mark.parametrize("payload", [zone_v(1), "v1", None])
    def test_any_other_payload_raises(self, payload):
        m = make_machine(EventLoop())
        with pytest.raises(TypeError):
            m.handle_zone_update(type("Msg", (), {"payload": payload})())
        assert m.engine.store.get(ORIGIN) is None

    def test_rollback_flag_honoured_from_bus(self):
        m = make_machine(EventLoop())
        m.install_zone(zone_v(5))
        m.handle_zone_update(type("Msg", (), {
            "payload": ZoneUpdate(zone_v(3), rollback=True)})())
        assert m.engine.store.get(ORIGIN).serial == 3


class TestStaleness:
    def test_exactly_at_threshold_is_fresh(self):
        m = make_machine(EventLoop(), staleness_threshold=30.0)
        m.receive_metadata(10.0)
        assert not m.is_stale(40.0)              # exactly 30s old
        assert m.is_stale(40.0001)               # strictly past it

    def test_input_delayed_machines_never_report_stale(self):
        m = make_machine(EventLoop(), staleness_threshold=30.0,
                         input_delayed=True)
        assert not m.is_stale(1e9)

    def test_positive_checks_count_in_telemetry(self):
        telemetry = Telemetry(TelemetryConfig(trace_sample_rate=0.0))
        with telemetry_state.session(telemetry):
            m = make_machine(EventLoop(), staleness_threshold=30.0)
            m.receive_metadata(0.0)
            assert not m.is_stale(30.0)
            assert m.is_stale(31.0)
            assert m.is_stale(32.0)
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["machine_stale_total{machine=m-guard}"] == 2.0

    def test_installs_and_rejects_count_in_telemetry(self):
        telemetry = Telemetry(TelemetryConfig(trace_sample_rate=0.0))
        with telemetry_state.session(telemetry):
            m = make_machine(EventLoop())
            m.install_zone(zone_v(5))
            m.install_zone(zone_v(4))            # rejected
        counters = telemetry.registry.snapshot()["counters"]
        assert counters[
            "zone_updates_total{machine=m-guard,action=install}"] == 1.0
        assert counters[
            "zone_updates_total{machine=m-guard,action=reject}"] == 1.0
