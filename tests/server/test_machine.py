"""Tests for the nameserver machine: capacities, lifecycle, QoD."""

import pytest

from repro.dnscore import (
    RCode,
    RType,
    ZoneUpdate,
    make_query,
    name,
    parse_zone_text,
)
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import Datagram, EventLoop
from repro.server import (
    AuthoritativeEngine,
    MachineConfig,
    MachineState,
    NameserverMachine,
    QueryEnvelope,
    ZoneStore,
)

ZONE = """\
$ORIGIN m.example.
$TTL 300
@ IN SOA ns1.m.example. admin.m.example. 1 7200 3600 1209600 300
@ IN NS ns1.m.example.
www IN A 10.0.0.1
"""


def make_machine(loop, config=None, pipeline=None, responses=None):
    store = ZoneStore()
    store.add(parse_zone_text(ZONE))
    machine = NameserverMachine(
        loop, "m-test", AuthoritativeEngine(store),
        pipeline or ScoringPipeline([]), QueuePolicy(),
        config or MachineConfig(staleness_threshold=float("inf")))
    if responses is not None:
        machine.respond = lambda dgram, msg: responses.append(msg)
    return machine


def query_dgram(qname="www.m.example", msg_id=1, src="10.1.1.1",
                poison=False, attack=False, port=5000):
    q = make_query(msg_id, name(qname), RType.A)
    return Datagram(src=src, dst="svc",
                    payload=QueryEnvelope(q, is_attack=attack,
                                          poison=poison),
                    src_port=port)


class TestServicePath:
    def test_answers_query(self):
        loop = EventLoop()
        responses = []
        m = make_machine(loop, responses=responses)
        m.receive_query(query_dgram())
        loop.run_until(1.0)
        assert len(responses) == 1
        assert responses[0].rcode == RCode.NOERROR
        assert m.metrics.answered == 1

    def test_service_rate_bounds_throughput(self):
        loop = EventLoop()
        responses = []
        config = MachineConfig(compute_capacity_qps=100.0,
                               io_capacity_qps=100000.0,
                               queue_depth=10000,
                               staleness_threshold=float("inf"))
        m = make_machine(loop, config=config, responses=responses)
        for i in range(500):
            loop.call_at(i * 0.0001,
                         lambda i=i: m.receive_query(query_dgram(msg_id=i)))
        loop.run_until(1.0)
        # 100 qps for ~1 s -> about 100 answers.
        assert 80 <= len(responses) <= 120

    def test_io_saturation_drops_below_application(self):
        loop = EventLoop()
        config = MachineConfig(compute_capacity_qps=1e9,
                               io_capacity_qps=100.0,
                               io_burst_seconds=0.1,
                               staleness_threshold=float("inf"))
        m = make_machine(loop, config=config)
        for i in range(1000):
            loop.call_at(i * 0.0001,
                         lambda i=i: m.receive_query(query_dgram(msg_id=i)))
        loop.run_until(2.0)
        assert m.metrics.dropped_io > 500

    def test_queue_overflow_drops(self):
        loop = EventLoop()
        config = MachineConfig(compute_capacity_qps=1.0,
                               io_capacity_qps=1e9, queue_depth=5,
                               staleness_threshold=float("inf"))
        m = make_machine(loop, config=config)
        for i in range(100):
            m.receive_query(query_dgram(msg_id=i))
        assert m.metrics.dropped_queue > 50

    def test_attack_accounting(self):
        loop = EventLoop()
        m = make_machine(loop)
        m.receive_query(query_dgram(attack=True))
        m.receive_query(query_dgram(msg_id=2))
        loop.run_until(1.0)
        assert m.metrics.attack_received == 1
        assert m.metrics.legit_received == 1


class TestLifecycle:
    def test_suspend_blocks_traffic_but_not_probes(self):
        loop = EventLoop()
        m = make_machine(loop)
        m.suspend()
        m.receive_query(query_dgram())
        loop.run_until(1.0)
        assert m.metrics.dropped_not_running == 1
        probe = m.health_probe(make_query(9, name("m.example"),
                                          RType.SOA))
        assert probe is not None and probe.rcode == RCode.NOERROR

    def test_resume(self):
        loop = EventLoop()
        responses = []
        m = make_machine(loop, responses=responses)
        m.suspend()
        m.resume()
        m.receive_query(query_dgram())
        loop.run_until(1.0)
        assert responses

    def test_crash_loses_queue_and_restarts(self):
        loop = EventLoop()
        config = MachineConfig(compute_capacity_qps=1.0,
                               restart_delay=5.0,
                               staleness_threshold=float("inf"))
        m = make_machine(loop, config=config)
        for i in range(10):
            m.receive_query(query_dgram(msg_id=i))
        m.crash()
        assert m.state == MachineState.CRASHED
        assert m.queues.total_depth() == 0
        loop.run_until(6.0)
        assert m.state == MachineState.RUNNING

    def test_crash_listener_fires(self):
        loop = EventLoop()
        m = make_machine(loop)
        crashed = []
        m.crash_listeners.append(crashed.append)
        m.crash()
        assert crashed == [m]

    def test_qod_crashes_and_firewalls(self):
        loop = EventLoop()
        config = MachineConfig(restart_delay=1.0, t_qod=60.0,
                               staleness_threshold=float("inf"))
        m = make_machine(loop, config=config)
        m.receive_query(query_dgram(qname="boom.m.example", poison=True))
        loop.run_until(0.5)
        assert m.metrics.crashes == 1
        loop.run_until(2.0)  # restarted
        # A similar query is now dropped by the firewall, not crashing.
        m.receive_query(query_dgram(qname="boom2.m.example", poison=True,
                                    msg_id=2))
        loop.run_until(3.0)
        assert m.metrics.crashes == 1
        assert m.metrics.dropped_firewall == 1

    def test_qod_without_firewall_crashloops(self):
        loop = EventLoop()
        config = MachineConfig(restart_delay=1.0,
                               qod_firewall_enabled=False,
                               staleness_threshold=float("inf"))
        m = make_machine(loop, config=config)
        for i in range(3):
            loop.call_at(i * 2.0, lambda i=i: m.receive_query(
                query_dgram(qname="boom.m.example", poison=True,
                            msg_id=i)))
        loop.run_until(10.0)
        assert m.metrics.crashes == 3


class TestStaleness:
    def test_fresh_metadata(self):
        loop = EventLoop()
        m = make_machine(loop, config=MachineConfig(
            staleness_threshold=30.0))
        m.receive_metadata(0.0)
        loop.run_until(10.0)
        assert not m.is_stale(loop.now)
        loop.run_until(50.0)
        assert m.is_stale(loop.now)

    def test_metadata_timestamp_monotonic(self):
        loop = EventLoop()
        m = make_machine(loop)
        m.receive_metadata(100.0)
        m.receive_metadata(50.0)  # late-arriving older input
        assert m.last_input_time == 100.0

    def test_input_delayed_never_stale(self):
        loop = EventLoop()
        m = make_machine(loop, config=MachineConfig(
            staleness_threshold=30.0, input_delayed=True))
        loop.run_until(10_000.0)
        assert not m.is_stale(loop.now)


def set_fault(machine, kind, severity=1.0):
    """The machine's fault seam: one fault at a time, None clears it."""
    machine.set_fault(kind, severity)


#: Each machine fault -> (its own health probe's answer, a live query's
#: answer, whether a zone install lands). An answer is (rcode, answer
#: count); None is no answer at all. Only the first two kinds are seen
#: by the probe; the four gray ones show on the data path alone.
FAULT_MATRIX = {
    "unresponsive": (None, None, True),
    "wrong_answer": ((RCode.SERVFAIL, 0), (RCode.SERVFAIL, 0), True),
    "blackhole": ((RCode.NOERROR, 1), None, True),
    "partial_drop": ((RCode.NOERROR, 1), None, True),
    "corrupt": ((RCode.NOERROR, 1), (RCode.NOERROR, 0), True),
    "stale": ((RCode.NOERROR, 1), (RCode.NOERROR, 1), False),
}


def _answer(response):
    if response is None:
        return None
    return (response.rcode, len(response.answers))


class TestFaults:
    @pytest.mark.parametrize("kind", FAULT_MATRIX)
    def test_health_probe(self, kind):
        m = make_machine(EventLoop())
        set_fault(m, kind)
        probe = m.health_probe(make_query(1, name("www.m.example"),
                                          RType.A))
        assert _answer(probe) == FAULT_MATRIX[kind][0]

    @pytest.mark.parametrize("kind", FAULT_MATRIX)
    def test_live_query(self, kind):
        loop = EventLoop()
        responses = []
        m = make_machine(loop, responses=responses)
        set_fault(m, kind)
        m.receive_query(query_dgram())
        loop.run_until(1.0)
        expected = FAULT_MATRIX[kind][1]
        assert [_answer(r) for r in responses] \
            == ([] if expected is None else [expected])
        assert m.metrics.answered == len(responses)

    @pytest.mark.parametrize("kind", FAULT_MATRIX)
    def test_zone_install(self, kind):
        m = make_machine(EventLoop())
        set_fault(m, kind)
        update = parse_zone_text(ZONE.replace("1 7200", "2 7200"))
        assert m.install_zone(update) is True
        lands = FAULT_MATRIX[kind][2]
        assert m.engine.store.get(name("m.example")).serial \
            == (2 if lands else 1)
        assert m.metrics.zone_installs == int(lands)

    @pytest.mark.parametrize("kind", FAULT_MATRIX)
    def test_cleared_fault_leaves_nothing(self, kind):
        loop = EventLoop()
        responses = []
        m = make_machine(loop, responses=responses)
        set_fault(m, kind)
        set_fault(m, None)
        m.receive_query(query_dgram())
        loop.run_until(1.0)
        assert [_answer(r) for r in responses] == [(RCode.NOERROR, 1)]

    def test_partial_drop_is_a_per_source_slice(self):
        loop = EventLoop()
        responses = []
        m = make_machine(loop, responses=responses)
        set_fault(m, "partial_drop", 0.5)
        sources = [f"10.9.0.{i}" for i in range(40)]
        for i, src in enumerate(sources):
            m.receive_query(query_dgram(src=src, msg_id=i))
        loop.run_until(1.0)
        assert 0 < m.metrics.dropped_gray < len(sources)
        assert m.metrics.dropped_gray + len(responses) == len(sources)


class TestDegradedMode:
    """Defense-ladder degraded mode: serve-from-LKG, shed attribution."""

    @staticmethod
    def updated_zone(serial, address):
        text = ZONE.replace("1 7200", f"{serial} 7200") \
                   .replace("10.0.0.1", address)
        return parse_zone_text(text)

    def test_zone_update_deferred_until_exit(self):
        from types import SimpleNamespace
        loop = EventLoop()
        m = make_machine(loop)
        m.enter_degraded("rate-limit")
        m.handle_zone_update(SimpleNamespace(
            payload=ZoneUpdate(self.updated_zone(2, "10.0.0.2"))))
        # Still serving last-known-good content under attack.
        assert m.engine.store.get(name("m.example")).serial == 1
        m.exit_degraded()
        assert m.degraded_rung is None
        assert m.engine.store.get(name("m.example")).serial == 2

    def test_only_newest_deferred_update_replays(self):
        from types import SimpleNamespace
        loop = EventLoop()
        m = make_machine(loop)
        installed = []
        original = m.install_zone

        def spying_install(zone, rollback=False):
            installed.append(zone.serial)
            return original(zone, rollback=rollback)

        m.install_zone = spying_install
        m.enter_degraded("qod-firewall")
        for serial in (2, 3):
            m.handle_zone_update(SimpleNamespace(
                payload=ZoneUpdate(self.updated_zone(serial, "10.0.0.9"))))
        m.exit_degraded()
        # The intermediate serial was superseded while degraded.
        assert installed == [3]
        assert m.engine.store.get(name("m.example")).serial == 3

    def test_shed_attributed_to_current_rung(self):
        loop = EventLoop()
        m = make_machine(loop)
        m.known_sources.add("10.1.1.1")
        m.enter_degraded("victim-firewall")
        # A firewall rule sheds matching queries; the drop is charged
        # to the rung holding the machine degraded.
        m.firewall.install_rule(name("x.m.example"), RType.A, loop.now)
        m.receive_query(query_dgram(qname="www.m.example"))
        assert m.metrics.shed_by_rung == {"victim-firewall": 1}
        assert m.metrics.known_received == 1
        assert m.metrics.known_answered == 0
        # Re-entering under a new rung relabels the attribution.
        m.enter_degraded("rate-limit")
        m.receive_query(query_dgram(qname="www2.m.example"))
        assert m.metrics.shed_by_rung == {"victim-firewall": 1,
                                          "rate-limit": 1}

    def test_known_source_counters_track_answers(self):
        loop = EventLoop()
        responses = []
        m = make_machine(loop, responses=responses)
        m.known_sources.add("10.1.1.1")
        m.receive_query(query_dgram(src="10.1.1.1"))
        m.receive_query(query_dgram(src="99.9.9.9", msg_id=2))
        loop.run_until(1.0)
        assert len(responses) == 2
        assert m.metrics.known_received == 1
        assert m.metrics.known_answered == 1

    def test_shed_not_counted_when_not_degraded(self):
        loop = EventLoop()
        m = make_machine(loop)
        m.firewall.install_rule(name("x.m.example"), RType.A, loop.now)
        m.receive_query(query_dgram(qname="www.m.example"))
        assert m.metrics.dropped_firewall == 1
        assert m.metrics.shed_by_rung == {}
