"""Tests for the traffic collection/aggregation component."""

import pytest

from repro.control.reporting import TrafficCollector
from repro.dnscore import RCode, RType, make_query, name, parse_zone_text
from repro.dnscore.message import Flags, Message
from repro.dnscore.records import Question
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry import state as telemetry_state
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import Datagram, EventLoop
from repro.server import (
    AuthoritativeEngine,
    MachineConfig,
    NameserverMachine,
    QueryEnvelope,
    ZoneStore,
)

ZONE_A = """\
$ORIGIN a.report.\n$TTL 300
@ IN SOA ns1.a.report. admin.a.report. 1 2 3 4 300
@ IN NS ns1.a.report.
www IN A 10.0.0.1
"""
ZONE_B = """\
$ORIGIN b.report.\n$TTL 300
@ IN SOA ns1.b.report. admin.b.report. 1 2 3 4 300
@ IN NS ns1.b.report.
www IN A 10.0.0.2
"""


def make_machine(loop, mid):
    store = ZoneStore()
    store.add(parse_zone_text(ZONE_A))
    store.add(parse_zone_text(ZONE_B))
    return NameserverMachine(
        loop, mid, AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(), MachineConfig(staleness_threshold=float("inf")))


def drive(loop, machine, qname, count, start, msg_base=0):
    for i in range(count):
        q = make_query((msg_base + i) & 0xFFFF, name(qname), RType.A)
        loop.call_at(start + i * 0.01,
                     lambda q=q: machine.receive_query(Datagram(
                         src="10.1.0.1", dst="rep",
                         payload=QueryEnvelope(q), src_port=5000 + i)))


def _tap(counter, qname, rcode):
    """Feed the response-observer tap with a graded response directly."""
    query = make_query(1, name(qname), RType.A)
    response = Message(msg_id=1, flags=Flags(qr=True, rcode=rcode))
    response.questions.append(Question(name(qname), RType.A))
    counter._observe(query, response)


class TestTrafficCollector:
    def test_per_zone_aggregation(self):
        loop = EventLoop()
        collector = TrafficCollector(loop)
        m1 = make_machine(loop, "m1")
        m2 = make_machine(loop, "m2")
        collector.register(m1)
        collector.register(m2)
        drive(loop, m1, "www.a.report", 20, start=1.0)
        drive(loop, m2, "www.a.report", 10, start=1.0, msg_base=100)
        drive(loop, m1, "www.b.report", 5, start=1.0, msg_base=200)
        loop.run_until(61.0)
        report_a = collector.latest(name("a.report"))
        assert report_a.queries == 30
        assert report_a.reporting_machines == 2
        assert collector.latest(name("b.report")).queries == 5

    def test_nxdomain_fraction(self):
        loop = EventLoop()
        collector = TrafficCollector(loop)
        machine = make_machine(loop, "m1")
        collector.register(machine)
        drive(loop, machine, "www.a.report", 9, start=1.0)
        drive(loop, machine, "missing.a.report", 1, start=2.0,
              msg_base=300)
        loop.run_until(61.0)
        report = collector.latest(name("a.report"))
        assert report.nxdomains == 1
        assert report.nxdomain_fraction == pytest.approx(0.1)

    def test_windows_reset(self):
        loop = EventLoop()
        collector = TrafficCollector(loop)
        machine = make_machine(loop, "m1")
        collector.register(machine)
        drive(loop, machine, "www.a.report", 10, start=1.0)
        loop.run_until(61.0)
        loop.run_until(121.0)
        # Second window saw nothing; the latest report is the first.
        assert collector.latest(name("a.report")).queries == 10
        assert collector.total_queries(name("a.report")) == 10
        drive(loop, machine, "www.a.report", 4, start=122.0, msg_base=400)
        loop.run_until(181.0)
        assert collector.latest(name("a.report")).queries == 4
        assert collector.total_queries(name("a.report")) == 14

    def test_attribution_follows_child_zone_install_and_removal(self):
        """One long-lived tap, one qname: it is the parent's traffic
        until a child zone is installed over it, the child's while that
        is served, and the parent's again once the child is removed."""
        loop = EventLoop()
        collector = TrafficCollector(loop)
        machine = make_machine(loop, "m1")
        collector.register(machine)
        store = machine.engine.store
        parent, child = name("a.report"), name("sub.a.report")

        drive(loop, machine, "www.sub.a.report", 3, start=1.0)
        loop.run_until(5.0)
        store.add(parse_zone_text(ZONE_A.replace("a.report", "sub.a.report")))
        drive(loop, machine, "www.sub.a.report", 4, start=6.0, msg_base=10)
        loop.run_until(61.0)
        assert collector.latest(parent).queries == 3
        assert collector.latest(parent).nxdomains == 3
        assert collector.latest(child).queries == 4
        assert collector.latest(child).nxdomains == 0

        drive(loop, machine, "www.sub.a.report", 2, start=62.0, msg_base=20)
        loop.run_until(65.0)
        store.remove(child)
        drive(loop, machine, "www.sub.a.report", 5, start=66.0, msg_base=30)
        loop.run_until(121.0)
        assert collector.latest(child).queries == 2
        assert collector.latest(parent).queries == 5
        assert collector.total_queries(parent) == 8
        assert collector.total_queries(child) == 6

    def test_qps_computed_over_window(self):
        loop = EventLoop()
        collector = TrafficCollector(loop)
        machine = make_machine(loop, "m1")
        collector.register(machine)
        drive(loop, machine, "www.a.report", 300, start=0.5)
        loop.run_until(61.0)
        assert collector.latest(name("a.report")).qps == \
            pytest.approx(5.0, rel=0.05)

    def test_enterprise_rollup(self):
        loop = EventLoop()
        collector = TrafficCollector(loop)
        machine = make_machine(loop, "m1")
        collector.register(machine)
        drive(loop, machine, "www.a.report", 8, start=1.0)
        drive(loop, machine, "www.b.report", 2, start=1.0, msg_base=500)
        loop.run_until(61.0)
        rollup = collector.enterprise_report([name("a.report"),
                                              name("b.report")])
        assert rollup["total_queries"] == 10.0
        assert rollup["zones"] == 2.0

    def test_rcode_breakdown(self):
        """SERVFAIL and REFUSED are counted per zone, not just NXDOMAIN."""
        loop = EventLoop()
        collector = TrafficCollector(loop)
        machine = make_machine(loop, "m1")
        counter = collector.register(machine)
        graded = [(RCode.NOERROR, 5), (RCode.NXDOMAIN, 2),
                  (RCode.SERVFAIL, 2), (RCode.REFUSED, 1)]
        for rcode, count in graded:
            for _ in range(count):
                _tap(counter, "www.a.report", rcode)
        loop.run_until(61.0)
        report = collector.latest(name("a.report"))
        assert report.queries == 10
        assert report.nxdomains == 2
        assert report.servfails == 2
        assert report.refused == 1
        assert report.servfail_fraction == pytest.approx(0.2)

    def test_enterprise_rollup_error_fractions(self):
        loop = EventLoop()
        collector = TrafficCollector(loop)
        machine = make_machine(loop, "m1")
        counter = collector.register(machine)
        for _ in range(8):
            _tap(counter, "www.a.report", RCode.NOERROR)
        _tap(counter, "www.a.report", RCode.SERVFAIL)
        _tap(counter, "www.b.report", RCode.REFUSED)
        loop.run_until(61.0)
        rollup = collector.enterprise_report([name("a.report"),
                                              name("b.report")])
        assert rollup["total_queries"] == 10.0
        assert rollup["servfail_fraction"] == pytest.approx(0.1)
        assert rollup["refused_fraction"] == pytest.approx(0.1)

    def test_counts_feed_active_telemetry_session(self):
        """The portal view and operator dashboards read one pipeline."""
        telemetry = Telemetry(TelemetryConfig(trace_sample_rate=0.0))
        with telemetry_state.session(telemetry):
            loop = EventLoop()
            collector = TrafficCollector(loop)
            machine = make_machine(loop, "m1")
            counter = collector.register(machine)
            _tap(counter, "www.a.report", RCode.NOERROR)
            _tap(counter, "missing.a.report", RCode.NXDOMAIN)
            loop.run_until(61.0)
        counters = telemetry.registry.snapshot()["counters"]
        assert counters[
            "zone_responses_total{machine=m1,zone=a.report.,"
            "rcode=NOERROR}"] == 1.0
        assert counters[
            "zone_responses_total{machine=m1,zone=a.report.,"
            "rcode=NXDOMAIN}"] == 1.0

    def test_history_retention(self):
        loop = EventLoop()
        collector = TrafficCollector(loop)
        machine = make_machine(loop, "m1")
        collector.register(machine)
        for window in range(70):
            drive(loop, machine, "www.a.report", 1,
                  start=window * 60.0 + 0.1, msg_base=window * 10)
        loop.run_until(70 * 60.0 + 1.0)
        kept = collector.reports[name("a.report")]
        assert len(kept) == 64
        assert kept[0].window_start == 6 * 60.0
