"""Ablation: query-of-death firewall on vs off (paper section 4.2.4).

An attacker (or an unlucky resolver) repeatedly sends a query that
crashes the nameserver. With the QoD firewall, the first crash installs
a rule dropping similar queries, bounding the crash rate to once per
T_QoD; without it, the machine crashloops and legitimate goodput
collapses.
"""

import random

from .conftest import report

from repro.analysis.report import ExperimentResult
from repro.dnscore import RType, make_query, name, parse_zone_text
from repro.filters.base import ScoringPipeline
from repro.filters.scoring import QueuePolicy
from repro.netsim.clock import EventLoop
from repro.netsim.packet import Datagram
from repro.server.engine import AuthoritativeEngine, ZoneStore
from repro.server.machine import MachineConfig, NameserverMachine, QueryEnvelope
from repro.workload.attacks import QoDInjector

DURATION = 120.0
QOD_INTERVAL = 2.0
LEGIT_RATE = 50.0


def _run(firewall_enabled: bool) -> tuple[int, float]:
    rng = random.Random(3)
    loop = EventLoop()
    store = ZoneStore()
    store.add(parse_zone_text(
        "$ORIGIN qod.example.\n$TTL 300\n"
        "@ IN SOA ns1.qod.example. admin.qod.example. 1 2 3 4 300\n"
        "@ IN NS ns1.qod.example.\n"
        "www IN A 10.0.0.1\n"
        "crashme IN TXT \"corner case\"\n"))
    machine = NameserverMachine(
        loop, "qod-ns", AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(),
        MachineConfig(compute_capacity_qps=5_000.0,
                      restart_delay=5.0,
                      qod_firewall_enabled=firewall_enabled,
                      t_qod=60.0,
                      staleness_threshold=float("inf")))
    injector = QoDInjector(loop, machine.receive_query, "qod-target")
    sent = [0]

    def legit():
        if loop.now >= DURATION:
            return
        sent[0] += 1
        query = make_query(sent[0] & 0xFFFF, name("www.qod.example"),
                           RType.A)
        machine.receive_query(Datagram(
            src=f"10.5.0.{rng.randint(1, 40)}", dst="qod-target",
            payload=QueryEnvelope(query),
            src_port=rng.randint(1024, 65535)))
        loop.call_later(rng.expovariate(LEGIT_RATE), legit)

    def qod():
        if loop.now >= DURATION:
            return
        injector.fire(name("crashme.qod.example"))
        loop.call_later(QOD_INTERVAL, qod)

    loop.call_later(0.01, legit)
    loop.call_later(1.0, qod)
    loop.run_until(DURATION + 10)
    goodput = machine.metrics.legit_answered / max(1, sent[0])
    return machine.metrics.crashes, goodput


def test_qod_firewall():
    result = ExperimentResult(
        "ablation-qod", "QoD firewall: crash containment")
    crashes_on, goodput_on = _run(firewall_enabled=True)
    crashes_off, goodput_off = _run(firewall_enabled=False)
    result.metrics.update({
        "crashes_with_firewall": crashes_on,
        "crashes_without_firewall": crashes_off,
        "goodput_with_firewall": goodput_on,
        "goodput_without_firewall": goodput_off,
    })
    # 120 s, T_QoD 60 s: at most ~1 crash per expiry window + the
    # initial one.
    result.compare("firewall bounds crashes to ~1 per T_QoD",
                   "<= 3 in 120 s", f"{crashes_on}", crashes_on <= 3)
    result.compare("without firewall the machine crashloops",
                   "~1 per restart cycle", f"{crashes_off}",
                   crashes_off >= 3 * crashes_on)
    result.compare("firewall preserves legitimate goodput",
                   "higher with firewall",
                   f"{goodput_on:.0%} vs {goodput_off:.0%}",
                   goodput_on > goodput_off + 0.15)
    report(result)
