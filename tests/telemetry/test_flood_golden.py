"""Golden recording of a telemetry session watching a flood.

A small platform (filters on, machines sized to saturate) takes three
attack classes through the network beside four resolvers' legitimate
queries, with a sampling session and low-threshold detectors active:
every packet-path row fires — ``queries_received_total``,
``queries_answered_total``, the two penalty-queue rows,
``queries_dropped_total``, the two filter rows, ``zone_responses_total``
— and alerts raise. ``Telemetry.export()`` and every span, instant and
alert (``jsonl_events``) were recorded when each of these sites still
called a hook of its own (``python -m tests.telemetry.test_flood_golden
--record``) and must stay byte-identical: detectors subscribed to rows
and spans opened through ``state`` change nothing recorded.
"""

import json
import random
import sys
from pathlib import Path

from repro.dnscore import RType, name
from repro.netsim.builder import InternetParams, attach_host
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.server.machine import MachineConfig
from repro.telemetry import (
    AlertSeverity,
    GaugeDetector,
    RateDetector,
    RatioDetector,
    Telemetry,
    TelemetryConfig,
)
from repro.telemetry import state as telemetry_state
from repro.telemetry.exporters import jsonl_events
from repro.workload.attacks import (
    DirectQueryAttack,
    RandomSubdomainAttack,
    SpoofedIdentity,
    SpoofedSourceAttack,
)

GOLDEN = Path(__file__).with_name("flood_golden.jsonl")

ORIGIN = "victim.net"
N_NAMES = 40
FLOOD_SECONDS = 3.0


def run_flood() -> Telemetry:
    telemetry = Telemetry(TelemetryConfig(seed=3, trace_sample_rate=0.05))
    # Detectors go in after the session is built, as the benchmark and
    # the scorecard do: three of the standard four, in their order, at
    # thresholds low enough that this flood trips them.
    alerts = telemetry.alerts
    alerts.add(RateDetector(
        "qps-spike", window=1.0, threshold=300.0, for_windows=2,
        severity=AlertSeverity.CRITICAL), "queries_received_total")
    alerts.add(RatioDetector(
        "nxdomain-ratio", window=1.0, threshold=0.2, min_count=20,
        for_windows=2, severity=AlertSeverity.CRITICAL),
        "queries_answered_total", "rcode=NXDOMAIN")
    alerts.add(GaugeDetector("queue-depth", window=1.0, threshold=20.0),
               "penalty_queue_depth")
    with telemetry_state.session(telemetry):
        dep = AkamaiDNSDeployment(DeploymentParams(
            seed=11, n_pops=6, deployed_clouds=6, machines_per_pop=1,
            pops_per_cloud=2, n_edge_servers=4,
            internet=InternetParams(n_tier1=4, n_tier2=8, n_stub=20),
            filters_enabled=True,
            machine_config=MachineConfig(
                compute_capacity_qps=150.0, io_capacity_qps=300.0,
                io_burst_seconds=0.05, queue_depth=40)))
        body = "$TTL 30\n" + "".join(
            f"h{i} IN A 10.99.0.{i + 1}\n" for i in range(N_NAMES))
        clouds = dep.provision_enterprise("victim", ORIGIN, body)
        stubs = sorted(dep.internet.stubs)
        for i in range(4):
            attach_host(dep.internet, dep.rng, host_id=f"198.18.0.{i + 1}",
                        attach_to=stubs[i * len(stubs) // 4])
        carriers = [dep.add_resolver(f"carrier{i}").host_id
                    for i in range(4)]
        dep.settle(30.0)
        resolvers = [dep.add_resolver(f"res{i}") for i in range(4)]
        hosts = [name(f"h{i}.{ORIGIN}") for i in range(N_NAMES)]
        loop = dep.loop
        rng = random.Random(17)
        start = loop.now
        at = start
        while at < start + FLOOD_SECONDS:
            at += rng.expovariate(40.0)
            loop.call_at(at, rng.choice(resolvers).resolve,
                         rng.choice(hosts), RType.A, lambda result: None)
        send = dep.network.send
        for target in (clouds[0].prefix, clouds[1].prefix):
            attacks = [
                RandomSubdomainAttack(
                    loop, random.Random(rng.randrange(2 ** 31)), send,
                    400.0, FLOOD_SECONDS, target=target,
                    victim_zone=name(ORIGIN), sources=carriers),
                DirectQueryAttack(
                    loop, random.Random(rng.randrange(2 ** 31)), send,
                    150.0, FLOOD_SECONDS, target=target, qnames=hosts,
                    source_count=4),
                SpoofedSourceAttack(
                    loop, random.Random(rng.randrange(2 ** 31)), send,
                    100.0, FLOOD_SECONDS, target=target, qnames=hosts,
                    identities=[SpoofedIdentity(a) for a in carriers[:2]]),
            ]
            for attack in attacks:
                attack.start()
        loop.run_until(start + FLOOD_SECONDS + 8.0)
    return telemetry


def render(telemetry: Telemetry) -> str:
    """The export on the first line, then one span/instant/alert a line."""
    lines = [json.dumps(telemetry.export(), sort_keys=True)]
    return "\n".join(lines + jsonl_events(telemetry)) + "\n"


def test_session_is_byte_identical_to_the_recording():
    assert render(run_flood()) == GOLDEN.read_text()


def test_recording_covers_the_hooks_it_claims():
    lines = GOLDEN.read_text().splitlines()
    export = json.loads(lines[0])
    counters = export["metrics"]["counters"]

    def total(family: str) -> float:
        return sum(v for k, v in counters.items() if k.startswith(family))

    assert total("queries_received_total") > 3000
    assert 0 < total("queries_answered_total") \
        < total("queries_received_total")
    for reason in ("io", "queue"):
        assert any(k.startswith("queries_dropped_total")
                   and f"reason={reason}" in k for k in counters), reason
    assert total("penalty_enqueued_total") > 0
    assert total("filter_penalties_total") > 0
    assert any("rcode=NXDOMAIN" in k for k in counters
               if k.startswith("zone_responses_total"))
    assert export["metrics"]["gauges"]
    assert export["metrics"]["histograms"][
        "filter_penalty_score"]["count"] > 0
    assert {a["name"] for a in export["alerts"]} >= {
        "qps-spike", "nxdomain-ratio", "queue-depth"}
    assert any(a["cleared_at"] is not None for a in export["alerts"])
    kinds = [json.loads(line)["kind"] for line in lines[1:]]
    assert kinds.count("span") > 20 and kinds.count("instant") > 20
    assert kinds.count("alert") == len(export["alerts"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python -m " + __spec__.name + " --record")
    GOLDEN.write_text(render(run_flood()))
    print(f"wrote {GOLDEN}")
