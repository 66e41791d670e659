"""Tracked performance baseline: ``python -m repro.tools.bench``.

Writes ``BENCH_micro.json`` at the repository root — microbenchmarks of
the simulator core: event loop throughput, route-cached anycast
forwarding, and the O(1) ``pending`` counter. Ratio metrics (under
``"metrics"``) are hardware-independent and gate CI; absolute
throughput (under ``"info"``) varies with the host and is tracked for
local comparison only. Figure wall times are not recorded here:
``bench/run.py --figures-ledger`` times every figure per layer.

``--check`` re-runs the microbenchmarks and fails (exit 1) when any
gated metric regresses more than ``--tolerance`` (default 30%) against
the committed ``BENCH_micro.json``, or is missing from either side —
the CI ``tier-1 tests`` job runs exactly this after pytest, and ``make
bench-check`` does locally.

This module measures wall time by design; it is operator-facing tooling
that never feeds simulation results, so the wall-clock reads carry
documented DET001 suppressions (see the "Determinism contract" section
of docs/ARCHITECTURE.md).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import partial
from pathlib import Path

from ..netsim.bgp import LOCAL
from ..netsim.clock import EventLoop
from ..netsim.geo import GeoPoint
from ..netsim.network import Network
from ..netsim.packet import Datagram
from ..netsim.topology import Link, Node, NodeKind, Topology

MICRO_PATH = Path("BENCH_micro.json")


def _now() -> float:
    return time.perf_counter()  # reprolint: disable=DET001


def _best_of(measure, repeats: int = 3) -> float:
    """Minimum of ``repeats`` timings: scheduler noise only ever adds
    time, so the min is the most load-robust estimate for a CI gate."""
    return min(measure() for _ in range(repeats))


def _loop_seconds(call, n_calls: int) -> float:
    """Best-of-3 seconds for ``n_calls`` calls of ``call()``."""

    def one_run() -> float:
        started = _now()
        for _ in range(n_calls):
            call()
        return _now() - started

    return _best_of(one_run)


# -- microbenchmarks ----------------------------------------------------------


def bench_event_loop(n_events: int = 200_000) -> float:
    """Events/sec through a self-rescheduling timer chain."""
    loop = EventLoop()
    fired = [0]

    def tick() -> None:
        fired[0] += 1
        if fired[0] < n_events:
            loop.call_later(0.001, tick)

    loop.call_later(0.001, tick)
    started = _now()
    loop.run()
    elapsed = _now() - started
    assert fired[0] == n_events
    return n_events / elapsed


def _line_network() -> tuple[EventLoop, Network, list[int]]:
    """A 6-router line with a local delivery handler at the far end."""
    topo = Topology()
    routers = [f"r{i}" for i in range(6)]
    for i, router in enumerate(routers):
        topo.add_node(Node(router, asn=100 + i, kind=NodeKind.TRANSIT,
                           location=GeoPoint(0.0, float(i))))
    for a, b in zip(routers, routers[1:]):
        topo.add_link(Link(a, b, latency_ms=1.0))
    loop = EventLoop()
    net = Network(loop, topo, random.Random(7))
    got: list[int] = []
    net.register_local_delivery(routers[-1], "svc",
                                lambda d: got.append(d.payload))
    for a, b in zip(routers, routers[1:]):
        net.set_fib(a, "svc", b)
    net.set_fib(routers[-1], "svc", LOCAL)
    return loop, net, got


def bench_forwarding(n_packets: int = 20_000) -> float:
    """Best-of-3 seconds to deliver ``n_packets`` on a 6-router line."""

    def one_run() -> float:
        loop, net, got = _line_network()
        started = _now()
        for i in range(n_packets):
            net.send(Datagram(src="r0", dst="svc", payload=i,
                              src_port=i & 0xFFFF))
            loop.run()
        elapsed = _now() - started
        assert len(got) == n_packets
        return elapsed

    return _best_of(one_run)


_BENCH_ZONE = "\n".join(
    ["$ORIGIN bench.example.", "$TTL 300",
     "@ IN SOA ns1.bench.example. admin.bench.example. "
     "1 7200 3600 1209600 300",
     "@ IN NS ns1.bench.example.",
     "ns1 IN A 192.0.2.53"]
    + [f"h{i} IN A 192.0.2.{i + 1}" for i in range(40)]) + "\n"


def _bench_engine():
    from ..dnscore import parse_zone_text
    from ..server.engine import AuthoritativeEngine, ZoneStore

    return AuthoritativeEngine(ZoneStore([parse_zone_text(_BENCH_ZONE)]))


def _respond_battery(n_queries: int) -> list:
    """Pre-built queries cycling a handful of hot names (resolver
    traffic concentrates on few qnames, the plan cache's target)."""
    from ..dnscore import RType, make_query, name

    qnames = [name(f"h{i}.bench.example") for i in range(8)]
    qnames.append(name("h0.bench.example"))          # NODATA below
    battery = ([make_query(i, q, RType.A) for i, q in enumerate(qnames)]
               + [make_query(99, name("h1.bench.example"), RType.TXT)])
    return [battery[i % len(battery)] for i in range(n_queries)]


def _respond_seconds(queries: list, make_engine=_bench_engine,
                     entry: str = "respond") -> float:
    """Best-of-3 seconds for ``queries`` through a fresh engine's entry."""

    def one_run() -> float:
        call = getattr(make_engine(), entry)
        started = _now()
        for query in queries:
            call(query)
        return _now() - started

    return _best_of(one_run)


def bench_probe(n_probes: int = 10_000) -> float:
    """Best-of-3 seconds for ``n_probes`` engine.respond_probe calls
    re-asking one SOA question — the monitoring agent's loop, the most
    frequent engine call in the ``text`` figure."""
    from ..dnscore import RType, make_query, name

    probe = make_query(1, name("bench.example"), RType.SOA)
    return _respond_seconds([probe] * n_probes, entry="respond_probe")


def _signed_bench_engine():
    from ..dnscore import name
    from ..dnssec.keys import KeyRing
    from ..dnssec.sign import ZoneSigner

    engine = _bench_engine()
    keys = KeyRing(7, name("bench.example"))
    ZoneSigner(keys).sign(engine.store.get(keys.origin), 0.0)
    engine.dnssec.register_keyring(keys)
    return engine


def _do_battery(n_queries: int, do: bool) -> list:
    """The hot-qname battery with an EDNS OPT carrying the DO bit."""
    from ..dnscore import EDNSOptions, RType, make_query, name

    edns = EDNSOptions(payload_size=1232, dnssec_ok=do)
    qnames = [name(f"h{i}.bench.example") for i in range(8)]
    battery = [make_query(i, q, RType.A, edns=edns)
               for i, q in enumerate(qnames)]
    return [battery[i % len(battery)] for i in range(n_queries)]


def bench_signed_respond(n_queries: int = 10_000) -> tuple[float, float]:
    """(do0, do1) best-of-3 seconds for the respond loop over one
    signed zone.

    DO=0 is the pre-DNSSEC fast lane (RRSIGs stripped from the plan);
    DO=1 serves RRSIG-bearing plans from the same cache. The gated
    ratio bounds what answering validating resolvers costs relative to
    the legacy population on identical traffic.
    """
    return tuple(_respond_seconds(_do_battery(n_queries, do),
                                  _signed_bench_engine)
                 for do in (False, True))


def bench_nxdomain_flood(n_queries: int = 10_000) -> float:
    """Flood responses/sec: every qname unique (random-subdomain attack
    shape), served by the per-zone negative plan once it arms."""
    from ..dnscore import RType, make_query, name

    queries = [make_query(i & 0xFFFF, name(f"x{i}.bench.example"), RType.A)
               for i in range(n_queries)]
    return n_queries / _respond_seconds(queries)


def bench_observer_tap(n_queries: int = 10_000) -> tuple[float, float]:
    """(bare, armed-idle) seconds for the respond loop.

    *Bare* has no response observers (``respond_cached_qps`` is its
    throughput, the plan cache's hot workload); *armed-idle* attaches the
    NXDOMAIN filter's learning tap while serving only NOERROR traffic —
    the common steady state, whose per-response cost must stay at one
    rcode check.
    """
    from ..filters.nxdomain import NXDomainFilter

    def armed_engine():
        engine = _bench_engine()
        filt = NXDomainFilter(engine.store)
        engine.response_observers.append(
            lambda q, r: filt.observe_response(q, r, 0.0))
        return engine

    queries = _respond_battery(n_queries)
    return (_respond_seconds(queries),
            _respond_seconds(queries, armed_engine))


def bench_telemetry(n_queries: int = 8_000) -> tuple[float, float]:
    """(disabled, enabled) seconds for a hot instrumented machine path.

    The workload drives the fig10 testbed point — queue policy, scoring
    pipeline, firewall, and engine, i.e. the most hook-dense path in
    the tree. *Disabled* is the shipped default (no session active:
    every site is a call to a ``state`` helper that makes one identity
    test); *enabled* runs inside a full-sampling session with the
    standard detectors armed. The gated ratio bounds what turning
    telemetry on costs; the disabled-mode absolute feeds the same
    committed-baseline comparison as the forwarding benches, which also
    run entirely over instrumented code with no session active.
    """
    from ..experiments import fig10_nxdomain
    from ..telemetry import Telemetry, TelemetryConfig, standard_detectors
    from ..telemetry import state as telemetry_state

    measure = n_queries / 1_900.0   # legit 400/s + attack 1500/s
    params = fig10_nxdomain.Fig10Params(
        attack_rates=(1_500.0,), measure_seconds=measure,
        warmup_seconds=1.0)

    def one_point() -> float:
        started = _now()
        fig10_nxdomain._run_point(params, 1_500.0, True)
        return _now() - started

    def enabled_point() -> float:
        telemetry = Telemetry(TelemetryConfig(trace_sample_rate=1.0))
        standard_detectors(telemetry.alerts)
        with telemetry_state.session(telemetry):
            return one_point()

    return _best_of(one_point), _best_of(enabled_point)


def bench_wire_codec(n_messages: int = 2_000) -> tuple[float, float, float]:
    """Best-of-3 seconds for ``n_messages`` of each: (a) encode+decode
    round trips of a one-answer response, then a 40-A response (over 512
    octets) encoded (b) unbounded and (c) truncated to 512.

    (c) / (b) gates the encoder's cost model: a single-pass encoder
    stops at the first record that does not fit, so truncating costs no
    more than encoding everything; an encoder that drops one record and
    re-encodes until the message fits costs ~10x here.
    """
    from ..dnscore import A, Message, RType, make_query, make_response
    from ..dnscore import make_rrset, name

    def response(qname: str, addresses: list[str]) -> Message:
        owner = name(qname)
        message = make_response(make_query(1, owner, RType.A))
        message.add_rrset("answers", make_rrset(
            owner, RType.A, 300, [A(a) for a in addresses]))
        return message

    small = response("h1.bench.example", ["10.9.0.1"])
    fat = response("fat.bench.example",
                   [f"198.51.100.{i + 1}" for i in range(40)])

    return (_loop_seconds(lambda: Message.from_wire(small.to_wire()),
                          n_messages),
            _loop_seconds(fat.to_wire, n_messages),
            _loop_seconds(lambda: fat.to_wire(max_size=512), n_messages))


def bench_rrset_grouping(n_rounds: int = 5_000) -> tuple[float, float]:
    """Best-of-3 seconds to group ``n_rounds`` sections holding (a) one
    13-record NS RRset and (b) one record.

    (a) / (13 x (b)) gates the cost model of RRset building: grouping
    costs per record what a one-record set costs, however large the set.
    An ``RRset.add`` that rewrites or rescans the whole set on every
    record makes the ratio grow with the size of the set.
    """
    from ..dnscore import NS, RType, make_rrset, name
    from ..dnscore.message import _group_rrsets

    referral = make_rrset(
        name("bench.example"), RType.NS, 4000,
        [NS(name(f"ns{i}.bench.example")) for i in range(13)]).records

    return (_loop_seconds(partial(_group_rrsets, referral), n_rounds),
            _loop_seconds(partial(_group_rrsets, referral[:1]), n_rounds))


def bench_cached_resolutions(n_resolutions: int = 20_000) -> float:
    """Resolutions/sec a resolver answers from a cache filled ten seconds
    earlier: negative lookup, a copy of the answer with its TTL aged,
    result and callback; one in four follows a cached CNAME first."""
    from ..dnscore import A, CNAME, RType, make_rrset, name
    from ..resolver import RecursiveResolver

    topo = Topology()
    topo.add_node(Node("r0", asn=100, kind=NodeKind.TRANSIT,
                       location=GeoPoint(0.0, 0.0)))
    topo.add_node(Node("res", asn=100, kind=NodeKind.HOST,
                       location=GeoPoint(0.0, 0.0)))
    topo.add_link(Link("res", "r0", latency_ms=1.0))
    loop = EventLoop()
    resolver = RecursiveResolver(loop, Network(loop, topo, random.Random(7)),
                                 "res", {}, rng=random.Random(7))
    hosts = [name(f"h{i}.bench.example") for i in range(3)]
    for i, host in enumerate(hosts):
        resolver.cache.put(make_rrset(host, RType.A, 3600,
                                      [A(f"192.0.2.{i + 1}")]), -10.0)
    alias = name("alias.bench.example")
    resolver.cache.put(make_rrset(alias, RType.CNAME, 3600,
                                  [CNAME(hosts[0])]), -10.0)
    qnames = hosts + [alias]
    done = [0]

    def finished(result) -> None:
        done[0] += result.from_cache

    def one_run() -> float:
        done[0] = 0
        started = _now()
        for i in range(n_resolutions):
            resolver.resolve(qnames[i & 3], RType.A, finished)
        elapsed = _now() - started
        assert done[0] == n_resolutions
        return elapsed

    return n_resolutions / _best_of(one_run)


def bench_pending_ratio(large: int = 20_000, small: int = 50) -> float:
    """Cost ratio of ``loop.pending`` at two queue sizes (~1 when O(1))."""

    def pending_cost(n_queued: int) -> float:
        loop = EventLoop()
        for i in range(n_queued):
            loop.call_at(float(i + 1), int)

        def one_run() -> float:
            started = _now()
            for _ in range(20_000):
                loop.pending  # noqa: B018 - the read is the benchmark
            return _now() - started

        return _best_of(one_run)

    return pending_cost(large) / pending_cost(small)


def run_micro() -> dict:
    cached = bench_forwarding()
    probe_cached = bench_probe()
    flood_pps = bench_nxdomain_flood()
    tap_bare, tap_armed = bench_observer_tap()
    telemetry_off, telemetry_on = bench_telemetry()
    signed_do0, signed_do1 = bench_signed_respond()
    wire_roundtrip, encode_unbounded, encode_truncated = bench_wire_codec()
    group_referral, group_single = bench_rrset_grouping()
    return {
        "metrics": {
            # Gated, hardware-independent ratios.
            "pending_cost_ratio_20000_vs_50": round(
                bench_pending_ratio(), 3),
            "telemetry_enabled_overhead_ratio": round(
                telemetry_on / telemetry_off, 3),
            "signed_respond_overhead_ratio": round(
                signed_do1 / signed_do0, 3),
            "truncated_encode_cost_ratio": round(
                encode_truncated / encode_unbounded, 3),
            "rrset_group_cost_ratio": round(
                group_referral / (13 * group_single), 3),
        },
        "info": {
            # Absolute throughput; varies with host, never gated.
            "event_loop_events_per_sec": round(bench_event_loop()),
            "forwarding_cached_pkts_per_sec": round(20_000 / cached),
            "flood_pkts_per_sec": round(flood_pps),
            "respond_cached_qps": round(10_000 / tap_bare),
            "probe_cached_qps": round(10_000 / probe_cached),
            "observer_tap_idle_overhead_ratio": round(
                tap_armed / tap_bare, 3),
            "telemetry_disabled_point_s": round(telemetry_off, 3),
            "telemetry_enabled_point_s": round(telemetry_on, 3),
            "signed_respond_do0_qps": round(10_000 / signed_do0),
            "signed_respond_do1_qps": round(10_000 / signed_do1),
            "wire_roundtrip_msgs_per_sec": round(2_000 / wire_roundtrip),
            "resolver_cached_resolutions_per_sec": round(
                bench_cached_resolutions()),
        },
    }


#: metric name -> direction ("higher"/"lower" is better) for --check.
_GATED = {
    "pending_cost_ratio_20000_vs_50": "lower",
    "telemetry_enabled_overhead_ratio": "lower",
    "signed_respond_overhead_ratio": "lower",
    "truncated_encode_cost_ratio": "lower",
    "rrset_group_cost_ratio": "lower",
}


def check_micro(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """One line per gated metric that is missing from either side or
    regressed (empty when clean)."""
    failures = []
    for metric, direction in _GATED.items():
        want = committed.get("metrics", {}).get(metric)
        got = fresh["metrics"].get(metric)
        if want is None or got is None:
            where = "committed baseline" if want is None else "fresh run"
            failures.append(f"MISSING {metric}: not in the {where}")
            continue
        if direction == "higher":
            bound = want * (1.0 - tolerance)
            bad = got < bound
        else:
            bound = want * (1.0 + tolerance)
            bad = got > bound
        if bad:
            failures.append(
                f"REGRESSION {metric}: {got} vs committed {want} "
                f"(allowed {'>=' if direction == 'higher' else '<='} "
                f"{bound:.3f})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare fresh microbenchmarks against the "
                             "committed BENCH_micro.json instead of "
                             "rewriting it")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression for --check "
                             "(default 0.30)")
    args = parser.parse_args(argv)

    fresh = run_micro()
    if args.check:
        if not MICRO_PATH.exists():
            print(f"{MICRO_PATH} missing; run `make bench` first",
                  file=sys.stderr)
            return 1
        committed = json.loads(MICRO_PATH.read_text())
        failures = check_micro(committed, fresh, args.tolerance)
        for line in failures:
            print(line, file=sys.stderr)
        print(f"bench-check: {len(_GATED) - len(failures)}/{len(_GATED)} "
              f"gated metrics within {args.tolerance:.0%}")
        return 1 if failures else 0

    MICRO_PATH.write_text(json.dumps(fresh, indent=2) + "\n")
    print(f"wrote {MICRO_PATH}: {json.dumps(fresh['metrics'])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
