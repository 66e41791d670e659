"""Golden end-to-end check of the resolver's read path.

A small seeded hierarchy (root -> net -> gold.net on two live servers and
one dead one -> sub.gold.net) answers a seeded stream of 300 resolutions:
cache hits, a CNAME chase inside and across zones, a referral, NXDOMAIN,
NODATA and timeouts with retry. What every resolution returned — names,
rcode, addresses, the TTL of every answer RRset and of every record in
it, completion time, upstream queries and the servers asked — was
recorded before the read path stopped copying cache entries
(``python -m tests.resolver.test_resolution_golden --record``) and must
stay byte-identical: the read path is a speed change only.
"""

import cProfile
import contextlib
import json
import random
import sys
from pathlib import Path

from repro.dnscore import RCode, RType, name
from repro.netsim import (
    EventLoop,
    InternetParams,
    Network,
    attach_host,
    build_internet,
)
from repro.resolver import RecursiveResolver
from repro.server import HostNameserver
from repro.tools import profile

from .test_resolver import mk_machine

GOLDEN = Path(__file__).with_name("resolution_golden.jsonl")

#: Work per resolution over the stream, resolver and servers together:
#: calls made (``profile.calls_made``; 155.3 before the round trip was
#: trimmed, 127.1 after) and dataclass records (10.12 both).
CALLS_PER_RESOLUTION = 135.0
RECORDS_PER_RESOLUTION = 10.2

ROOT, TLD, GOLD_A, GOLD_B, DEAD, SUB = (
    "198.41.0.4", "192.5.6.30", "10.50.0.1", "10.50.0.2", "10.50.0.9",
    "10.50.0.3")

ZONES = {
    ROOT: """\
$ORIGIN .
$TTL 86400
@ IN SOA a.root. admin.root. 1 2 3 4 300
@ IN NS a.root.
a.root. IN A 198.41.0.4
net. IN NS a.gtld.net.
a.gtld.net. IN A 192.5.6.30
""",
    TLD: """\
$ORIGIN net.
$TTL 86400
@ IN SOA a.gtld.net. admin.net. 1 2 3 4 300
@ IN NS a.gtld.net.
a.gtld.net. IN A 192.5.6.30
gold.net. 90 IN NS ns1.dns.net.
gold.net. 90 IN NS ns2.dns.net.
gold.net. 90 IN NS ns3.dns.net.
ns1.dns.net. 90 IN A 10.50.0.1
ns2.dns.net. 90 IN A 10.50.0.2
ns3.dns.net. 90 IN A 10.50.0.9
""",
    GOLD_A: """\
$ORIGIN gold.net.
$TTL 30
@ IN SOA ns1.dns.net. admin.gold.net. 1 2 3 4 20
@ 90 IN NS ns1.dns.net.
@ 90 IN NS ns2.dns.net.
@ 90 IN NS ns3.dns.net.
www IN A 93.184.216.34
multi IN A 93.184.216.1
multi IN A 93.184.216.2
multi IN A 93.184.216.3
alias IN CNAME www
far 45 IN CNAME www.sub.gold.net.
nodata IN TXT "x"
sub 60 IN NS ns.sub.gold.net.
ns.sub.gold.net. 60 IN A 10.50.0.3
""",
    SUB: """\
$ORIGIN sub.gold.net.
$TTL 15
@ IN SOA ns.sub.gold.net. admin.sub.gold.net. 1 2 3 4 10
@ 60 IN NS ns.sub.gold.net.
ns 60 IN A 10.50.0.3
www IN A 10.50.7.7
""",
}
ZONES[GOLD_B] = ZONES[GOLD_A]

#: (qname, qtype, weight): hot names re-asked inside their TTL, names that
#: outlive it, a CNAME inside the zone and one across a cut, negatives.
QUESTIONS = [
    ("www.gold.net", RType.A, 8), ("multi.gold.net", RType.A, 4),
    ("alias.gold.net", RType.A, 3), ("far.gold.net", RType.A, 3),
    ("www.sub.gold.net", RType.A, 3), ("nodata.gold.net", RType.A, 2),
    ("www.gold.net", RType.AAAA, 1), ("alias.gold.net", RType.CNAME, 1),
] + [(f"missing{i}.gold.net", RType.A, 1) for i in range(4)]


def build_world():
    rng = random.Random(41)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                              n_stub=24))
    for host in (*ZONES, DEAD, "golden-resolver"):
        attach_host(inet, rng, host_id=host)
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    for host, text in ZONES.items():
        HostNameserver(loop, net, host, mk_machine(loop, [text], f"m-{host}"))
    loop.run_until(25)
    resolver = RecursiveResolver(loop, net, "golden-resolver",
                                 {name("."): [ROOT]}, rng=random.Random(5))
    return loop, resolver


def row(result):
    return [str(result.qname), result.qtype.name, result.rcode.name,
            result.addresses(),
            [[str(s.name), s.rtype.name, s.ttl, [r.ttl for r in s.records]]
             for s in result.answers],
            result.finished_at, result.queries_sent, result.timeouts,
            result.servers, result.from_cache]


def run_stream(n=300, seed=2024, profiler=None):
    """The recorded stream; ``profiler`` (a ``cProfile.Profile``), when
    given, is on while it runs and off while the world is built."""
    loop, resolver = build_world()
    rng = random.Random(seed)
    weights = [w for _q, _t, w in QUESTIONS]
    results = [None] * n
    at = loop.now
    for i in range(n):
        at += rng.expovariate(0.6)
        qname, qtype, _w = rng.choices(QUESTIONS, weights)[0]

        def done(result, i=i):
            results[i] = result

        loop.call_at(at, resolver.resolve, name(qname), qtype, done)
    with (contextlib.nullcontext() if profiler is None
          else profile.profiling(profiler)):
        loop.run_until(at + 60)
    # Rendered after the run: a result handed out is not changed later.
    return [None if r is None else row(r) for r in results], resolver


def render(rows, resolver):
    """One JSON value per line: cache counters, queries per server, rows."""
    cache = resolver.cache
    head = [[cache.hits, cache.misses, len(cache)],
            resolver.queries_by_server]
    return "".join(json.dumps(value) + "\n" for value in head + rows)


def test_stream_is_byte_identical_to_the_recording():
    rows, resolver = run_stream()
    assert render(rows, resolver) == GOLDEN.read_text()


def test_work_per_resolution_stays_within_the_bound():
    """The same stream, same answers, counted: Python and builtin calls
    and dataclass records per resolution."""
    profiler = cProfile.Profile()
    rows, resolver = run_stream(profiler=profiler)
    assert render(rows, resolver) == GOLDEN.read_text()
    calls = profile.calls_made(profiler) / len(rows)
    records = sum(profile.records_by_class(profiler).values()) / len(rows)
    assert calls <= CALLS_PER_RESOLUTION, calls
    assert records <= RECORDS_PER_RESOLUTION, records


def test_recording_covers_the_cases_it_claims():
    rows = [json.loads(line) for line in GOLDEN.read_text().splitlines()[2:]]
    assert len(rows) == 300 and None not in rows
    by_name = {}
    for r in rows:
        by_name.setdefault((r[0].rstrip("."), r[1]), []).append(r)
    assert any(r[9] for r in rows) and not all(r[9] for r in rows)
    assert any(r[7] > 0 and r[2] == "NOERROR" for r in rows)    # retried
    assert any(DEAD in r[8] for r in rows)
    assert all(r[2] == "NXDOMAIN" for r in by_name[("missing0.gold.net", "A")])
    assert all(r[2] == "NOERROR" and not r[3]
               for r in by_name[("nodata.gold.net", "A")])
    # CNAME chase: two answer RRsets, the second from the other zone.
    far = by_name[("far.gold.net", "A")]
    assert all([s[1] for s in r[4]] == ["CNAME", "A"] for r in far)
    assert any(SUB in r[8] for r in far)                        # referral
    # Cache hits hand out aged TTLs, on the RRset and on every record.
    aged = [s for r in rows if r[9] for s in r[4]]
    assert any(s[2] < 30 for s in aged if s[0].startswith("www.gold"))
    assert all(ttls == [s[2]] * len(ttls) for r in rows
               for s in r[4] for ttls in [s[3]])


def test_answer_from_cache_carries_the_aged_ttl():
    loop, resolver = build_world()
    results = []
    resolver.resolve(name("multi.gold.net"), RType.A, results.append)
    while not results:
        loop.run_until(loop.now + 0.25)
    loop.run_until(results[0].finished_at + 7.5)
    resolver.resolve(name("multi.gold.net"), RType.A, results.append)
    first, second = results
    assert first.rcode == second.rcode == RCode.NOERROR
    assert not first.from_cache and second.from_cache
    assert first.answers[0].ttl == 30
    assert second.answers[0].ttl == 22          # int(30 - 7.5)
    assert [r.ttl for r in second.answers[0].records] == [22, 22, 22]
    assert second.addresses() == first.addresses()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python -m " + __spec__.name + " --record")
    GOLDEN.write_text(render(*run_stream()))
    print(f"wrote {GOLDEN}")
