"""Tests for the attack-traffic generators and their filter coverage.

Beyond generator mechanics, this module verifies the section 4.3.4
taxonomy end to end: each attack class is caught by the filter designed
for it and missed by the weaker filters it is designed to evade.
"""

import hashlib
import random
import subprocess
import sys

import pytest

from repro.dnscore import RType, name
from repro.filters import (
    AllowlistConfig,
    AllowlistFilter,
    HopCountFilter,
    LoyaltyFilter,
    QueryContext,
    RateLimitFilter,
)
from repro.netsim import EventLoop
from repro.server.machine import QueryEnvelope
from repro.workload import (
    DirectQueryAttack,
    JunkPayload,
    QoDInjector,
    RandomSubdomainAttack,
    SpoofedIdentity,
    SpoofedSourceAttack,
    VolumetricAttack,
    random_label,
)

VICTIM = name("victim.example")
VALID = [name(f"h{i}.victim.example") for i in range(5)]


def collect(attack_cls, duration=5.0, **kwargs):
    loop = EventLoop()
    packets = []
    rng = random.Random(8)
    attack = attack_cls(loop, rng, packets.append, rate_pps=200.0,
                        duration=duration, **kwargs)
    attack.start()
    loop.run_until(duration + 1.0)
    return attack, packets


class TestGenerators:
    def test_volumetric_is_not_dns(self):
        attack, packets = collect(VolumetricAttack, target="pop-x")
        assert packets
        assert all(isinstance(p.payload, JunkPayload) for p in packets)
        assert attack.stats.packets_sent == len(packets)

    def test_direct_query_uses_valid_names(self):
        _, packets = collect(DirectQueryAttack, target="ns",
                             qnames=VALID, source_count=4)
        for p in packets:
            envelope = p.payload
            assert isinstance(envelope, QueryEnvelope)
            assert envelope.is_attack
            assert envelope.message.question.qname in VALID
        sources = {p.src for p in packets}
        assert len(sources) <= 4

    def test_random_subdomain_names_are_random(self):
        _, packets = collect(RandomSubdomainAttack, target="ns",
                             victim_zone=VICTIM,
                             sources=["10.1.1.1", "10.1.1.2"])
        qnames = {str(p.payload.message.question.qname) for p in packets}
        assert len(qnames) > len(packets) * 0.9
        assert all(q.endswith("victim.example.") for q in qnames)

    def test_spoofed_without_ttl_uses_attacker_hopcount(self):
        identities = [SpoofedIdentity("8.8.8.8")]
        _, packets = collect(SpoofedSourceAttack, target="ns",
                             identities=identities, qnames=VALID,
                             attacker_ip_ttl=33)
        assert all(p.src == "8.8.8.8" for p in packets)
        assert all(p.ip_ttl == 33 for p in packets)

    def test_spoofed_with_ttl_forges_it(self):
        identities = [SpoofedIdentity("8.8.8.8", ip_ttl=57)]
        _, packets = collect(SpoofedSourceAttack, target="ns",
                             identities=identities, qnames=VALID)
        assert all(p.ip_ttl == 57 for p in packets)

    def test_stop(self):
        loop = EventLoop()
        packets = []
        attack = DirectQueryAttack(loop, random.Random(1), packets.append,
                                   rate_pps=100.0, duration=100.0,
                                   target="ns", qnames=VALID)
        attack.start()
        loop.run_until(1.0)
        attack.stop()
        count = len(packets)
        loop.run_until(10.0)
        assert len(packets) == count

    def test_qod_injector(self):
        loop = EventLoop()
        packets = []
        injector = QoDInjector(loop, packets.append, "ns")
        injector.fire(name("crash.victim.example"))
        assert packets[0].payload.poison
        assert injector.sent == 1

    def test_random_label_deterministic(self):
        assert random_label(random.Random(3)) == \
            random_label(random.Random(3))


#: The first 500 packets of each attack class at seed 2020, as
#: :func:`stream_digest` spells them. The generators draw with the RNG's
#: primitives and build their packets positionally; these pin that the
#: stream is the one ``choice`` / ``randint`` / ``expovariate`` and
#: ``make_query`` gave.
STREAM_DIGESTS = {
    "volumetric":
        "6339d6c9c4d1b5487a3b913e6e57fc17baa8849fc82c1d814c609a087d3b8836",
    "direct_query":
        "2ae8e60d2e4580a95617897781bb483ce8defd4b8d40461647f3459640e784ce",
    "random_subdomain":
        "d46295eb161c441b4b78b10831d47462a12e2feb9385359a0c6a27aa2ff8b7ae",
    "spoofed_source":
        "f22fbb6810af7e1549ec500edfe0656b5f34dff52e7132f190acccd50f688ff4",
    "spoofed_source_ttl":
        "324292bfe932fb1e41440b593a40441e10dda422cb07d77f43cffd80d7252352",
}


def _stream(kind):
    identities = [SpoofedIdentity(f"192.0.2.{i}") for i in range(1, 4)]
    forged = [SpoofedIdentity(f"192.0.2.{i}", ip_ttl=50 + i)
              for i in range(1, 4)] + [SpoofedIdentity("192.0.2.9")]
    return {
        "volumetric": (VolumetricAttack, dict(target="pop-x")),
        "direct_query": (DirectQueryAttack,
                         dict(target="ns", qnames=VALID, source_count=6)),
        "random_subdomain": (RandomSubdomainAttack,
                             dict(target="ns", victim_zone=VICTIM,
                                  sources=["10.1.1.1", "10.1.1.2",
                                           "10.1.1.3"],
                                  source_ip_ttls={"10.1.1.2": 51})),
        "spoofed_source": (SpoofedSourceAttack,
                           dict(target="ns", identities=identities,
                                qnames=VALID, attacker_ip_ttl=37)),
        "spoofed_source_ttl": (SpoofedSourceAttack,
                               dict(target="ns", identities=forged,
                                    qnames=VALID)),
    }[kind]


def stream_digest(kind, count=500, seed=2020):
    """sha256 over the first ``count`` packets of one attack class: each
    packet's inter-arrival time, addresses, ports, IP TTL, and for a
    query its id, flags, qname and qtype."""
    attack_cls, kwargs = _stream(kind)
    loop = EventLoop()
    lines = []
    last = [0.0]

    def send(p):
        now = loop.now
        message = getattr(p.payload, "message", None)
        query = (None if message is None else
                 (message.msg_id,
                  int.from_bytes(message.to_wire()[2:4], "big"),
                  str(message.question.qname), int(message.question.qtype),
                  len(message.questions), message.edns,
                  p.payload.is_attack))
        lines.append(repr(((now - last[0]).hex(), p.src, p.dst, p.src_port,
                           p.dst_port, p.ip_ttl, p.hops, query)))
        last[0] = now

    attack_cls(loop, random.Random(seed), send, rate_pps=1_000.0,
               duration=1e9, **kwargs).start()
    loop.run(max_events=count)
    assert len(lines) == count
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(STREAM_DIGESTS))
def test_generator_stream_is_pinned(kind):
    assert stream_digest(kind) == STREAM_DIGESTS[kind]


class TestTaxonomyCoverage:
    """Each attack class vs the filter built for it (section 4.3.4)."""

    def test_direct_query_caught_by_rate_limit(self):
        f = RateLimitFilter()
        f.prime("198.18.0.1", 5.0)
        penalties = [
            f.score(QueryContext("198.18.0.1", VALID[0], RType.A,
                                 now=i * 0.002))
            for i in range(2_000)]
        assert sum(1 for p in penalties if p) > 1_500

    def test_wide_botnet_evades_rate_limit_caught_by_allowlist(self):
        rate = RateLimitFilter()
        allow = AllowlistFilter(allowlist={"known-1"})
        rate_hits = allow_hits = 0
        for i in range(30_000):          # 5,000 qps for 6 s
            source = f"bot-{i % 2500}"   # each bot stays under its limit
            ctx = QueryContext(source, VALID[0], RType.A, now=i * 0.0002)
            if rate.score(ctx):
                rate_hits += 1
            if allow.score(ctx):
                allow_hits += 1
        assert rate_hits == 0
        assert allow_hits > 5_000

    def test_random_subdomain_evades_per_source_filters(self):
        # The attack arrives from known resolvers at plausible rates, so
        # allowlist and rate limit see nothing wrong; only the NXDOMAIN
        # filter (tested in tests/filters/test_nxdomain.py) catches it.
        allow = AllowlistFilter(AllowlistConfig(activate_qps=1e9),
                                allowlist={"resolver-1"})
        rng = random.Random(4)
        hits = 0
        for i in range(500):
            qname = VICTIM.prepend(random_label(rng))
            ctx = QueryContext("resolver-1", qname, RType.A, now=i * 0.1)
            if allow.score(ctx):
                hits += 1
        assert hits == 0

    def test_spoofed_source_caught_by_hopcount(self):
        f = HopCountFilter()
        f.prime("8.8.8.8", 58)
        spoofed = QueryContext("8.8.8.8", VALID[0], RType.A, now=0.0,
                               ip_ttl=33)
        assert f.score(spoofed) > 0

    def test_spoofed_ttl_evades_hopcount_caught_by_loyalty(self):
        hopcount = HopCountFilter()
        hopcount.prime("8.8.8.8", 58)
        # Attacker forged the TTL perfectly.
        forged = QueryContext("8.8.8.8", VALID[0], RType.A, now=0.0,
                              ip_ttl=58)
        assert hopcount.score(forged) == 0.0
        # But the far-away nameserver has never served this resolver.
        loyalty = LoyaltyFilter()
        for i in range(10):
            loyalty.prime(f"local-{i}", 0.0)
        assert loyalty.score(forged) > 0


def test_serving_and_attack_modules_load_without_numpy():
    # numpy is ~14 MB of RSS; only analysis, arrivals and the figures
    # use it, so the platform, chaos and attack paths must not load it.
    modules = ("repro.platform", "repro.chaos", "repro.server",
               "repro.resolver", "repro.dnssec", "repro.telemetry",
               "repro.workload.attacks")
    code = "".join(f"import {module}\n" for module in modules) + \
        "import sys\nassert 'numpy' not in sys.modules\n"
    completed = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr[-2000:]
