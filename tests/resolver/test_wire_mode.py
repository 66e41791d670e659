"""End-to-end wire-format tests: size limits, truncation, TCP retry."""

import random
import struct

import pytest

from repro.dnscore import RCode, RType, name, parse_zone_text
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import (
    EventLoop,
    InternetParams,
    Network,
    attach_host,
    build_internet,
)
from repro.resolver import RecursiveResolver
from repro.server import (
    AuthoritativeEngine,
    HostNameserver,
    MachineConfig,
    NameserverMachine,
    ZoneStore,
)

from ..dnscore.test_wire_hostile import _response_with

# A zone whose apex TXT answer cannot fit a 512-octet UDP response.
BIG_ZONE = (
    "$ORIGIN wire.example.\n$TTL 300\n"
    "@ IN SOA ns1.wire.example. admin.wire.example. 1 2 3 4 300\n"
    "@ IN NS ns1.wire.example.\n"
    "small IN A 10.0.0.1\n"
    + "".join(f'big IN TXT "{"x" * 120}{i:03d}"\n' for i in range(8)))


@pytest.fixture
def world():
    rng = random.Random(29)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                              n_stub=20))
    attach_host(inet, rng, host_id="10.77.0.1")
    attach_host(inet, rng, host_id="wire-resolver")
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    store = ZoneStore()
    store.add(parse_zone_text(BIG_ZONE))
    machine = NameserverMachine(
        loop, "wire-ns", AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(),
        MachineConfig(staleness_threshold=float("inf"),
                      wire_responses=True))
    HostNameserver(loop, net, "10.77.0.1", machine)
    # EDNS disabled: the classic 512-octet UDP limit applies, which is
    # what the truncation tests exercise.
    resolver = RecursiveResolver(
        loop, net, "wire-resolver",
        {name("wire.example"): ["10.77.0.1"]},
        rng=random.Random(5), edns_payload=None)
    return loop, resolver


def resolve(loop, resolver, qname, qtype):
    results = []
    resolver.resolve(name(qname), qtype, results.append)
    loop.run_until(loop.now + 20)
    assert results
    return results[0]


class TestWireMode:
    def test_small_answer_over_udp(self, world):
        loop, resolver = world
        result = resolve(loop, resolver, "small.wire.example", RType.A)
        assert result.rcode == RCode.NOERROR
        assert result.tcp_retries == 0
        assert result.addresses() == ["10.0.0.1"]

    def test_big_answer_truncates_then_tcp(self, world):
        loop, resolver = world
        result = resolve(loop, resolver, "big.wire.example", RType.TXT)
        assert result.rcode == RCode.NOERROR
        assert result.tcp_retries == 1
        # The full RRset arrived over TCP.
        assert len(result.answers[-1]) == 8

    def test_tcp_retry_costs_a_round_trip(self, world):
        loop, resolver = world
        small = resolve(loop, resolver, "small.wire.example", RType.A)
        resolver.cache.flush()
        big = resolve(loop, resolver, "big.wire.example", RType.TXT)
        assert big.queries_sent == small.queries_sent + 1
        assert big.duration > small.duration

    def test_edns_payload_size_avoids_truncation(self, world):
        loop, resolver = world
        # Advertising a modern payload size makes the big answer fit UDP
        # (this is also the resolver default).
        resolver.edns_payload = 4096
        result = resolve(loop, resolver, "big.wire.example", RType.TXT)
        assert result.rcode == RCode.NOERROR
        assert result.tcp_retries == 0
        assert len(result.answers[-1]) == 8

    def test_wire_bytes_actually_flow(self, world):
        loop, resolver = world
        captured = []
        original = resolver.handle_datagram

        def spy(dgram):
            captured.append(dgram.payload.wire)
            original(dgram)

        resolver.handle_datagram = spy
        resolve(loop, resolver, "small.wire.example", RType.A)
        assert captured and all(isinstance(w, bytes) for w in captured)


def _truncated(wire: bytes) -> bytes:
    return wire[:len(wire) - 5]


def _inflated_answer_count(wire: bytes) -> bytes:
    mutated = bytearray(wire)
    struct.pack_into("!H", mutated, 6, 0x7FFF)
    return bytes(mutated)


def _empty_txt_rdata(wire: bytes) -> bytes:
    return wire[:2] + _response_with(RType.TXT, b"")[2:]    # keep the id


class TestMalformedResponses:
    """Mutations from tests/dnscore/test_wire_hostile.py, delivered to a
    resolver in wire mode: dropped and counted, never raised into the
    event loop; the attempt times out and the retry succeeds."""

    @pytest.mark.parametrize("mutate", [_truncated, _inflated_answer_count,
                                        _empty_txt_rdata])
    def test_dropped_counted_and_retried(self, world, mutate):
        loop, resolver = world
        original = resolver.handle_datagram
        seen = []

        def corrupt_first(dgram):
            seen.append(dgram.payload.wire)
            if len(seen) == 1:
                dgram.payload.wire = mutate(dgram.payload.wire)
            original(dgram)

        resolver.handle_datagram = corrupt_first
        result = resolve(loop, resolver, "small.wire.example", RType.A)
        assert resolver.malformed_responses == 1
        assert len(seen) == 2
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["10.0.0.1"]
        assert (result.timeouts, result.queries_sent) == (1, 2)
