"""The resolver on the simulated transport: queries and responses travel
as ``Message``s, nothing is truncated on the way, every upstream query
advertises ``EDNS_PAYLOAD``, and a response that matches no query in
flight is counted and ignored while the query keeps waiting."""

import random
from dataclasses import replace

import pytest

from repro.dnscore import Message, RCode, RType, name, parse_zone_text
from repro.dnscore.message import Question, make_query
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import (
    EventLoop,
    InternetParams,
    Network,
    attach_host,
    build_internet,
)
from repro.resolver import RecursiveResolver
from repro.resolver.resolver import EDNS_PAYLOAD
from repro.server import (
    AuthoritativeEngine,
    HostNameserver,
    MachineConfig,
    NameserverMachine,
    ZoneStore,
)
from repro.server.machine import QueryEnvelope
from repro.server.pop import ResponseEnvelope

# A zone whose TXT answer cannot fit a classic 512-octet UDP response
# but fits the payload size the resolver advertises.
BIG_ZONE = (
    "$ORIGIN big.example.\n$TTL 300\n"
    "@ IN SOA ns1.big.example. admin.big.example. 1 2 3 4 300\n"
    "@ IN NS ns1.big.example.\n"
    "small IN A 10.0.0.1\n"
    + "".join(f'big IN TXT "{"x" * 120}{i:03d}"\n' for i in range(8)))

AUTHORITY = "10.77.0.1"
MACHINE_ID = "big-ns"


@pytest.fixture
def world():
    rng = random.Random(29)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                              n_stub=20))
    attach_host(inet, rng, host_id=AUTHORITY)
    attach_host(inet, rng, host_id="big-resolver")
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    store = ZoneStore()
    store.add(parse_zone_text(BIG_ZONE))
    machine = NameserverMachine(
        loop, MACHINE_ID, AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(), MachineConfig(staleness_threshold=float("inf")))
    HostNameserver(loop, net, AUTHORITY, machine)
    resolver = RecursiveResolver(
        loop, net, "big-resolver", {name("big.example"): [AUTHORITY]},
        rng=random.Random(5))
    return loop, net, store, resolver


def resolve(loop, resolver, qname, qtype):
    results = []
    resolver.resolve(name(qname), qtype, results.append)
    loop.run_until(loop.now + 20)
    assert results
    return results[0]


def big_response(store) -> Message:
    return AuthoritativeEngine(store).respond(
        make_query(1, name("big.big.example"), RType.TXT))


class TestMessageTransport:
    def test_small_answer_in_one_query(self, world):
        loop, _net, _store, resolver = world
        result = resolve(loop, resolver, "small.big.example", RType.A)
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["10.0.0.1"]
        assert (result.timeouts, result.queries_sent) == (0, 1)

    def test_big_answer_arrives_whole_in_one_query(self, world):
        loop, _net, _store, resolver = world
        result = resolve(loop, resolver, "big.big.example", RType.TXT)
        assert result.rcode == RCode.NOERROR
        assert len(result.answers[-1]) == 8
        assert (result.timeouts, result.queries_sent) == (0, 1)

    def test_every_upstream_query_advertises_edns_payload(self, world):
        loop, net, _store, resolver = world
        queries = []
        deliver = net.send

        def spy(dgram):
            if isinstance(dgram.payload, QueryEnvelope):
                queries.append(dgram.payload.message)
            deliver(dgram)

        net.send = spy
        resolve(loop, resolver, "small.big.example", RType.A)
        resolve(loop, resolver, "big.big.example", RType.TXT)
        assert len(queries) == 2
        for query in queries:
            assert query.edns is not None
            assert query.edns.payload_size == EDNS_PAYLOAD

    def test_responses_arrive_as_messages_from_their_machine(self, world):
        loop, _net, _store, resolver = world
        payloads = []
        original = resolver.handle_datagram

        def spy(dgram):
            payloads.append(dgram.payload)
            original(dgram)

        resolver.handle_datagram = spy
        resolve(loop, resolver, "small.big.example", RType.A)
        assert payloads
        for payload in payloads:
            assert isinstance(payload, ResponseEnvelope)
            assert isinstance(payload.message, Message)
            assert payload.machine_id == MACHINE_ID


class TestAdvertisedPayload:
    """What carrying ``Message``s whole relies on: the zone's biggest
    answer fits the payload size the resolver advertises, so a wire
    transport would not have truncated it either."""

    def test_big_answer_fits_edns_payload_untruncated(self, world):
        _loop, _net, store, _resolver = world
        wire = big_response(store).to_wire(max_size=EDNS_PAYLOAD)
        assert len(wire) <= EDNS_PAYLOAD
        decoded = Message.from_wire(wire)
        assert not decoded.flags.tc
        assert len(decoded.answers) == 8

    def test_big_answer_exceeds_the_classic_udp_limit(self, world):
        _loop, _net, store, _resolver = world
        wire = big_response(store).to_wire(max_size=512)
        assert len(wire) <= 512
        assert Message.from_wire(wire).flags.tc


def _other_id(message: Message) -> Message:
    return replace(message, msg_id=(message.msg_id + 1) % 65536)


def _other_question(message: Message) -> Message:
    return replace(message, questions=[
        Question(name("elsewhere.big.example"), RType.A)])


def _no_question(message: Message) -> Message:
    return replace(message, questions=[])


class TestStrayResponses:
    """A response whose id or question matches no query in flight is
    counted as unsolicited and ignored; the query waits, times out, and
    the retry succeeds."""

    @pytest.mark.parametrize("mutate", [_other_id, _other_question,
                                        _no_question])
    def test_counted_ignored_and_retried(self, world, mutate):
        loop, _net, _store, resolver = world
        original = resolver.handle_datagram
        seen = []

        def stray_first(dgram):
            seen.append(dgram.payload)
            if len(seen) == 1:
                dgram.payload = ResponseEnvelope(
                    mutate(dgram.payload.message), dgram.payload.machine_id)
            original(dgram)

        resolver.handle_datagram = stray_first
        result = resolve(loop, resolver, "small.big.example", RType.A)
        assert resolver.unsolicited_responses == 1
        assert len(seen) == 2
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["10.0.0.1"]
        assert (result.timeouts, result.queries_sent) == (1, 2)

    def test_duplicate_after_the_answer_is_unsolicited(self, world):
        loop, _net, _store, resolver = world
        original = resolver.handle_datagram

        def twice(dgram):
            original(dgram)
            original(dgram)

        resolver.handle_datagram = twice
        result = resolve(loop, resolver, "small.big.example", RType.A)
        assert resolver.unsolicited_responses == 1
        assert result.addresses() == ["10.0.0.1"]
        assert (result.timeouts, result.queries_sent) == (0, 1)
