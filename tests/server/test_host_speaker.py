"""Tests for the unicast host adapter and the machine BGP speaker."""

import random

import pytest

from repro.dnscore import RCode, RType, make_query, name, parse_zone_text
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import (
    Datagram,
    EventLoop,
    InternetParams,
    Network,
    attach_host,
    attach_pop,
    build_internet,
)
from repro.server import (
    AuthoritativeEngine,
    HostNameserver,
    MachineBGPSpeaker,
    MachineConfig,
    NameserverMachine,
    PoP,
    QueryEnvelope,
    ZoneStore,
)

ZONE = """\
$ORIGIN h.example.
$TTL 300
@ IN SOA ns1.h.example. admin.h.example. 1 2 3 4 300
@ IN NS ns1.h.example.
www IN A 10.0.0.1
"""


@pytest.fixture
def world():
    rng = random.Random(71)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                              n_stub=20))
    attach_host(inet, rng, host_id="10.88.0.1")
    attach_host(inet, rng, host_id="hs-client")
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    store = ZoneStore()
    store.add(parse_zone_text(ZONE))
    machine = NameserverMachine(
        loop, "host-ns", AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(), MachineConfig(staleness_threshold=float("inf")))
    host = HostNameserver(loop, net, "10.88.0.1", machine)
    return loop, net, machine, host


class Collector:
    def __init__(self):
        self.got = []

    def handle_datagram(self, dgram):
        self.got.append(dgram)


class TestHostNameserver:
    def test_answers_unicast_queries(self, world):
        loop, net, machine, host = world
        sink = Collector()
        net.attach_endpoint("hs-client", sink)
        query = make_query(3, name("www.h.example"), RType.A)
        net.send(Datagram(src="hs-client", dst="10.88.0.1",
                          payload=QueryEnvelope(query), src_port=4444))
        loop.run_until(5)
        assert len(sink.got) == 1
        envelope = sink.got[0].payload
        assert envelope.message.rcode == RCode.NOERROR
        assert envelope.machine_id == "host-ns"

    def test_reply_ports_swapped(self, world):
        loop, net, machine, host = world
        sink = Collector()
        net.attach_endpoint("hs-client", sink)
        query = make_query(4, name("www.h.example"), RType.A)
        net.send(Datagram(src="hs-client", dst="10.88.0.1",
                          payload=QueryEnvelope(query), src_port=5151))
        loop.run_until(5)
        reply = sink.got[0]
        assert reply.dst_port == 5151
        assert reply.src_port == 53

    def test_non_query_payload_ignored(self, world):
        loop, net, machine, host = world
        net.send(Datagram(src="hs-client", dst="10.88.0.1",
                          payload="garbage"))
        loop.run_until(5)
        assert machine.metrics.received == 0


class TestMachineBGPSpeaker:
    @pytest.fixture
    def pop_world(self):
        rng = random.Random(72)
        inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                                  n_stub=20))
        pop_id = attach_pop(inet, rng)
        loop = EventLoop()
        net = Network(loop, inet.topology, rng)
        net.build_speakers()
        pop = PoP(loop, net, pop_id)
        store = ZoneStore()
        store.add(parse_zone_text(ZONE))
        machine = NameserverMachine(
            loop, "spk-m", AuthoritativeEngine(store),
            ScoringPipeline([]), QueuePolicy(),
            MachineConfig(staleness_threshold=float("inf")))
        pop.add_machine(machine)
        return pop, MachineBGPSpeaker(pop, "spk-m",
                                      ["prefix-a", "prefix-b"])

    def test_advertise_all_and_withdraw_all(self, pop_world):
        pop, speaker = pop_world
        speaker.advertise_all()
        assert speaker.advertised == {"prefix-a", "prefix-b"}
        assert pop.advertises("prefix-a") and pop.advertises("prefix-b")
        speaker.withdraw_all()
        assert speaker.advertised == set()
        assert not pop.advertises("prefix-a")

    def test_idempotent_operations(self, pop_world):
        pop, speaker = pop_world
        speaker.advertise("prefix-a")
        speaker.advertise("prefix-a")
        assert pop.ecmp_set("prefix-a") == ["spk-m"]
        speaker.withdraw("prefix-a")
        speaker.withdraw("prefix-a")
        assert not pop.advertises("prefix-a")

    def test_partial_withdraw(self, pop_world):
        pop, speaker = pop_world
        speaker.advertise_all()
        speaker.withdraw("prefix-a")
        assert speaker.advertised == {"prefix-b"}
        assert pop.advertises("prefix-b")
        assert not pop.advertises("prefix-a")
