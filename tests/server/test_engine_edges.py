"""Edge-case tests for the engine and agent internals."""

from repro.dnscore import (
    Message,
    RCode,
    RType,
    make_query,
    name,
    parse_zone_text,
)
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import EventLoop
from repro.server import (
    AuthoritativeEngine,
    MachineConfig,
    MonitoringAgent,
    NameserverMachine,
    ZoneStore,
)


def mk_zone(origin):
    return parse_zone_text(
        f"$ORIGIN {origin}\n$TTL 300\n"
        f"@ IN SOA ns1.{origin} admin.{origin} 1 2 3 4 300\n"
        f"@ IN NS ns1.{origin}\n")


class TestEngineEdges:
    def test_zero_questions_formerr(self):
        store = ZoneStore()
        store.add(mk_zone("e.example."))
        engine = AuthoritativeEngine(store)
        assert engine.respond(Message()).rcode == RCode.FORMERR

    def test_two_questions_formerr(self):
        store = ZoneStore()
        store.add(mk_zone("e.example."))
        engine = AuthoritativeEngine(store)
        query = make_query(1, name("e.example"), RType.A)
        query.questions.append(query.questions[0])
        assert engine.respond(query).rcode == RCode.FORMERR

    def test_response_observer_called(self):
        store = ZoneStore()
        store.add(mk_zone("e.example."))
        engine = AuthoritativeEngine(store)
        seen = []
        engine.response_observers.append(
            lambda q, r: seen.append((q.question.qname, r.rcode)))
        engine.respond(make_query(1, name("x.e.example"), RType.A))
        assert seen == [(name("x.e.example"), RCode.NXDOMAIN)]


class TestAgentZoneRotation:
    def test_probe_rotation_covers_all_zones(self):
        loop = EventLoop()
        store = ZoneStore()
        origins = [f"z{i}.example." for i in range(20)]
        for origin in origins:
            store.add(mk_zone(origin))
        machine = NameserverMachine(
            loop, "rot", AuthoritativeEngine(store), ScoringPipeline([]),
            QueuePolicy(), MachineConfig(staleness_threshold=float("inf")))
        probed = []
        original = machine.health_probe

        def spy(message):
            probed.append(str(message.question.qname))
            return original(message)

        machine.health_probe = spy

        class NullSpeaker:
            def withdraw_all(self):
                pass

            def advertise_all(self):
                pass

        agent = MonitoringAgent(loop, machine, NullSpeaker())
        loop.run_until(20.0)
        # Over successive cycles the rotation reaches every zone.
        assert set(origins) <= set(probed)
        # But each cycle stays cheap: eight zones of the twenty.
        assert agent.metrics.checks_run >= 9
        assert len(probed) == agent.metrics.checks_run * 8


class TestEventLoopPending:
    def test_pending_counts_uncancelled(self):
        loop = EventLoop()
        h1 = loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        assert loop.pending == 2
        h1.cancel()
        assert loop.pending == 1
        loop.run()
        assert loop.pending == 0
