"""Tests for the end-user resolver service and stub clients."""

import random

import pytest

from repro.dnscore import RCode, name, parse_zone_text
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import (
    EventLoop,
    InternetParams,
    Network,
    attach_host,
    build_internet,
)
from repro.resolver import RecursiveResolver
from repro.resolver.service import ResolverService, StubClient
from repro.server import (
    AuthoritativeEngine,
    HostNameserver,
    MachineConfig,
    NameserverMachine,
    ZoneStore,
)

AUTH_ZONE = """\
$ORIGIN svc.example.
$TTL 300
@ IN SOA ns1.svc.example. admin.svc.example. 1 2 3 4 60
@ IN NS ns1.svc.example.
www IN A 10.0.0.1
"""


@pytest.fixture
def world():
    rng = random.Random(77)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                              n_stub=24))
    for host in ("10.99.0.1", "svc-resolver", "user-1", "user-2",
                 "user-3"):
        attach_host(inet, rng, host_id=host)
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    store = ZoneStore()
    store.add(parse_zone_text(AUTH_ZONE))
    machine = NameserverMachine(
        loop, "svc-auth", AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(), MachineConfig(staleness_threshold=float("inf")))
    HostNameserver(loop, net, "10.99.0.1", machine)
    resolver = RecursiveResolver(
        loop, net, "svc-resolver",
        {name("svc.example"): ["10.99.0.1"]}, rng=random.Random(5))
    service = ResolverService(resolver)
    clients = [StubClient(loop, net, f"user-{i}", "svc-resolver",
                          rng=random.Random(100 + i))
               for i in (1, 2, 3)]
    return loop, service, clients, machine


class TestResolverService:
    def test_end_user_lookup(self, world):
        loop, service, clients, _ = world
        clients[0].lookup(name("www.svc.example"))
        loop.run_until(10)
        result = clients[0].results[0]
        assert result.rcode == RCode.NOERROR
        assert result.latency > 0
        assert service.stats.recursions == 1

    def test_cache_hit_is_faster(self, world):
        loop, service, clients, _ = world
        clients[0].lookup(name("www.svc.example"))
        loop.run_until(10)
        clients[0].lookup(name("www.svc.example"))
        loop.run_until(20)
        cold, warm = clients[0].results
        assert warm.latency < cold.latency
        assert service.stats.cache_answers == 1

    def test_cached_ttl_is_aged(self, world):
        loop, service, clients, _ = world
        clients[0].lookup(name("www.svc.example"))
        loop.run_until(100)
        clients[0].lookup(name("www.svc.example"))
        loop.run_until(110)
        warm = clients[0].results[1]
        assert warm.answers[0].ttl < 300

    def test_concurrent_identical_queries_coalesce(self, world):
        loop, service, clients, _ = world
        for client in clients:
            client.lookup(name("www.svc.example"))
        loop.run_until(10)
        assert service.stats.client_queries == 3
        assert service.stats.recursions == 1
        assert service.stats.coalesced == 2
        for client in clients:
            assert client.results[0].rcode == RCode.NOERROR

    def test_negative_answers_served_and_cached(self, world):
        loop, service, clients, _ = world
        clients[0].lookup(name("nope.svc.example"))
        loop.run_until(10)
        assert clients[0].results[0].rcode == RCode.NXDOMAIN
        clients[1].lookup(name("nope.svc.example"))
        loop.run_until(20)
        assert clients[1].results[0].rcode == RCode.NXDOMAIN
        assert service.stats.cache_answers == 1

    def test_upstream_failure_servfails_clients(self, world):
        loop, service, clients, machine = world
        machine.set_fault("unresponsive")
        service.resolver.timeout = 0.5
        clients[0].lookup(name("www.svc.example"))
        loop.run_until(40)
        assert clients[0].results[0].rcode == RCode.SERVFAIL
        assert service.stats.servfails == 1

    def test_recursion_available_flag_set(self, world):
        loop, service, clients, _ = world
        clients[0].lookup(name("www.svc.example"))
        loop.run_until(10)
        # The stub stored grouped answers; check the RA bit via a spy.
        captured = []
        original = clients[1].handle_datagram

        def spy(dgram):
            captured.append(dgram.payload.message)
            original(dgram)

        clients[1].handle_datagram = spy
        clients[1].lookup(name("www.svc.example"))
        loop.run_until(20)
        assert captured[0].flags.ra
        assert not captured[0].flags.aa
