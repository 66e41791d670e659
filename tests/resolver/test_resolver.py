"""Integration tests for the iterative resolver over a real hierarchy."""

import random

import pytest

from repro.dnscore import (
    RCode,
    RType,
    make_query,
    make_response,
    name,
    parse_zone_text,
)
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
from repro.resolver import RecursiveResolver, UniformSelection
from repro.server import (
    AuthoritativeEngine,
    HostNameserver,
    MachineBGPSpeaker,
    MachineConfig,
    NameserverMachine,
    PoP,
    ResponseEnvelope,
    ZoneStore,
)

ROOT_ZONE = """\
$ORIGIN .
$TTL 86400
@ IN SOA a.root. admin.root. 1 2 3 4 300
@ IN NS a.root.
a.root. IN A 198.41.0.4
net. IN NS a.gtld.net.
a.gtld.net. IN A 192.5.6.30
"""

TLD_ZONE = """\
$ORIGIN net.
$TTL 86400
@ IN SOA a.gtld.net. admin.net. 1 2 3 4 300
@ IN NS a.gtld.net.
a.gtld.net. IN A 192.5.6.30
ex.net. IN NS use1.akam.net.
use1.akam.net. IN A 23.61.199.1
glueless.net. IN NS ns.helper.net.
helper.net. IN NS a.gtld.net.
"""

EX_ZONE = """\
$ORIGIN ex.net.
$TTL 300
@ IN SOA use1.akam.net. admin.ex.net. 1 2 3 4 60
@ IN NS use1.akam.net.
www IN A 93.184.216.34
alias IN CNAME www
nodata IN TXT "x"
"""

HELPER_ZONE = """\
$ORIGIN helper.net.
$TTL 3600
@ IN SOA a.gtld.net. admin.helper.net. 1 2 3 4 300
@ IN NS a.gtld.net.
ns IN A 10.44.0.1
"""

GLUELESS_ZONE = """\
$ORIGIN glueless.net.
$TTL 300
@ IN SOA ns.helper.net. admin.glueless.net. 1 2 3 4 60
@ IN NS ns.helper.net.
www IN A 10.44.0.99
"""


def mk_machine(loop, zone_texts, mid):
    store = ZoneStore()
    for t in zone_texts:
        store.add(parse_zone_text(t))
    return NameserverMachine(
        loop, mid, AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(), MachineConfig(staleness_threshold=float("inf")))


@pytest.fixture
def world():
    rng = random.Random(17)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                              n_stub=24))
    pop_id = attach_pop(inet, rng)
    for host in ("198.41.0.4", "192.5.6.30", "10.44.0.1", "resolver-0"):
        attach_host(inet, rng, host_id=host)
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    HostNameserver(loop, net, "198.41.0.4", mk_machine(loop, [ROOT_ZONE],
                                                       "root-m"))
    HostNameserver(loop, net, "192.5.6.30",
                   mk_machine(loop, [TLD_ZONE, HELPER_ZONE], "tld-m"))
    HostNameserver(loop, net, "10.44.0.1",
                   mk_machine(loop, [GLUELESS_ZONE], "helper-m"))
    pop = PoP(loop, net, pop_id)
    machine = mk_machine(loop, [EX_ZONE], "akam-m0")
    pop.add_machine(machine)
    speaker = MachineBGPSpeaker(pop, "akam-m0", ["23.61.199.1"])
    speaker.advertise_all()
    loop.run_until(25)
    return loop, net, machine, speaker


def make_resolver(loop, net, **kwargs):
    return RecursiveResolver(loop, net, "resolver-0",
                             {name("."): ["198.41.0.4"]},
                             rng=random.Random(5), **kwargs)


def resolve(loop, resolver, qname, qtype=RType.A, wait=20.0):
    results = []
    resolver.resolve(name(qname), qtype, results.append)
    loop.run_until(loop.now + wait)
    assert results, "resolution never completed"
    return results[0]


class TestIterativeResolution:
    def test_full_descent(self, world):
        loop, net, _, _ = world
        r = make_resolver(loop, net)
        result = resolve(loop, r, "www.ex.net")
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["93.184.216.34"]
        assert result.servers[:2] == ["198.41.0.4", "192.5.6.30"]
        assert result.duration > 0

    def test_caching_avoids_requery(self, world):
        loop, net, _, _ = world
        r = make_resolver(loop, net)
        resolve(loop, r, "www.ex.net")
        second = resolve(loop, r, "www.ex.net")
        assert second.from_cache
        assert second.queries_sent == 0
        assert second.duration == 0

    def test_delegation_reused_for_sibling_names(self, world):
        loop, net, _, _ = world
        r = make_resolver(loop, net)
        resolve(loop, r, "www.ex.net")
        sibling = resolve(loop, r, "nodata.ex.net", RType.TXT)
        # Only the authoritative server needed; root/TLD cached.
        assert sibling.servers == ["23.61.199.1"]

    def test_nxdomain_negative_cached(self, world):
        loop, net, _, _ = world
        r = make_resolver(loop, net)
        first = resolve(loop, r, "missing.ex.net")
        assert first.rcode == RCode.NXDOMAIN
        second = resolve(loop, r, "missing.ex.net")
        assert second.queries_sent == 0

    def test_nodata(self, world):
        loop, net, _, _ = world
        r = make_resolver(loop, net)
        result = resolve(loop, r, "nodata.ex.net", RType.A)
        assert result.rcode == RCode.NOERROR
        assert not result.addresses()

    def test_cname_chase(self, world):
        loop, net, _, _ = world
        r = make_resolver(loop, net)
        result = resolve(loop, r, "alias.ex.net")
        assert result.addresses() == ["93.184.216.34"]
        assert result.answers[0].rtype == RType.CNAME

    def test_results_never_alias_the_cache(self, world):
        # Fresh answers (grouped once, cached) and cache hits alike: a
        # caller may do anything to its result without touching the cache.
        loop, net, _, _ = world
        r = make_resolver(loop, net)
        fresh = resolve(loop, r, "alias.ex.net")
        hit = resolve(loop, r, "alias.ex.net")
        assert hit.from_cache
        stored = {id(entry.rrset) for entry in r.cache._positive.values()}
        for result in (fresh, hit):
            assert [s.rtype for s in result.answers] == [RType.CNAME, RType.A]
            for rrset in result.answers:
                assert id(rrset) not in stored
                rrset.records.clear()
                rrset.ttl = 0
        again = resolve(loop, r, "alias.ex.net")
        assert again.from_cache
        assert again.addresses() == ["93.184.216.34"]
        assert again.answers[0].ttl > 0

    def test_glueless_referral_chased(self, world):
        loop, net, _, _ = world
        r = make_resolver(loop, net)
        result = resolve(loop, r, "www.glueless.net")
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["10.44.0.99"]
        # The NS target's address was resolved as a sub-query.
        assert "10.44.0.1" in result.servers


class TestFailureHandling:
    def test_timeout_then_servfail(self, world):
        loop, net, machine, speaker = world
        machine.fault = "unresponsive"
        r = make_resolver(loop, net, timeout=0.5)
        result = resolve(loop, r, "www.ex.net", wait=40.0)
        assert result.rcode == RCode.SERVFAIL
        assert result.timeouts > 0

    def test_servfail_retries_other_server(self, world):
        loop, net, machine, speaker = world
        machine.fault = "wrong_answer"  # SERVFAIL from the only auth
        r = make_resolver(loop, net, timeout=0.5)
        result = resolve(loop, r, "www.ex.net", wait=30.0)
        assert result.failed
        assert result.queries_sent >= 2  # tried, retried

    def test_unreachable_authoritative(self, world):
        loop, net, machine, speaker = world
        speaker.withdraw_all()
        loop.run_until(loop.now + 30)
        r = make_resolver(loop, net, timeout=0.5)
        result = resolve(loop, r, "www.ex.net", wait=40.0)
        assert result.rcode == RCode.SERVFAIL


class TestResponseMatching:
    """A response answers a query only by message id *and* question."""

    @pytest.mark.parametrize("forged_name, forged_type", [
        ("victim.attack.example", RType.A),     # another query's NXDOMAIN
        ("www.ex.net", RType.TXT),              # right name, wrong type
    ])
    def test_forged_response_with_colliding_id_is_ignored(
            self, world, forged_name, forged_type):
        loop, net, _, _ = world
        r = make_resolver(loop, net)
        resolve(loop, r, "nodata.ex.net", RType.TXT)    # warm the delegations
        sent = []
        send = net.send
        net.send = lambda dgram: (sent.append(dgram), send(dgram))
        results = []
        r.resolve(name("www.ex.net"), RType.A, results.append)
        (query,) = sent
        forged = make_response(
            make_query(query.payload.message.msg_id, name(forged_name),
                       forged_type), RCode.NXDOMAIN)
        r.handle_datagram(Datagram(
            src=query.dst, dst=query.src, src_port=53,
            dst_port=query.src_port,
            payload=ResponseEnvelope(forged, "forger")))
        assert not results and r.unsolicited_responses == 1
        loop.run_until(loop.now + 20)
        (result,) = results
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["93.184.216.34"]
        # The real answer was not delayed: no timeout, no second query.
        assert (result.timeouts, result.queries_sent) == (0, 1)
        assert r.unsolicited_responses == 1

    def test_late_response_after_timeout_is_counted_not_processed(
            self, world):
        loop, net, _, _ = world
        r = make_resolver(loop, net, timeout=0.001)     # shorter than any RTT
        result = resolve(loop, r, "www.ex.net", wait=40.0)
        assert result.timeouts > 0
        assert r.unsolicited_responses > 0


class FixedSelection:
    """Always the first candidate: pins a resolver to one server."""

    def __init__(self):
        self.chosen = []
        self.observed = []

    def choose(self, addresses, rng):
        self.chosen.append(addresses[0])
        return addresses[0]

    def observe_rtt(self, address, rtt):
        self.observed.append(address)


class TestSelectionStrategies:
    def test_uniform_spreads(self):
        rng = random.Random(1)
        s = UniformSelection()
        picks = [s.choose(["a", "b", "c"], rng) for _ in range(300)]
        assert all(picks.count(x) > 50 for x in "abc")

    def test_fixed_selection(self, world):
        # The ``selection=`` seam: the resolver asks the strategy for
        # every server it queries and feeds each answer's RTT back.
        loop, net, _, _ = world
        pinned = FixedSelection()
        r = make_resolver(loop, net, selection=pinned)
        result = resolve(loop, r, "www.ex.net")
        assert result.addresses() == ["93.184.216.34"]
        assert pinned.chosen == pinned.observed == result.servers


class TestSourcePorts:
    def test_random_ports_by_default(self, world):
        loop, net, _, _ = world
        ports = []
        original_send = net.send

        def spy(dgram):
            if isinstance(dgram, Datagram) and dgram.dst != "resolver-0":
                ports.append(dgram.src_port)
            original_send(dgram)

        net.send = spy
        r = make_resolver(loop, net)
        resolve(loop, r, "www.ex.net")
        assert len(set(ports)) > 1
