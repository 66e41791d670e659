"""A resolver against a signed zone whose signatures have all expired.

The resolver does not validate: it sends DO=0, so the bogus signatures
never reach it and the answer arrives as from any zone. Only the
machine's own probe (``NameserverMachine.health_probe``) judges
signatures."""

import random

import pytest

from repro.dnscore import RCode, RType, name, parse_zone_text
from repro.dnssec.keys import KeyRing
from repro.dnssec.sign import SigningPolicy, ZoneSigner
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import (
    EventLoop,
    InternetParams,
    Network,
    attach_host,
    attach_pop,
    build_internet,
)
from repro.resolver import RecursiveResolver
from repro.server import (
    AuthoritativeEngine,
    HostNameserver,
    MachineBGPSpeaker,
    MachineConfig,
    NameserverMachine,
    PoP,
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
"""

EX_ZONE = """\
$ORIGIN ex.net.
$TTL 300
@ IN SOA use1.akam.net. admin.ex.net. 1 2 3 4 60
@ IN NS use1.akam.net.
www IN A 93.184.216.34
"""


def mk_machine(loop, zones, mid):
    store = ZoneStore()
    for z in zones:
        store.add(z)
    return NameserverMachine(
        loop, mid, AuthoritativeEngine(store), ScoringPipeline([]),
        QueuePolicy(), MachineConfig(staleness_threshold=float("inf")))


def build_world(policy):
    """Root/TLD unsigned, ex.net signed with ``policy``."""
    rng = random.Random(17)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                              n_stub=24))
    pop_id = attach_pop(inet, rng)
    for host in ("198.41.0.4", "192.5.6.30", "resolver-0"):
        attach_host(inet, rng, host_id=host)
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    HostNameserver(loop, net, "198.41.0.4",
                   mk_machine(loop, [parse_zone_text(ROOT_ZONE)], "root-m"))
    HostNameserver(loop, net, "192.5.6.30",
                   mk_machine(loop, [parse_zone_text(TLD_ZONE)], "tld-m"))
    ex = parse_zone_text(EX_ZONE)
    keys = KeyRing(3, name("ex.net"))
    ZoneSigner(keys, policy).sign(ex, 0.0)
    pop = PoP(loop, net, pop_id)
    machine = mk_machine(loop, [ex], "akam-m0")
    pop.add_machine(machine)
    speaker = MachineBGPSpeaker(pop, "akam-m0", ["23.61.199.1"])
    speaker.advertise_all()
    loop.run_until(25)
    return loop, net


def make_resolver(loop, net):
    return RecursiveResolver(loop, net, "resolver-0",
                             {name("."): ["198.41.0.4"]},
                             rng=random.Random(5))


def resolve(loop, resolver, qname, qtype=RType.A, wait=120.0):
    results = []
    resolver.resolve(name(qname), qtype, results.append)
    loop.run_until(loop.now + wait)
    assert results, "resolution never completed"
    return results[0]


@pytest.fixture(scope="module")
def expired_world():
    # Signatures minted at t=0 lapse at t=5; the world is warmed to
    # t=25, so every served RRSIG is already expired.
    return build_world(SigningPolicy(sig_validity=5.0, inception_skew=0.0))


class TestBogusData:
    def test_invisible_to_non_validating_clients(self, expired_world):
        loop, net = expired_world
        r = make_resolver(loop, net)
        result = resolve(loop, r, "www.ex.net")
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["93.184.216.34"]

    def test_no_signature_reaches_the_resolver(self, expired_world):
        # The zone is signed, but DO=0 queries get no RRSIG, DNSKEY or
        # NSEC records in any section.
        loop, net = expired_world
        responses = []
        send = net.send

        def spy(dgram):
            if dgram.dst == "resolver-0":
                responses.append(dgram.payload.message)
            send(dgram)

        net.send = spy
        try:
            r = make_resolver(loop, net)
            resolve(loop, r, "www.ex.net")
            denial = resolve(loop, r, "missing.ex.net")
        finally:
            net.send = send
        assert denial.rcode == RCode.NXDOMAIN
        # Root, TLD and ex.net for the first name; ex.net for the second.
        assert len(responses) == 4
        dnssec_types = {RType.RRSIG, RType.DNSKEY, RType.NSEC}
        for message in responses:
            for rr in message.answers + message.authority + message.additional:
                assert rr.rtype not in dnssec_types
