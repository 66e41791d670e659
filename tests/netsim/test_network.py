"""Tests for packet forwarding, local delivery, failures, and anycast."""

import random

import pytest

from repro.netsim import (
    AnycastCloud,
    Datagram,
    EventLoop,
    Network,
    attach_host,
    attach_pop,
    build_internet,
    InternetParams,
)


@pytest.fixture
def small_internet():
    rng = random.Random(11)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=10,
                                              n_stub=30))
    pops = [attach_pop(inet, rng) for _ in range(3)]
    vps = [attach_host(inet, rng, host_id=f"vp-{i}") for i in range(6)]
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    return inet, pops, vps, loop, net


class Collector:
    def __init__(self, loop):
        self.loop = loop
        self.received = []

    def handle_datagram(self, dgram):
        self.received.append((self.loop.now, dgram))


class TestAnycastDelivery:
    def test_query_reaches_one_pop(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        hits = {p: 0 for p in pops}
        for p in pops:
            net.register_local_delivery(p, "acast",
                                        lambda d, p=p: hits.__setitem__(
                                            p, hits[p] + 1))
            net.speaker(p).originate("acast")
        loop.run_until(20)
        for i, vp in enumerate(vps):
            net.send(Datagram(src=vp, dst="acast", payload=i, src_port=i))
        loop.run_until(21)
        assert sum(hits.values()) == len(vps)
        assert net.stats.delivered == len(vps)

    def test_no_route_drops(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        net.send(Datagram(src=vps[0], dst="ghost", payload=None))
        loop.run_until(5)
        assert net.stats.dropped_no_route == 1

    def test_ttl_decrements_along_path(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        got = []
        net.register_local_delivery(pops[0], "acast", got.append)
        net.speaker(pops[0]).originate("acast")
        loop.run_until(20)
        net.send(Datagram(src=vps[0], dst="acast", payload=None))
        loop.run_until(25)
        assert len(got) == 1
        dgram = got[0]
        assert dgram.ip_ttl < 64
        assert 64 - dgram.ip_ttl == len(dgram.hops)

    def test_ttl_exhaustion_drops(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        net.register_local_delivery(pops[0], "acast", lambda d: None)
        net.speaker(pops[0]).originate("acast")
        loop.run_until(20)
        net.send(Datagram(src=vps[0], dst="acast", payload=None, ip_ttl=2))
        loop.run_until(25)
        assert net.stats.dropped_ttl_expired >= 1


class TestUnicast:
    def test_host_to_host(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        sink = Collector(loop)
        net.attach_endpoint(vps[1], sink)
        pending, processed = loop.pending, loop.events_processed
        net.send(Datagram(src=vps[0], dst=vps[1], payload="hi"))
        # A second datagram for the same arrival instant is a scheduled
        # event of its own, and so is whatever else is due then.
        latency = net.unicast_latency(vps[0], vps[1])
        bystander = loop.call_later(latency, sink.received.append, "tick")
        net.send(Datagram(src=vps[0], dst=vps[1], payload="again"))
        assert loop.pending == pending + 3
        loop.run_until(5)
        assert loop.pending == pending
        assert loop.events_processed == processed + 3
        first, tick, second = sink.received
        assert tick == "tick" and not bystander.cancelled
        assert (first[1].payload, second[1].payload) == ("hi", "again")
        assert first[0] == second[0] == latency > 0

    def test_rtt_symmetry(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        assert net.unicast_rtt_ms(vps[0], vps[1]) == pytest.approx(
            net.unicast_rtt_ms(vps[1], vps[0]))

    def test_attach_endpoint_requires_host(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        with pytest.raises(ValueError):
            net.attach_endpoint(pops[0], Collector(loop))


class TestLinkFailure:
    def test_failed_access_link_drops(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        router = inet.topology.attachment_router(vps[0])
        net.set_link_up(vps[0], router, False)
        net.send(Datagram(src=vps[0], dst="anything", payload=None))
        loop.run_until(2)
        assert net.stats.dropped_unreachable == 1

    def test_unicast_reroutes_after_failure(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        # Latency may change (or become None) when a transit link dies;
        # the cache must be invalidated either way.
        before = net.unicast_latency(vps[0], vps[1])
        router = inet.topology.attachment_router(vps[0])
        neighbor = inet.topology.bgp_neighbors(router)[0]
        net.set_link_up(router, neighbor, False)
        after = net.unicast_latency(vps[0], vps[1])
        assert after is None or after >= before


class TestCatchments:
    def test_catchments_cover_all_when_advertised(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        cloud = AnycastCloud("acast", net)
        for p in pops:
            net.register_local_delivery(p, "acast", lambda d: None)
            cloud.advertise(p)
        loop.run_until(30)
        catchments = cloud.catchments(vps)
        assert all(c in pops for c in catchments.values())

    def test_catchment_moves_on_withdraw(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        cloud = AnycastCloud("acast", net)
        for p in pops:
            net.register_local_delivery(p, "acast", lambda d: None)
            cloud.advertise(p)
        loop.run_until(30)
        before = cloud.catchments(vps)
        victim = before[vps[0]]
        cloud.withdraw(victim)
        loop.run_until(90)
        after = cloud.catchments(vps)
        assert after[vps[0]] != victim
        assert after[vps[0]] is not None


class TestLinkCongestion:
    def test_capacity_limits_throughput(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        net.register_local_delivery(pops[0], "cong", lambda d: None)
        net.speaker(pops[0]).originate("cong")
        loop.run_until(20)
        # Throttle the victim PoP's access link hard.
        upstream = inet.topology.bgp_neighbors(pops[0])[0]
        inet.topology.link(pops[0], upstream).capacity_pps = 50.0
        sender = vps[0]
        for i in range(1000):
            loop.call_at(20.0 + i * 0.001, lambda i=i: net.send(Datagram(
                src=sender, dst="cong", payload=i, src_port=i % 60000)))
        before_delivered = net.stats.delivered
        loop.run_until(25)
        delivered = net.stats.delivered - before_delivered
        # Only if the flow actually crosses the throttled link does it
        # drop; either way the counters must balance.
        assert delivered + net.stats.dropped_congestion >= 1000 * 0.9

    def test_uncapped_links_never_congest(self, small_internet):
        inet, pops, vps, loop, net = small_internet
        net.register_local_delivery(pops[1], "free", lambda d: None)
        net.speaker(pops[1]).originate("free")
        loop.run_until(20)
        for i in range(500):
            loop.call_at(20.0 + i * 0.0005, lambda i=i: net.send(Datagram(
                src=vps[1], dst="free", payload=i, src_port=i % 60000)))
        loop.run_until(25)
        assert net.stats.dropped_congestion == 0
