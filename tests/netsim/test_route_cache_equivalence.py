"""Fast-path/slow-path equivalence for the anycast route cache.

The route cache is a pure optimization: with it on or off, every
datagram must be delivered at the same simulated instant, with the same
hop trace and TTL, and the NetworkStats counters must match bit for
bit — across clean forwarding, FIB churn, link failures, gray
degradation, and congestion. These tests run each scenario twice, once
per mode, and compare everything observable.
"""

import random

import pytest

from repro.netsim import (
    Datagram,
    EventLoop,
    Network,
    attach_host,
    attach_pop,
    build_internet,
    InternetParams,
)


def build_world(route_cache: bool):
    rng = random.Random(1234)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=10,
                                              n_stub=30))
    pops = [attach_pop(inet, rng) for _ in range(3)]
    vps = [attach_host(inet, rng, host_id=f"vp-{i}") for i in range(6)]
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.route_cache_enabled = route_cache
    net.build_speakers()
    return inet, pops, vps, loop, net


def stats_dict(net):
    s = net.stats
    return {f: getattr(s, f) for f in s.__dataclass_fields__}


def run_scenario(route_cache: bool, scenario):
    """Run one scripted scenario; returns (deliveries, stats)."""
    inet, pops, vps, loop, net = build_world(route_cache)
    deliveries = []
    for p in pops:
        net.register_local_delivery(
            p, "acast",
            lambda d, p=p: deliveries.append(
                (loop.now, p, d.ip_ttl, d.hops, d.payload)))
        net.speaker(p).originate("acast")
    loop.run_until(20)
    scenario(inet, pops, vps, loop, net)
    loop.run()
    return deliveries, stats_dict(net)


def assert_equivalent(scenario):
    fast = run_scenario(True, scenario)
    slow = run_scenario(False, scenario)
    assert fast[0] == slow[0]  # timestamps, PoP, TTL, hop traces
    assert fast[1] == slow[1]  # every NetworkStats counter


def burst(vps, net, loop, start=21.0, n=40):
    for i in range(n):
        loop.call_at(start + 0.01 * i, net.send,
                     Datagram(src=vps[i % len(vps)], dst="acast",
                              payload=i, src_port=i))


class TestRouteCacheEquivalence:
    def test_clean_forwarding(self):
        def scenario(inet, pops, vps, loop, net):
            burst(vps, net, loop)
        assert_equivalent(scenario)

    def test_link_down_mid_burst(self):
        def scenario(inet, pops, vps, loop, net):
            burst(vps, net, loop)
            router = pops[0]
            neighbor = inet.topology.neighbors(router)[0]
            loop.call_at(21.15, net.set_link_up, router, neighbor, False)
            burst(vps, net, loop, start=30.0)
        assert_equivalent(scenario)

    def test_gray_degradation(self):
        def scenario(inet, pops, vps, loop, net):
            router = pops[1]
            neighbor = inet.topology.neighbors(router)[0]
            loop.call_at(21.1, lambda: net.set_link_degraded(
                router, neighbor, loss=0.3, extra_latency_ms=15.0))
            burst(vps, net, loop, n=60)
            # Heal mid-run: the cache must re-engage correctly.
            loop.call_at(21.4, lambda: net.set_link_degraded(
                router, neighbor, loss=0.0, extra_latency_ms=0.0))
        assert_equivalent(scenario)

    def test_congestion(self):
        def scenario(inet, pops, vps, loop, net):
            router = pops[0]
            neighbor = inet.topology.neighbors(router)[0]
            link = inet.topology.link(router, neighbor)
            link.capacity_pps = 50.0
            burst(vps, net, loop, n=80)
        assert_equivalent(scenario)

    def test_fib_churn_with_inflight_packets(self):
        def scenario(inet, pops, vps, loop, net):
            burst(vps, net, loop, n=40)
            # Withdraw one PoP while the burst is in flight, forcing
            # cached routes to re-materialize as hop-by-hop packets.
            loop.call_at(21.2, net.speaker(pops[0]).withdraw_origin, "acast")
            loop.call_at(35.0, net.speaker(pops[0]).originate, "acast")
            burst(vps, net, loop, start=50.0)
        assert_equivalent(scenario)


class TestRouteCacheInternals:
    def test_epoch_bumps_on_fib_change(self):
        inet, pops, vps, loop, net = build_world(True)
        net.register_local_delivery(pops[0], "acast", lambda d: None)
        net.speaker(pops[0]).originate("acast")
        before = net.route_epoch
        loop.run_until(20)
        assert net.route_epoch > before

    def test_cache_populated_and_flushed(self):
        inet, pops, vps, loop, net = build_world(True)
        net.register_local_delivery(pops[0], "acast", lambda d: None)
        net.speaker(pops[0]).originate("acast")
        loop.run_until(20)
        net.send(Datagram(src=vps[0], dst="acast", payload=None))
        loop.run()
        assert net._route_cache  # populated by the send
        router = pops[0]
        neighbor = inet.topology.neighbors(router)[0]
        net.set_link_up(router, neighbor, False)
        assert not net._route_cache  # flushed by the epoch bump

    def test_default_mode_is_cached(self):
        inet, pops, vps, loop, net = build_world(Network.route_cache_enabled)
        assert net.route_cache_enabled


@pytest.mark.parametrize("route_cache", [True, False])
def test_stats_repeatable_within_mode(route_cache):
    """Same mode twice -> identical everything (sanity anchor)."""
    def scenario(inet, pops, vps, loop, net):
        burst(vps, net, loop, n=30)
    a = run_scenario(route_cache, scenario)
    b = run_scenario(route_cache, scenario)
    assert a == b
