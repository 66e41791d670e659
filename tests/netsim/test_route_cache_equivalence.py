"""Fast-path/slow-path equivalence for the anycast route cache.

The route cache is a pure optimization: with it or hop by hop, every
datagram must be delivered at the same simulated instant, with the same
hop trace and TTL, and the NetworkStats counters must match bit for
bit — across clean forwarding, FIB churn, link failures, gray
degradation, and congestion. These tests run each scenario twice, on
``Network`` and on the hop-by-hop oracle (``tests/oracles.py``), and
compare everything observable.

``send`` plans a clean trip from the source host, so a datagram can be
caught by a change *before its ingress router has forwarded it*: part-way
along its access link, at the very instant it arrives, or — sent by a
router, with no access link — in the instant it was sent.
``TestChangeBeforeIngress`` strikes the ingress router at each of those
moments with each kind of change.
"""

import math
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
from repro.netsim.bgp import LOCAL
from repro.netsim.network import HOP_COST_S

from ..oracles import HopByHopNetwork


def build_world(network_cls=Network):
    rng = random.Random(1234)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=10,
                                              n_stub=30))
    pops = [attach_pop(inet, rng) for _ in range(3)]
    vps = [attach_host(inet, rng, host_id=f"vp-{i}") for i in range(6)]
    loop = EventLoop()
    net = network_cls(loop, inet.topology, rng)
    net.build_speakers()
    return inet, pops, vps, loop, net


def access_delay(inet, net, host):
    """Seconds from ``send`` at ``host`` to arrival at its ingress router,
    the float ``send`` itself computes."""
    router = inet.topology.attachment_router(host)
    return (inet.topology.link(host, router).latency_ms / 1000.0
            + net.link_degradation(host, router)[1] / 1000.0)


def stats_dict(net):
    s = net.stats
    return {f: getattr(s, f) for f in s.__dataclass_fields__}


def run_scenario(network_cls, scenario):
    """Run one scripted scenario; returns (deliveries, stats, RNG state)."""
    inet, pops, vps, loop, net = build_world(network_cls)
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
    return deliveries, stats_dict(net), net.rng.getstate()


def assert_equivalent(scenario):
    fast = run_scenario(Network, scenario)
    slow = run_scenario(HopByHopNetwork, scenario)
    assert fast[0] == slow[0]  # timestamps, PoP, TTL, hop traces
    assert fast[1] == slow[1]  # every NetworkStats counter
    assert fast[2] == slow[2]  # loss draws taken from the shared stream
    return fast


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


def test_churn_on_one_prefix_beside_another():
    """Routes toward a second prefix outlive the first one's churn; both
    modes must still agree on everything."""
    def run(network_cls):
        inet, pops, vps, loop, net = build_world(network_cls)
        deliveries = []
        for prefix in ("acast", "other"):
            for p in pops[:2]:
                net.register_local_delivery(
                    p, prefix, lambda d, p=p: deliveries.append(
                        (loop.now, p, d.dst, d.ip_ttl, d.hops, d.payload)))
                net.speaker(p).originate(prefix)
        loop.run_until(20)
        for i in range(60):
            loop.call_at(21.0 + 0.01 * i, net.send, Datagram(
                src=vps[i % len(vps)], dst=("acast", "other")[i % 2],
                payload=i, src_port=i))
        loop.call_at(21.15, net.speaker(pops[0]).withdraw_origin, "acast")
        loop.call_at(21.35, net.speaker(pops[0]).originate, "acast")
        loop.run()
        return deliveries, stats_dict(net), net.rng.getstate()

    fast, slow = run(Network), run(HopByHopNetwork)
    assert fast == slow
    assert {d[2] for d in fast[0]} == {"acast", "other"}


def strike(inet, net, ingress, change):
    """The change, applied at the router ``ingress`` to "acast"."""
    next_hop = net.fib_entry(ingress, "acast")
    if change == "fib":     # another neighbour; a single-homed stub has none
        other = next((n for n in inet.topology.bgp_neighbors(ingress)
                      if n != next_hop), None)
        return lambda: net.set_fib(ingress, "acast", other)
    if change == "no-route":
        return lambda: net.set_fib(ingress, "acast", None)
    if change == "link":
        return lambda: net.set_link_up(ingress, next_hop, False)
    if change == "degrade":
        return lambda: net.set_link_degraded(ingress, next_hop, loss=0.5,
                                             extra_latency_ms=7.3)

    def terminate_here():
        net.register_local_delivery(ingress, "acast", lambda d: None)
        net.set_fib(ingress, "acast", LOCAL)
    return terminate_here


CHANGES = ("fib", "no-route", "link", "degrade", "local")


class TestChangeBeforeIngress:
    """A change at the ingress router while the datagram is not there yet."""

    #: How far along its access link the datagram is when the change
    #: lands; 1.0 is the instant of arrival (the change, scheduled first,
    #: precedes it), past 1.0 the ingress router has already forwarded it.
    @pytest.mark.parametrize("change", CHANGES)
    @pytest.mark.parametrize("lead", [0.0, 0.5, 1.0, 1.5])
    def test_datagrams_from_hosts(self, change, lead):
        def scenario(inet, pops, vps, loop, net):
            for i, vp in enumerate(vps):
                at = 21.0 + 0.25 * i
                ingress = inet.topology.attachment_router(vp)
                if ingress in pops:
                    continue
                loop.call_at(at + access_delay(inet, net, vp) * lead,
                             strike(inet, net, ingress, change))
                for j in range(3):
                    loop.call_at(at, net.send, Datagram(
                        src=vp, dst="acast", payload=(i, j), src_port=j))
        deliveries, stats, _ = assert_equivalent(scenario)
        assert sum(stats[k] for k in stats if k != "hops_total") == 18

    @pytest.mark.parametrize("change", CHANGES)
    @pytest.mark.parametrize("order", ["same event", "scheduled before",
                                       "scheduled after"])
    def test_datagrams_from_routers(self, change, order):
        """No access link, so no lead: the change shares the send's
        instant, inside the sending event or in one on either side."""
        def scenario(inet, pops, vps, loop, net):
            routers = [inet.topology.attachment_router(vp) for vp in vps]
            for i, router in enumerate(r for r in routers if r not in pops):
                at = 21.0 + 0.25 * i
                hit = strike(inet, net, router, change)
                dgram = Datagram(src=router, dst="acast", payload=i)
                if order == "same event":
                    loop.call_at(at, lambda d=dgram, hit=hit:
                                 (net.send(d), hit()))
                elif order == "scheduled before":
                    loop.call_at(at, hit)
                    loop.call_at(at, net.send, dgram)
                else:
                    # Scheduled by the sending event, after the send: the
                    # router forwards first in the hop-by-hop run.
                    loop.call_at(at, lambda d=dgram, hit=hit:
                                 (net.send(d), loop.call_at(at, hit)))
        assert_equivalent(scenario)

    @pytest.mark.parametrize("change", CHANGES)
    def test_a_later_strike_on_the_arrival_instant_finds_it_forwarded(
            self, change):
        """Two datagrams reach one router at one instant; a change
        scheduled between their sends lands between their arrivals: the
        first was forwarded on the old state (``rewind`` refuses), the
        second meets the new one."""
        def scenario(inet, pops, vps, loop, net):
            vp = next(v for v in vps
                      if inet.topology.attachment_router(v) not in pops)
            ingress = inet.topology.attachment_router(vp)
            arrival = 21.0 + access_delay(inet, net, vp)

            def sends():
                net.send(Datagram(src=vp, dst="acast", payload="first"))
                loop.call_at(arrival, strike(inet, net, ingress, change))
                net.send(Datagram(src=vp, dst="acast", payload="second"))
            loop.call_at(21.0, sends)
        deliveries, stats, _ = assert_equivalent(scenario)
        assert deliveries[0][4] == "first"
        if change == "no-route":
            assert [d[4] for d in deliveries] == ["first"]
            assert stats["dropped_no_route"] == 1


def trip(inet, net, host, at):
    """(delivery time, PoP) of a datagram ``host`` sends at ``at`` on clean
    forwarding state: the float chain of ``send`` and every ``_forward``."""
    router = inet.topology.attachment_router(host)
    t = at + access_delay(inet, net, host)
    while (next_hop := net.fib_entry(router, "acast")) != LOCAL:
        t = t + (inet.topology.link(router, next_hop).latency_ms / 1000.0
                 + HOP_COST_S)
        router = next_hop
    return t, router


def send_time_for(inet, net, host, due):
    """When ``host`` must send to be delivered at exactly ``due``."""
    at = due - (trip(inet, net, host, 21.0)[0] - 21.0)
    for _ in range(64):
        got = trip(inet, net, host, at)[0]
        if got == due:
            return at
        at = math.nextafter(at, math.inf if got < due else -math.inf)
    raise AssertionError("no send time lands on the tie")


class TestDeliveriesOnOneInstant:
    """What the oracle promises when events share a bit-equal timestamp:
    the same deliveries at the same times with the same counters and RNG
    draws. Their *order within the instant* is not part of the contract —
    hop by hop it is the order of the last hops' forwards, with the cache
    the order the delivery events were scheduled, which for a flight
    planned by ``send`` is the order of the sends."""

    def test_two_flights_with_unequal_access_legs_tie_at_the_pop(self):
        def scenario(inet, pops, vps, loop, net):
            trips = {vp: trip(inet, net, vp, 21.0) for vp in vps}
            # Two hosts of one catchment; the one further away sends first.
            far, near = next(
                (a, b) for a in vps for b in vps
                if trips[a][1] == trips[b][1] and trips[a][0] > trips[b][0]
                and access_delay(inet, net, a) != access_delay(inet, net, b))
            later = send_time_for(inet, net, near, trips[far][0])
            assert later > 21.0 + access_delay(inet, net, far)
            loop.call_at(21.0, net.send,
                         Datagram(src=far, dst="acast", payload="far"))
            loop.call_at(later, net.send,
                         Datagram(src=near, dst="acast", payload="near"))
        fast = run_scenario(Network, scenario)
        slow = run_scenario(HopByHopNetwork, scenario)
        assert sorted(fast[0]) == sorted(slow[0]) and fast[1:] == slow[1:]
        (t_far, pop_far, *_), (t_near, pop_near, *_) = fast[0]
        assert (t_far, pop_far) == (t_near, pop_near)
        assert [d[4] for d in fast[0]] == ["far", "near"]    # send order


class TestRouteCacheInternals:
    def test_epoch_bumps_on_fib_change(self):
        inet, pops, vps, loop, net = build_world()
        net.register_local_delivery(pops[0], "acast", lambda d: None)
        net.speaker(pops[0]).originate("acast")
        before = net.route_epoch
        loop.run_until(20)
        assert net.route_epoch > before

    def test_cache_populated_and_flushed(self):
        inet, pops, vps, loop, net = build_world()
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

    def test_a_prefix_change_drops_only_that_prefixs_routes(self):
        inet, pops, vps, loop, net = build_world()
        for prefix in ("acast", "other"):
            net.register_local_delivery(pops[0], prefix, lambda d: None)
            net.speaker(pops[0]).originate(prefix)
        loop.run_until(20)

        def send_both():
            for prefix in ("acast", "other"):
                net.send(Datagram(src=vps[0], dst=prefix, payload=None))
            loop.run()

        send_both()
        kept = net._route_cache["other"]
        assert kept and net._route_cache["acast"]
        ingress = inet.topology.attachment_router(vps[0])
        net.set_fib(ingress, "acast", None)
        assert "acast" not in net._route_cache
        assert net._route_cache["other"] is kept and kept
        net.register_local_delivery(pops[0], "other", lambda d: None)
        assert "other" not in net._route_cache
        send_both()
        assert set(net._route_cache) == {"acast", "other"}
        neighbor = inet.topology.neighbors(pops[0])[0]
        net.set_link_up(pops[0], neighbor, False)
        assert net._route_cache == {}

    def test_a_clean_route_is_cached_and_planned_in_one_event(self):
        """The fast path engages: a datagram on a clean route costs the
        event loop its delivery alone, access-link leg and hops folded
        in (hop by hop, the same trip is one event per router)."""
        inet, pops, vps, loop, net = build_world()
        got = []
        net.register_local_delivery(pops[0], "acast", got.append)
        net.speaker(pops[0]).originate("acast")
        loop.run()
        for i in range(3):
            before = loop.events_processed
            net.send(Datagram(src=vps[0], dst="acast", payload=i))
            loop.run()
            assert loop.events_processed == before + 1
        assert [d.payload for d in got] == [0, 1, 2]
        assert len(got[0].hops) > 1
        assert net._route_cache["acast"]


@pytest.mark.parametrize("network_cls", [Network, HopByHopNetwork])
def test_stats_repeatable_within_mode(network_cls):
    """Same class twice -> identical everything (sanity anchor)."""
    def scenario(inet, pops, vps, loop, net):
        burst(vps, net, loop, n=30)
    a = run_scenario(network_cls, scenario)
    b = run_scenario(network_cls, scenario)
    assert a == b
