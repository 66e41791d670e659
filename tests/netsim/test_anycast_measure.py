"""Tests for data-plane catchment measurement and packet helpers."""

import random

import pytest

from repro.netsim import (
    AnycastCloud,
    Datagram,
    EventLoop,
    InternetParams,
    Network,
    attach_host,
    attach_pop,
    build_internet,
    measure_catchments,
)


@pytest.fixture
def world():
    rng = random.Random(61)
    inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=10,
                                              n_stub=30))
    pops = [attach_pop(inet, rng) for _ in range(3)]
    hosts = [attach_host(inet, rng, host_id=f"mc-{i}") for i in range(8)]
    loop = EventLoop()
    net = Network(loop, inet.topology, rng)
    net.build_speakers()
    cloud = AnycastCloud("mc-prefix", net)
    delivered = []
    for pop in pops:
        net.register_local_delivery(pop, "mc-prefix", delivered.append)
        cloud.advertise(pop)
    loop.run_until(40)
    return loop, net, cloud, pops, hosts, delivered


class TestMeasureCatchments:
    def test_agrees_with_fib_walk_when_converged(self, world):
        loop, net, cloud, pops, hosts, delivered = world
        control = cloud.catchments(hosts)
        data = measure_catchments(net, hosts, "mc-prefix")
        assert control == data

    def test_probes_do_not_leak_to_real_handler(self, world):
        loop, net, cloud, pops, hosts, delivered = world
        measure_catchments(net, hosts, "mc-prefix")
        assert not delivered

    def test_real_traffic_still_delivered_after_measurement(self, world):
        loop, net, cloud, pops, hosts, delivered = world
        measure_catchments(net, hosts, "mc-prefix")
        net.send(Datagram(src=hosts[0], dst="mc-prefix",
                          payload="real-query"))
        loop.run_until(loop.now + 5)
        assert len(delivered) == 1
        assert delivered[0].payload == "real-query"

    def test_unreachable_prefix_measures_none(self, world):
        loop, net, cloud, pops, hosts, delivered = world
        for pop in pops:
            cloud.withdraw(pop)
        loop.run_until(loop.now + 60)
        data = measure_catchments(net, hosts, "mc-prefix")
        assert all(v is None for v in data.values())


class TestDatagramHelpers:
    def test_decremented(self):
        d = Datagram(src="a", dst="b", payload=None, ip_ttl=10)
        moved = d.decremented("r1")
        assert moved.ip_ttl == 9
        assert moved.hops == ("r1",)
        assert d.ip_ttl == 10  # original untouched

    def test_flow_key(self):
        d = Datagram(src="a", dst="b", payload=None, src_port=1, dst_port=2)
        assert d.flow_key == ("a", 1, "b", 2)
