"""Tests for the three services end to end: ADHS, GTM, CDN — plus the
section 4.2.2 stale-state scenarios and the volumetric attack model."""

import pytest

from repro.dnscore import RCode, RType, name
from repro.netsim.builder import InternetParams
from repro.netsim.geo import GeoPoint
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.server.machine import MachineState
from repro.server.monitoring import PERIOD as MONITORING_PERIOD


@pytest.fixture(scope="module")
def deployment():
    dep = AkamaiDNSDeployment(DeploymentParams(
        seed=31, n_pops=8, deployed_clouds=8, machines_per_pop=2,
        pops_per_cloud=2, n_edge_servers=8,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
        filters_enabled=False))
    dep.provision_enterprise("tri", "tri.net",
                             "www IN A 203.0.113.50\n",
                             cdn_hostnames=["cdn.tri.net"])
    dep.provision_gtm_property(
        "tri", "app.tri.net",
        datacenters=[("192.0.2.10", GeoPoint(40.0, -74.0)),
                     ("192.0.2.20", GeoPoint(51.5, -0.1))],
        weights=[0.7, 0.3])
    dep.settle(30)
    return dep


def resolve(dep, resolver, qname, wait=20.0):
    results = []
    resolver.resolve(name(qname), RType.A, results.append)
    dep.settle(wait)
    assert results
    return results[0]


class TestGTM:
    def test_gtm_answers_from_datacenter_set(self, deployment):
        r = deployment.add_resolver("gtm-res-1")
        result = resolve(deployment, r, "app.tri.net")
        assert result.rcode == RCode.NOERROR
        assert result.addresses()[0] in ("192.0.2.10", "192.0.2.20")
        assert result.answers[-1].ttl <= 20

    def test_gtm_failover_to_live_datacenter(self, deployment):
        deployment.set_datacenter_alive("app.tri.net", "192.0.2.10",
                                        False)
        deployment.settle(5)
        r = deployment.add_resolver("gtm-res-2")
        for _ in range(3):
            result = resolve(deployment, r, "app.tri.net", wait=10.0)
            assert result.addresses() == ["192.0.2.20"]
            deployment.settle(25)  # let the 20 s answer TTL lapse
            r.cache.flush()
        deployment.set_datacenter_alive("app.tri.net", "192.0.2.10", True)
        deployment.settle(5)

    def test_gtm_requires_owned_zone(self, deployment):
        with pytest.raises(ValueError):
            deployment.provision_gtm_property(
                "tri", "app.other.net",
                datacenters=[("192.0.2.10", GeoPoint(0, 0))],
                weights=[1.0])

    def test_gtm_unknown_enterprise(self, deployment):
        with pytest.raises(ValueError):
            deployment.provision_gtm_property(
                "ghost", "x.tri.net",
                datacenters=[("192.0.2.10", GeoPoint(0, 0))],
                weights=[1.0])


class TestStaleState:
    def test_partition_causes_staleness_suspension(self, deployment):
        """Section 4.2.2: a machine cut off from metadata self-suspends
        once its inputs age past the threshold, and resumes on catch-up."""
        victim = deployment.regular_deployments()[0]
        machine = victim.machine
        threshold = machine.config.staleness_threshold
        deployment.bus.set_partitioned(machine, True)
        deployment.settle(threshold
                          + MONITORING_PERIOD * 3)
        assert machine.is_stale(deployment.loop.now)
        assert machine.state == MachineState.SUSPENDED
        # Connectivity restored: held metadata flushes, agent resumes.
        deployment.bus.set_partitioned(machine, False)
        deployment.mapping.publish()
        deployment.settle(MONITORING_PERIOD * 3)
        assert machine.state == MachineState.RUNNING

    def test_partitioned_machine_view_lags(self, deployment):
        victim = deployment.regular_deployments()[1]
        deployment.bus.set_partitioned(victim.machine, True)
        version_before = victim.view.snapshot.version
        deployment.mapping.publish()
        deployment.settle(5)
        assert victim.view.snapshot.version == version_before
        deployment.bus.set_partitioned(victim.machine, False)
        deployment.settle(MONITORING_PERIOD * 3)
        assert victim.view.snapshot.version > version_before


class TestVolumetricModel:
    def test_junk_filtered_at_line_rate(self):
        import random
        from repro.netsim import Datagram, EventLoop, Network
        from repro.netsim.builder import attach_host, attach_pop, \
            build_internet
        from repro.server import PoP
        from repro.workload import JunkPayload

        rng = random.Random(3)
        inet = build_internet(rng, InternetParams(n_tier1=4, n_tier2=8,
                                                  n_stub=20))
        pop_id = attach_pop(inet, rng)
        attach_host(inet, rng, host_id="vol-src")
        loop = EventLoop()
        net = Network(loop, inet.topology, rng)
        net.build_speakers()
        pop = PoP(loop, net, pop_id, ingress_capacity_pps=100.0)
        net.register_local_delivery(pop_id, "vol-prefix", pop._deliver)
        net.speaker(pop_id).originate("vol-prefix")
        loop.run_until(20)
        # 1,000 junk packets in one second against 100 pps of ingress.
        for i in range(1_000):
            loop.call_at(20.0 + i * 0.001, lambda i=i: net.send(Datagram(
                src="vol-src", dst="vol-prefix", payload=JunkPayload(),
                src_port=i % 60_000 + 1024, dst_port=123)))
        loop.run_until(25)
        assert pop.dropped_ingress > 800       # bandwidth saturated
        assert pop.junk_filtered > 0           # survivors die in firewall
        assert pop.queries_forwarded == 0      # nothing reaches machines

    def test_unlimited_ingress_by_default(self, deployment):
        pop = next(iter(deployment.pops.values()))
        assert pop.ingress_capacity_pps is None
