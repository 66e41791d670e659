"""Integration tests for the assembled platform."""

import pytest

from repro.dnscore import RCode, RType, name
from repro.netsim.builder import InternetParams
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.server.machine import MachineState
from repro.server.monitoring import PERIOD as MONITORING_PERIOD


@pytest.fixture(scope="module")
def deployment():
    dep = AkamaiDNSDeployment(DeploymentParams(
        seed=5, n_pops=8, deployed_clouds=8, machines_per_pop=2,
        pops_per_cloud=2, n_edge_servers=8,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
        filters_enabled=False))
    dep.provision_enterprise("acme", "acme.net",
                             "www IN A 203.0.113.10\n",
                             cdn_hostnames=["cdn.acme.net"])
    dep.settle(30)
    return dep


def resolve(dep, resolver, qname, qtype=RType.A, wait=20.0):
    results = []
    resolver.resolve(name(qname), qtype, results.append)
    dep.settle(wait)
    assert results
    return results[0]


class TestTopologyInvariants:
    def test_no_pop_advertises_more_than_two_clouds(self, deployment):
        for pop_id in deployment.pop_ids:
            assert len(deployment.pop_clouds(pop_id)) <= 2

    def test_every_cloud_has_enough_pops(self, deployment):
        for cloud in deployment.clouds:
            assert len(deployment.cloud_pops[cloud.index]) == 2

    def test_input_delayed_one_per_cloud(self, deployment):
        delayed = deployment.input_delayed_deployments()
        assert len(delayed) == len(deployment.clouds)
        for dep in delayed:
            assert dep.machine.config.input_delayed
            assert not dep.agent.allow_self_suspend

    def test_fleet_advertises_after_settle(self, deployment):
        for cloud in deployment.clouds:
            pops = deployment.cloud_pops[cloud.index]
            assert any(deployment.pops[p].advertises(cloud.prefix)
                       for p in pops)


class TestResolutionPaths:
    def test_adhs_zone_resolves(self, deployment):
        r = deployment.add_resolver("t-res-1")
        result = resolve(deployment, r, "www.acme.net")
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["203.0.113.10"]

    def test_cdn_chain_resolves_to_edges(self, deployment):
        r = deployment.add_resolver("t-res-2")
        result = resolve(deployment, r, "cdn.acme.net")
        assert result.rcode == RCode.NOERROR
        for addr in result.addresses():
            assert addr in deployment.edge_addresses
        chain = [str(a.name) for a in result.answers]
        assert "acme.edgesuite.net." in chain

    def test_lowlevel_answer_has_short_ttl(self, deployment):
        r = deployment.add_resolver("t-res-3")
        result = resolve(deployment, r, "a1.w10.akamai.net")
        final = result.answers[-1]
        assert final.rtype == RType.A
        assert final.ttl <= 20

    def test_unknown_zone_refused_upstream(self, deployment):
        r = deployment.add_resolver("t-res-4")
        result = resolve(deployment, r, "nothere.acme.net")
        assert result.rcode == RCode.NXDOMAIN


class TestProvisioning:
    def test_unique_delegation_sets(self, deployment):
        set_b = deployment.provision_enterprise(
            "beta", "beta.net", "www IN A 203.0.113.11\n")
        set_a = deployment.assigner.assign("acme")  # stable across calls
        assert {c.index for c in set_a} != {c.index for c in set_b}

    def test_non_net_origin_rejected(self, deployment):
        with pytest.raises(ValueError):
            deployment.provision_enterprise("gamma", "gamma.org")

    def test_zone_installed_on_all_machines(self, deployment):
        deployment.provision_enterprise("delta", "delta.net",
                                        "www IN A 203.0.113.12\n")
        for dep in deployment.deployments:
            assert dep.machine.engine.store.get(name("delta.net")) \
                is not None


class TestResiliencyIntegration:
    def test_machine_failure_is_invisible_to_clients(self, deployment):
        # Fail one machine; its PoP keeps serving via the sibling and
        # resolution still succeeds.
        victim = deployment.regular_deployments()[0]
        victim.machine.fault = "unresponsive"
        deployment.settle(MONITORING_PERIOD * 3)
        assert victim.machine.state == MachineState.SUSPENDED
        r = deployment.add_resolver("t-res-5", timeout=1.0)
        result = resolve(deployment, r, "www.acme.net", wait=30.0)
        assert result.rcode == RCode.NOERROR
        victim.machine.fault = None
        deployment.settle(MONITORING_PERIOD * 3)
        assert victim.machine.state == MachineState.RUNNING

    def test_mapping_liveness_change_propagates(self, deployment):
        dead = deployment.edge_addresses[0]
        deployment.mapping.set_edge_alive(dead, False)
        deployment.settle(5)
        r = deployment.add_resolver("t-res-6")
        result = resolve(deployment, r, "a2.w10.akamai.net")
        assert dead not in result.addresses()
        deployment.mapping.set_edge_alive(dead, True)
        deployment.settle(5)


class TestTrafficReporting:
    def test_enterprise_rollup_counts_queries(self, deployment):
        r = deployment.add_resolver("report-res")
        results = []
        r.resolve(name("www.acme.net"), RType.A, results.append)
        deployment.settle(70)  # cross a 60 s reporting window
        report = deployment.enterprise_traffic_report("acme")
        assert report["total_queries"] >= 1.0
        assert report["zones"] >= 1.0
