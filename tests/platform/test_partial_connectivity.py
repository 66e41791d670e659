"""The section 4.2.2 'particularly insidious' scenario, end to end.

A PoP's transit links — the links metadata arrives over — fail, while
DNS queries still reach its nameservers via peering links. The machines
keep answering from increasingly stale state until the staleness check
fires and they self-suspend; anycast then moves the catchment to a
healthy PoP. When the transit returns, held metadata flushes, the
agents observe freshness, and the PoP comes back.
"""

import pytest

from repro.dnscore import RCode, RType, name
from repro.netsim.builder import InternetParams
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.server.machine import MachineState
from repro.server.monitoring import PERIOD as MONITORING_PERIOD


@pytest.fixture
def deployment():
    dep = AkamaiDNSDeployment(DeploymentParams(
        seed=47, n_pops=6, deployed_clouds=6, machines_per_pop=1,
        pops_per_cloud=2, n_edge_servers=6,
        input_delayed_enabled=False,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
        filters_enabled=False))
    dep.provision_enterprise("pc", "pc.net", "www IN A 203.0.113.44\n")
    dep.settle(30)
    return dep


def test_partial_connectivity_failure(deployment):
    # Pick a cloud and the PoP we'll partition.
    cloud = deployment.clouds[0]
    victim_pop, backup_pop = deployment.cloud_pops[cloud.index]
    victims = [d for d in deployment.deployments
               if d.machine.machine_id.startswith(victim_pop + "-")]
    assert victims

    # Phase 1: transit (metadata) connectivity dies; the bus models the
    # metadata path, so the machines stop hearing inputs while the DNS
    # data plane — peering links in the topology — stays up.
    for dep in victims:
        deployment.bus.set_partitioned(dep.machine, True)
    threshold = victims[0].machine.config.staleness_threshold
    # Before the staleness threshold: still serving (from stale state).
    deployment.settle(threshold * 0.5)
    assert all(d.machine.state == MachineState.RUNNING for d in victims)
    assert deployment.pops[victim_pop].advertises(cloud.prefix)

    # Past the threshold: staleness detected, machines self-suspend,
    # the PoP withdraws, anycast fails the catchment over.
    deployment.settle(threshold
                      + MONITORING_PERIOD * 4)
    assert all(d.machine.state == MachineState.SUSPENDED for d in victims)
    assert not deployment.pops[victim_pop].advertises(cloud.prefix)
    assert deployment.pops[backup_pop].advertises(cloud.prefix)

    # Clients are unaffected throughout (retries + failover).
    resolver = deployment.add_resolver("pc-resolver", timeout=1.0)
    outcome = []
    resolver.resolve(name("www.pc.net"), RType.A, outcome.append)
    deployment.settle(30)
    assert outcome[0].rcode == RCode.NOERROR

    # Phase 2: connectivity restored; held metadata flushes, freshness
    # returns, agents resume and re-advertise.
    for dep in victims:
        deployment.bus.set_partitioned(dep.machine, False)
    deployment.mapping.publish()
    deployment.settle(MONITORING_PERIOD * 4)
    assert all(d.machine.state == MachineState.RUNNING for d in victims)
    assert deployment.pops[victim_pop].advertises(cloud.prefix)


def test_deployment_is_deterministic():
    """Two builds from one seed produce identical observable state."""
    def fingerprint():
        dep = AkamaiDNSDeployment(DeploymentParams(
            seed=53, n_pops=6, deployed_clouds=6, machines_per_pop=1,
            pops_per_cloud=2, n_edge_servers=6,
            internet=InternetParams(n_tier1=4, n_tier2=8, n_stub=24),
            filters_enabled=False))
        dep.provision_enterprise("det", "det.net",
                                 "www IN A 203.0.113.1\n")
        dep.settle(30)
        catchments = {
            cloud.prefix: sorted(
                (stub, dep.network.fib_entry(stub, cloud.prefix))
                for stub in dep.internet.stubs
                if dep.network.fib_entry(stub, cloud.prefix) is not None)
            for cloud in dep.clouds}
        return (
            dep.loop.events_processed,
            sorted(dep.cloud_pops.items()),
            catchments,
            sorted(m.machine_id for m in dep.machines()),
        )

    assert fingerprint() == fingerprint()
