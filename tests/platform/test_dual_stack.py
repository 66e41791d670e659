"""Full-platform resolution on a default-config deployment: descent
from the TLD, the CDN chain, replies attributed to the machine that
answered, and dual stack (every cloud is reachable over IPv4 and IPv6
anycast)."""

import random

import pytest

from repro.dnscore import RCode, RType, name
from repro.netsim.builder import InternetParams, attach_host
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.platform.deployment import ROOT_SERVER_ADDRESS, TLD_SERVER_ADDRESS
from repro.resolver import RecursiveResolver
from repro.server.pop import ResponseEnvelope


@pytest.fixture(scope="module")
def deployment():
    dep = AkamaiDNSDeployment(DeploymentParams(
        seed=37, n_pops=8, deployed_clouds=8, machines_per_pop=1,
        pops_per_cloud=2, n_edge_servers=8,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
        filters_enabled=False))
    dep.provision_enterprise("wired", "wired.net",
                             "www IN A 203.0.113.70\n",
                             cdn_hostnames=["cdn.wired.net"])
    dep.settle(30)
    return dep


def resolve(dep, resolver, qname):
    results = []
    resolver.resolve(name(qname), RType.A, results.append)
    dep.settle(20)
    assert results
    return results[0]


class TestResolution:
    def test_full_descent(self, deployment):
        r = deployment.add_resolver("descent-res")
        result = resolve(deployment, r, "www.wired.net")
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["203.0.113.70"]
        assert result.timeouts == 0

    def test_cdn_chain(self, deployment):
        r = deployment.add_resolver("cdn-res")
        result = resolve(deployment, r, "cdn.wired.net")
        assert result.rcode == RCode.NOERROR
        assert result.addresses()
        for addr in result.addresses():
            assert addr in deployment.edge_addresses

    def test_replies_name_a_serving_machine(self, deployment):
        fleet = {m.machine_id for m in deployment.machines()}
        serving = (fleet | {f"host-{ROOT_SERVER_ADDRESS}",
                            f"host-{TLD_SERVER_ADDRESS}"}
                   | {h.machine.machine_id
                      for h in deployment.lowlevel_hosts.values()})
        r = deployment.add_resolver("attrib-res")
        envelopes = []
        original = r.handle_datagram

        def spy(dgram):
            envelopes.append(dgram.payload)
            original(dgram)

        r.handle_datagram = spy
        resolve(deployment, r, "www.wired.net")
        assert envelopes
        for envelope in envelopes:
            assert isinstance(envelope, ResponseEnvelope)
            assert envelope.machine_id in serving
        # The enterprise zone's answer came from an anycast fleet machine.
        assert envelopes[-1].machine_id in fleet


class TestDualStack:
    def test_cloud_hostnames_have_aaaa(self, deployment):
        akam = next(z for z in deployment.akamai_zones
                    if str(z.origin) == "akam.net.")
        cloud = deployment.clouds[0]
        assert akam.get_rrset(cloud.ns_hostname, RType.AAAA) is not None

    def test_pops_advertise_both_families(self, deployment):
        cloud = deployment.clouds[0]
        pop_id = deployment.cloud_pops[cloud.index][0]
        pop = deployment.pops[pop_id]
        assert pop.advertises(cloud.prefix)
        assert pop.advertises(cloud.prefix6)

    def test_resolution_over_ipv6_prefix(self, deployment):
        # Force the resolver to use only the IPv6 anycast address of one
        # cloud as its authority for the enterprise zone.
        cloud = deployment.clouds[0]
        attach_host(deployment.internet, deployment.rng,
                    host_id="v6-resolver")
        resolver = RecursiveResolver(
            deployment.loop, deployment.network, "v6-resolver",
            {deployment.tld_zone.origin: [cloud.prefix6]},
            rng=random.Random(2))
        results = []
        resolver.resolve(name("www.wired.net"), RType.A, results.append)
        deployment.settle(20)
        assert results[0].rcode == RCode.NOERROR
        assert cloud.prefix6 in results[0].servers
