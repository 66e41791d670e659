"""End-to-end tests for EDNS Client Subnet mapping (paper section 3.2).

With ECS, the mapping system answers for the *end user's* subnet rather
than the resolver's address — the end-user mapping of the paper's [11].
Two clients behind the same centralized resolver but in different
places should receive different edges.
"""

import pytest

from repro.dnscore import RCode, RType, make_query, name
from repro.dnscore.edns import ClientSubnetOption, EDNSOptions
from repro.netsim.builder import InternetParams
from repro.netsim.geo import GeoPoint
from repro.platform import AkamaiDNSDeployment, DeploymentParams

SUBNETS = {"198.51.100.7": "198.51.100.0/24",
           "203.0.113.9": "203.0.113.0/24"}


@pytest.fixture(scope="module")
def deployment():
    dep = AkamaiDNSDeployment(DeploymentParams(
        seed=19, n_pops=8, deployed_clouds=8, machines_per_pop=1,
        pops_per_cloud=2, n_edge_servers=10,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
        filters_enabled=False))
    dep.settle(30)
    # Register the locations of two client subnets: one in North
    # America, one in East Asia.
    dep.client_locations["198.51.100.0/24"] = GeoPoint(40.7, -74.0)
    dep.client_locations["203.0.113.0/24"] = GeoPoint(35.7, 139.7)
    return dep


def ask(dep, qname, qtype, client_ip):
    """A toplevel machine's response to ``qname``/``qtype`` asked through
    one resolver address with ``client_ip``'s ECS subnet attached."""
    engine = dep.deployments[0].machine.engine
    query = make_query(1, name(qname), qtype,
                       edns=EDNSOptions(client_subnet=(
                           ClientSubnetOption.for_client(client_ip))))
    return engine.respond(query, client_key="ecs-res-shared")


def edges_for(dep, client_ip):
    """The lowlevel edges a toplevel machine refers ``client_ip``'s
    subnet to."""
    response = ask(dep, "a1.w10.akamai.net", RType.A, client_ip)
    assert response.rcode == RCode.NOERROR and response.authority
    return [record.rdata.address for record in response.additional]


class TestECSMapping:
    def test_different_subnets_can_get_different_edges(self, deployment):
        topo = deployment.internet.topology
        answered = {}
        for client_ip, subnet in SUBNETS.items():
            edges = edges_for(deployment, client_ip)
            assert edges and set(edges) <= set(deployment.edge_addresses)
            # Tailored to the subnet: the edges nearest its location.
            where = deployment.client_locations[subnet]
            nearest = sorted(deployment.edge_addresses,
                             key=lambda e: topo.node(e).location
                             .distance_km(where))
            assert set(edges) == set(nearest[:len(edges)]), subnet
            answered[subnet] = set(edges)
        us, jp = answered.values()
        assert us != jp

    def test_without_ecs_resolver_address_is_the_key(self, deployment):
        resolver = deployment.add_resolver("ecs-res-none")
        results = []
        resolver.resolve(name("a1.w10.akamai.net"), RType.A,
                         results.append)
        deployment.settle(20)
        assert results[0].rcode == RCode.NOERROR
        assert results[0].addresses()


class TestECSScope:
    """RFC 7871 section 7.2.1: SCOPE PREFIX-LENGTH says which clients an
    answer is valid for, 0 meaning every client."""

    def test_tailored_referral_is_scoped_to_the_source_prefix(
            self, deployment):
        for client_ip in SUBNETS:
            subnet = ask(deployment, "a1.w10.akamai.net", RType.A,
                         client_ip).edns.client_subnet
            assert subnet.source_prefix_length == 24
            assert subnet.scope_prefix_length == 24

    def test_untailored_answer_keeps_scope_zero(self, deployment):
        for _ in range(2):      # the slow path, then its plan
            response = ask(deployment, "akamai.net", RType.SOA,
                           "198.51.100.7")
            assert response.rcode == RCode.NOERROR and response.answers
            subnet = response.edns.client_subnet
            assert (subnet.source_prefix_length,
                    subnet.scope_prefix_length) == (24, 0)
