"""Tests for the synthetic Internet generator."""

import random

import pytest

from repro.netsim import (
    AKAMAI_ASN,
    InternetParams,
    LinkRelation,
    NodeKind,
    attach_host,
    attach_pop,
    build_internet,
)


@pytest.fixture(scope="module")
def internet():
    return build_internet(random.Random(41),
                          InternetParams(n_tier1=6, n_tier2=20, n_stub=60))


class TestStructure:
    def test_counts(self, internet):
        assert len(internet.tier1) == 6
        assert len(internet.tier2) == 20
        assert len(internet.stubs) == 60
        assert len(internet.topology) == 86

    def test_tier1_full_mesh_of_peers(self, internet):
        topo = internet.topology
        for i, a in enumerate(internet.tier1):
            for b in internet.tier1[i + 1:]:
                assert topo.link(a, b).relation == LinkRelation.PEER

    def test_tier2_has_providers(self, internet):
        topo = internet.topology
        for t2 in internet.tier2:
            providers = [n for n in topo.bgp_neighbors(t2)
                         if topo.link(t2, n).relation_from(t2)
                         == LinkRelation.PROVIDER]
            assert 1 <= len(providers) <= 3
            assert all(p in internet.tier1 or p in internet.tier2
                       for p in providers)

    def test_stubs_are_customers_only(self, internet):
        topo = internet.topology
        for stub in internet.stubs:
            for neighbor in topo.bgp_neighbors(stub):
                relation = topo.link(stub, neighbor).relation_from(stub)
                assert relation == LinkRelation.PROVIDER

    def test_asns_unique(self, internet):
        asns = [n.asn for n in internet.topology.routers()]
        assert len(set(asns)) == len(asns)

    def test_deterministic(self):
        params = InternetParams(n_tier1=4, n_tier2=8, n_stub=20)
        a = build_internet(random.Random(3), params)
        b = build_internet(random.Random(3), params)
        links_a = sorted((l.a, l.b, round(l.latency_ms, 6))
                         for l in a.topology.links())
        links_b = sorted((l.a, l.b, round(l.latency_ms, 6))
                         for l in b.topology.links())
        assert links_a == links_b


class TestPoPAttachment:
    def test_eyeball_pop_single_homed(self, internet):
        rng = random.Random(50)
        pop = attach_pop(internet, rng, pop_id="pop-eyeball",
                         ixp_probability=0.0)
        topo = internet.topology
        neighbors = topo.bgp_neighbors(pop)
        assert len(neighbors) == 1
        assert neighbors[0] in internet.stubs
        assert topo.node(pop).asn == AKAMAI_ASN
        assert topo.node(pop).kind == NodeKind.POP_ROUTER

    def test_ixp_pop_multi_homed(self, internet):
        rng = random.Random(51)
        pop = attach_pop(internet, rng, pop_id="pop-ixp",
                         ixp_probability=1.0)
        topo = internet.topology
        neighbors = topo.bgp_neighbors(pop)
        assert len(neighbors) >= 3
        relations = {topo.link(pop, n).relation_from(pop)
                     for n in neighbors}
        assert LinkRelation.PROVIDER in relations  # transit upstream
        assert LinkRelation.PEER in relations      # IXP peers

    def test_pop_registered(self, internet):
        before = len(internet.pops)
        attach_pop(internet, random.Random(52))
        assert len(internet.pops) == before + 1


class TestHostAttachment:
    def test_host_gets_access_link(self, internet):
        rng = random.Random(53)
        host = attach_host(internet, rng, host_id="test-host-1")
        topo = internet.topology
        assert topo.node(host).kind == NodeKind.HOST
        router = topo.attachment_router(host)
        assert router in internet.stubs
        assert topo.link(host, router).relation == LinkRelation.ACCESS

    def test_host_inherits_anchor_asn(self, internet):
        rng = random.Random(54)
        stub = internet.stubs[0]
        host = attach_host(internet, rng, host_id="test-host-2",
                           attach_to=stub)
        assert internet.topology.node(host).asn == \
            internet.topology.node(stub).asn
