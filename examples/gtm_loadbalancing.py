#!/usr/bin/env python3
"""GTM: DNS-based load balancing across enterprise datacenters.

The third Akamai DNS service (paper section 1): an enterprise balances
its own datacenters with weighted, liveness-aware DNS answers. This
example provisions a GTM property, drives end users through a real
recursive resolver (with caching and query coalescing), shows the
weighted split, then fails a datacenter and watches traffic drain
within one 20-second answer TTL.

Run:  python examples/gtm_loadbalancing.py
"""

import random
from collections import Counter

from repro.dnscore import RType, name
from repro.netsim.builder import InternetParams
from repro.netsim.geo import GeoPoint
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.resolver.service import ResolverService, StubClient

PROPERTY = "app.globalco.net"
DC_EAST = "192.0.2.10"
DC_WEST = "192.0.2.20"


def sample_answers(deployment, clients, rounds=40, gap=25.0):
    """Each round: every client looks the property up; count answers.

    The 25 s gap exceeds the 20 s answer TTL, so every round is a fresh
    authoritative decision rather than a resolver cache hit.
    """
    counts = Counter()
    for _ in range(rounds):
        for client in clients:
            client.lookup(name(PROPERTY), RType.A)
        deployment.settle(gap)
    for client in clients:
        for result in client.results:
            for rrset in result.answers:
                if rrset.rtype == RType.A:
                    counts[rrset.records[0].rdata.address] += 1
        client.results.clear()
    return counts


def main() -> None:
    print("Building the platform...")
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=13, n_pops=8, deployed_clouds=8, machines_per_pop=1,
        pops_per_cloud=2, n_edge_servers=8,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
        filters_enabled=False))
    deployment.provision_enterprise("globalco", "globalco.net",
                                    "www IN A 203.0.113.80\n")
    deployment.provision_gtm_property(
        "globalco", PROPERTY,
        datacenters=[(DC_EAST, GeoPoint(39.0, -77.5)),   # Virginia
                     (DC_WEST, GeoPoint(45.6, -121.2))],  # Oregon
        weights=[0.7, 0.3])
    deployment.settle(30)

    # End users behind a shared recursive resolver.
    resolver = deployment.add_resolver("gtm-resolver")
    service = ResolverService(resolver)
    clients = []
    for i in range(4):
        from repro.netsim.builder import attach_host
        host = attach_host(deployment.internet, deployment.rng,
                           host_id=f"gtm-user-{i}")
        clients.append(StubClient(
            deployment.loop, deployment.network, host, "gtm-resolver",
            rng=random.Random(deployment.params.seed + i)))

    print(f"\nGTM property {PROPERTY}: east={DC_EAST} (weight 0.7), "
          f"west={DC_WEST} (weight 0.3)")
    print("Sampling answers with both datacenters healthy...")
    counts = sample_answers(deployment, clients)
    total = sum(counts.values())
    for address, count in counts.most_common():
        print(f"  {address:<12} {count:>4} answers ({count / total:.0%})")
    print(f"  resolver stats: {service.stats.client_queries} client "
          f"queries, {service.stats.cache_answers} cache hits, "
          f"{service.stats.coalesced} coalesced")

    print(f"\nDatacenter {DC_EAST} fails; mapping publishes the change "
          "within a second...")
    deployment.set_datacenter_alive(PROPERTY, DC_EAST, False)
    deployment.settle(25)  # drain the last pre-failure 20 s TTL
    counts = sample_answers(deployment, clients, rounds=20)
    total = sum(counts.values())
    for address, count in counts.most_common():
        print(f"  {address:<12} {count:>4} answers ({count / total:.0%})")
    assert counts.get(DC_EAST, 0) == 0, "failed DC must receive nothing"

    print(f"\n{DC_EAST} recovers...")
    deployment.set_datacenter_alive(PROPERTY, DC_EAST, True)
    deployment.settle(25)
    counts = sample_answers(deployment, clients, rounds=20)
    total = sum(counts.values())
    for address, count in counts.most_common():
        print(f"  {address:<12} {count:>4} answers ({count / total:.0%})")
    print("\nTraffic rebalanced to the configured weights.")


if __name__ == "__main__":
    main()
