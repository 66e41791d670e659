#!/usr/bin/env python3
"""Quickstart: stand up the platform, host a zone, resolve through it.

Builds a small simulated Internet with the full Akamai DNS platform on
top (anycast clouds, PoPs, monitoring, control plane, Two-Tier CDN
tiers), onboards an enterprise through the management portal, and runs
a recursive resolver through the real root -> TLD -> authoritative
descent.

Run:  python examples/quickstart.py
"""

from repro.dnscore import RType, name
from repro.netsim.builder import InternetParams
from repro.platform import AkamaiDNSDeployment, DeploymentParams


def main() -> None:
    print("Building the simulated Internet and the Akamai DNS platform...")
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=42,
        n_pops=12,
        deployed_clouds=12,
        machines_per_pop=2,
        n_edge_servers=12,
        internet=InternetParams(n_tier1=4, n_tier2=14, n_stub=50),
    ))
    print(f"  {len(deployment.pop_ids)} PoPs, "
          f"{len(deployment.machines())} nameserver machines, "
          f"{len(deployment.edge_addresses)} CDN edges / lowlevels, "
          f"{len(deployment.internet.topology)} topology nodes")

    # Onboard an enterprise: the portal validates the zone, assigns a
    # unique 6-cloud delegation set, publishes via the metadata bus, and
    # wires a CDN hostname through edgesuite.net to the Two-Tier system.
    delegation = deployment.provision_enterprise(
        "acme", "acme.net",
        "www IN A 203.0.113.10\n"
        "api IN A 203.0.113.11\n"
        "mail IN MX 10 mx1\n"
        "mx1 IN A 203.0.113.25\n",
        cdn_hostnames=["cdn.acme.net"])
    print(f"  enterprise 'acme' delegated to clouds: "
          f"{[c.prefix for c in delegation]}")

    print("Letting BGP and the control plane converge...")
    deployment.settle(30)

    resolver = deployment.add_resolver("quickstart-resolver")

    def show(qname: str, qtype: RType = RType.A) -> None:
        outcome = []
        resolver.resolve(name(qname), qtype, outcome.append)
        deployment.settle(15)
        result = outcome[0]
        path = " -> ".join(result.servers) or "(cache)"
        print(f"  {qname:<22} rcode={result.rcode.name:<8} "
              f"answers={result.addresses() or '-'}")
        print(f"  {'':<22} path: {path}  "
              f"({result.duration * 1000:.0f} ms simulated)")

    print("\nResolving the enterprise's hosted zone (ADHS):")
    show("www.acme.net")
    print("\nResolving again (cached at the resolver):")
    show("www.acme.net")
    print("\nResolving the CDN hostname (CNAME chain through edgesuite"
          " and the Two-Tier system):")
    show("cdn.acme.net")
    print("\nMapped CDN answers are tailored and short-lived; the "
          "lowlevels refresh them cheaply:")
    deployment.settle(25)  # let the 20 s hostname TTL lapse
    show("a1.w10.akamai.net")

    print("\nPlatform counters:")
    answered = sum(m.metrics.answered for m in deployment.machines())
    print(f"  fleet queries answered: {answered}")
    print(f"  metadata messages published: {deployment.bus.published}")
    print(f"  BGP events processed: {deployment.loop.events_processed}")
    # Figure 5's last box: every machine's response stream is tapped
    # per zone and aggregated each minute into what the portal shows.
    # The tap sits on the engine, so the monitoring agents' own health
    # probes of the zone are counted beside the resolver's queries.
    report = deployment.enterprise_traffic_report("acme")
    print(f"  enterprise 'acme' traffic report: "
          f"{report['total_queries']:.0f} responses (health probes "
          f"included) over {report['zones']:.0f} zone, "
          f"{report['nxdomain_fraction']:.0%} NXDOMAIN, "
          f"{report['servfail_fraction']:.0%} SERVFAIL, "
          f"{report['refused_fraction']:.0%} REFUSED")
    window = deployment.collector.latest(name("acme.net"))
    print(f"  last reporting window: {window.window_start:.0f}-"
          f"{window.window_end:.0f} s, {window.queries} responses "
          f"({window.qps:.2f} qps, {window.nxdomain_fraction:.0%} "
          f"NXDOMAIN, {window.servfail_fraction:.0%} SERVFAIL) from "
          f"{window.reporting_machines} machines")


if __name__ == "__main__":
    main()
