"""A dig-style lookup tool against the simulated platform.

Builds the deployment (or reuses one passed programmatically), runs a
recursive resolution, and prints a dig-like trace: the servers
contacted, the sections of the final answer, and timing.

    python -m repro.tools.dig cdn.acme.net A
    python -m repro.tools.dig www.acme.net --trace
"""

from __future__ import annotations

import argparse

from ..dnscore.name import name
from ..dnscore.rrtypes import RType
from ..netsim.builder import InternetParams
from ..platform.deployment import AkamaiDNSDeployment, DeploymentParams
from ..resolver.resolver import RecursiveResolver, ResolutionResult


def default_deployment(seed: int = 42) -> AkamaiDNSDeployment:
    """A small platform with one demo enterprise provisioned."""
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=seed, n_pops=10, deployed_clouds=10, machines_per_pop=2,
        pops_per_cloud=2, n_edge_servers=10,
        internet=InternetParams(n_tier1=4, n_tier2=12, n_stub=40),
        filters_enabled=False))
    deployment.provision_enterprise(
        "acme", "acme.net",
        "www IN A 203.0.113.10\napi IN A 203.0.113.11\n",
        cdn_hostnames=["cdn.acme.net"])
    deployment.settle(30)
    return deployment


def lookup(deployment: AkamaiDNSDeployment, qname: str,
           qtype: RType = RType.A,
           resolver: RecursiveResolver | None = None,
           wait: float = 20.0) -> ResolutionResult:
    """One resolution through the platform; blocking in simulated time."""
    if resolver is None:
        resolver_id = f"dig-{deployment.loop.events_processed}"
        resolver = deployment.add_resolver(resolver_id)
    results: list[ResolutionResult] = []
    resolver.resolve(name(qname), qtype, results.append)
    deployment.settle(wait)
    if not results:
        raise TimeoutError(f"resolution of {qname} did not complete")
    return results[0]


def format_result(result: ResolutionResult, *, trace: bool = False) -> str:
    """dig-like rendering of a resolution result."""
    lines = [f";; QUESTION: {result.qname} {result.qtype.name}",
             f";; status: {result.rcode.name}, queries sent: "
             f"{result.queries_sent}, time: "
             f"{result.duration * 1000:.0f} ms (simulated)"]
    if trace and result.servers:
        lines.append(";; TRACE:")
        lines.extend(f";;   -> {server}" for server in result.servers)
    if result.chain:
        lines.append(";; ANSWER SECTION:")
        for rrset in result.answers:
            for record in rrset.records:
                lines.append(record.to_text())
    elif result.rcode.name == "NXDOMAIN":
        lines.append(";; no such name")
    else:
        lines.append(";; empty answer")
    if result.from_cache:
        lines.append(";; served entirely from resolver cache")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("qname", help="name to resolve")
    parser.add_argument("qtype", nargs="?", default="A",
                        help="query type (default A)")
    parser.add_argument("--trace", action="store_true",
                        help="print every server contacted")
    parser.add_argument("--seed", type=int, default=42,
                        help="world seed")
    args = parser.parse_args(argv)
    qtype = RType.from_text(args.qtype)
    deployment = default_deployment(args.seed)
    result = lookup(deployment, args.qname, qtype)
    print(format_result(result, trace=args.trace))
    return 0 if not result.failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
