"""Ablation: per-hot-zone NXDOMAIN trees vs one global tree.

Paper section 4.3.4(3): building trees only for zones whose NXDOMAIN
count crosses the threshold keeps the structure small and its update
contention low; a global tree over every hosted zone is much larger for
identical filtering efficacy on the attacked zone.
"""

import random

from .conftest import report

from repro.analysis.report import ExperimentResult
from repro.dnscore import RType, make_query, name, parse_zone_text
from repro.dnscore.zone import NxdomainIndex
from repro.filters.nxdomain import NXDomainConfig, NXDomainFilter
from repro.filters.base import QueryContext
from repro.server.engine import AuthoritativeEngine, ZoneStore
from repro.workload.attacks import random_label

N_ZONES = 120
HOSTS_PER_ZONE = 60


def _store() -> ZoneStore:
    store = ZoneStore()
    for z in range(N_ZONES):
        lines = [f"$ORIGIN z{z}.example.", "$TTL 300",
                 f"@ IN SOA ns1.z{z}.example. admin.z{z}.example. "
                 "1 7200 3600 1209600 300",
                 f"@ IN NS ns1.z{z}.example."]
        for i in range(HOSTS_PER_ZONE):
            lines.append(f"h{i} IN A 10.7.{i // 250}.{i % 250 + 1}")
        store.add(parse_zone_text("\n".join(lines) + "\n"))
    return store


def _drive_attack(global_tree: bool) -> tuple[NXDomainFilter, float]:
    rng = random.Random(5)
    store = _store()
    engine = AuthoritativeEngine(store)
    nxd = NXDomainFilter(store, NXDomainConfig(
        trigger_count=50, window_seconds=30.0, global_tree=global_tree))
    victim = name("z0.example")
    # Random-subdomain attack against one zone.
    for i in range(300):
        qname = victim.prepend(random_label(rng))
        query = make_query(i & 0xFFFF, qname, RType.A)
        response = engine.respond(query)
        nxd.observe_response(query, response, now=i * 0.01)
    # Efficacy: attack queries on the victim zone are penalized.
    penalized = 0
    for i in range(200):
        ctx = QueryContext(source="198.18.0.1",
                           qname=victim.prepend(random_label(rng)),
                           qtype=RType.A, now=10.0)
        if nxd.score(ctx) > 0:
            penalized += 1
    return nxd, penalized / 200


def test_per_zone_tree_vs_global_tree():
    result = ExperimentResult(
        "ablation-nxtree", "Per-hot-zone NXDOMAIN tree vs global tree")
    per_zone, efficacy_pz = _drive_attack(global_tree=False)
    global_, efficacy_gl = _drive_attack(global_tree=True)
    size_pz = sum(len(t) for t in per_zone._trees.values())
    size_gl = sum(len(t) for t in global_._trees.values())
    result.metrics.update({
        "per_zone_trees": per_zone.trees_built,
        "global_trees": global_.trees_built,
        "per_zone_total_size": size_pz,
        "global_total_size": size_gl,
        "efficacy_per_zone": efficacy_pz,
        "efficacy_global": efficacy_gl,
    })
    result.compare("per-zone builds exactly the attacked zone's tree",
                   "1 tree", f"{per_zone.trees_built}",
                   per_zone.trees_built == 1)
    result.compare("global tree is much larger",
                   "all zones", f"{size_gl} vs {size_pz} names",
                   size_gl >= size_pz * (N_ZONES // 2))
    result.compare("filtering efficacy identical on the victim",
                   "equal", f"{efficacy_pz:.0%} vs {efficacy_gl:.0%}",
                   efficacy_pz == efficacy_gl and efficacy_pz >= 0.95)
    report(result)


def test_victim_tree_covers_the_zone():
    """The tree built for the victim zone (the hot-path structure)
    indexes every host name in it."""
    zone = _store().get(name("z0.example"))
    assert len(NxdomainIndex(zone)) >= HOSTS_PER_ZONE
