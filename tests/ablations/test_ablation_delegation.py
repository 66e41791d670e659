"""Ablation: unique 6-of-24 delegation sets vs a shared delegation set.

Paper section 4.3.1: because every enterprise gets a *unique* set of 6
clouds, saturating every PoP serving enterprise A's clouds still leaves
any other enterprise B at least one live delegation — resolvers retry
against the other clouds and succeed. With a shared set (every
enterprise on the same 6 clouds), the same attack takes everyone down.
This ablation runs both configurations end-to-end: it saturates A's
clouds by suspending their machines and measures whether B's zone still
resolves.
"""

from .conftest import report

from repro.analysis.report import ExperimentResult
from repro.dnscore import RCode, RType, name
from repro.netsim.builder import InternetParams
from repro.platform.clouds import DELEGATION_SET_SIZE, DelegationAssigner
from repro.platform.deployment import AkamaiDNSDeployment, DeploymentParams


def _build(shared_sets: bool) -> tuple[AkamaiDNSDeployment, tuple, tuple]:
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=7, n_pops=12, deployed_clouds=12, machines_per_pop=1,
        pops_per_cloud=1, n_edge_servers=6, input_delayed_enabled=False,
        internet=InternetParams(n_tier1=4, n_tier2=12, n_stub=40),
        filters_enabled=False))
    combo_a = tuple(range(DELEGATION_SET_SIZE))
    if shared_sets:
        combo_b = combo_a
    else:
        # Worst-case unique assignment: B differs from A in exactly one
        # cloud (the paper's minimum guarantee).
        combo_b = tuple(range(1, DELEGATION_SET_SIZE + 1))
    deployment.assigner._assigned["ent-a"] = combo_a
    deployment.assigner._assigned["ent-b"] = combo_b
    deployment.assigner._used.update({combo_a, combo_b})
    set_a = deployment.provision_enterprise(
        "ent-a", "aaa.net", "www IN A 203.0.113.1\n")
    set_b = deployment.provision_enterprise(
        "ent-b", "bbb.net", "www IN A 203.0.113.2\n")
    deployment.settle(30)
    return deployment, set_a, set_b


def _attack_and_resolve(shared_sets: bool) -> tuple[int, bool, RCode]:
    deployment, set_a, set_b = _build(shared_sets)
    # Saturate every PoP advertising one of A's clouds: machines suspend
    # and withdraw, modelling complete loss of those PoPs.
    attacked_prefixes = {c.prefix for c in set_a}
    for dep in deployment.deployments:
        if set(dep.speaker.clouds) & attacked_prefixes:
            dep.agent.stop()
            dep.machine.suspend()
            dep.speaker.withdraw_all()
    deployment.settle(40)

    overlap = len({c.index for c in set_a} & {c.index for c in set_b})
    resolver = deployment.add_resolver("abl-resolver", timeout=1.0)
    outcome: list = []
    resolver.resolve(name("www.bbb.net"), RType.A, outcome.append)
    deployment.settle(30)
    result = outcome[0]
    return overlap, not result.failed, result.rcode


def test_unique_delegation_sets_bound_collateral_damage():
    result = ExperimentResult(
        "ablation-delegation",
        "Unique delegation sets vs shared set under attack")
    overlap_u, b_alive_u, _ = _attack_and_resolve(shared_sets=False)
    overlap_s, b_alive_s, rcode_s = _attack_and_resolve(
        shared_sets=True)
    result.metrics.update({
        "unique_overlap_clouds": overlap_u,
        "unique_b_resolvable": float(b_alive_u),
        "shared_overlap_clouds": overlap_s,
        "shared_b_resolvable": float(b_alive_s),
    })
    result.compare("unique sets: B differs from A in >= 1 cloud",
                   "< 6 shared", f"{overlap_u}/6 shared",
                   overlap_u < DELEGATION_SET_SIZE)
    result.compare("unique sets: B still resolves under attack on A",
                   "resolvable", str(b_alive_u), b_alive_u)
    result.compare("shared set: B fully collateral-damaged",
                   "unresolvable", f"alive={b_alive_s} ({rcode_s})",
                   not b_alive_s)
    report(result)


def test_assignment_uniqueness_at_scale():
    assigner = DelegationAssigner()
    sets = [tuple(c.index for c in assigner.assign(f"e{i}"))
            for i in range(3_000)]
    assert len(set(sets)) == 3_000
    assert max(len(set(sets[0]) & set(s))
               for s in sets[1:]) < DELEGATION_SET_SIZE
