"""Ablation: input-delayed nameservers on vs off (paper section 4.2.3).

A poisoned metadata input crashes every regular nameserver at once. With
input-delayed machines deployed (one per cloud, advertising at higher
MED so they idle in normal operation), traffic fails over to them within
seconds and queries keep being answered from hour-old state; without
them, the platform is dark until the fleet restarts.
"""

from .conftest import report

from repro.analysis.report import ExperimentResult
from repro.dnscore import RType, name
from repro.netsim.builder import InternetParams
from repro.platform.deployment import AkamaiDNSDeployment, DeploymentParams
from repro.resolver.resolver import (
    RESOLUTION_DEADLINE,
    ResolutionResult,
)
from repro.server.machine import MachineConfig


#: Long enough for a resolution started during the outage to finish
#: either way: answered, or failed at the resolver's own deadline.
OUTAGE_SETTLE = RESOLUTION_DEADLINE + 10.0


def _scenario(input_delayed: bool) -> tuple[bool, ResolutionResult, set[str]]:
    """(healthy before, the during-outage resolution, the machines whose
    ``answered`` counter moved while it ran)."""
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=11, n_pops=6, deployed_clouds=6, machines_per_pop=1,
        pops_per_cloud=1, n_edge_servers=4,
        input_delayed_enabled=input_delayed,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
        filters_enabled=False,
        machine_config=MachineConfig(restart_delay=600.0)))
    deployment.provision_enterprise("ent", "victim.net",
                                    "www IN A 203.0.113.9\n")
    deployment.settle(30)

    resolver = deployment.add_resolver("idr", timeout=1.0)
    before: list[ResolutionResult] = []
    resolver.resolve(name("www.victim.net"), RType.A, before.append)
    deployment.settle(15)
    assert before, "the pre-outage resolution never completed"
    healthy_before = not before[-1].failed

    # The poisoned input: every regular nameserver crashes on applying
    # it. Input-delayed machines have not received it yet.
    for dep in deployment.regular_deployments():
        dep.machine.crash()
    deployment.settle(30)

    answered = {dep.machine.machine_id: dep.machine.metrics.answered
                for dep in deployment.deployments}
    resolver.cache.flush()
    during: list[ResolutionResult] = []
    resolver.resolve(name("www.victim.net"), RType.A, during.append)
    deployment.settle(OUTAGE_SETTLE)
    assert during, "the during-outage resolution never completed"
    served = {dep.machine.machine_id for dep in deployment.deployments
              if dep.machine.metrics.answered
              != answered[dep.machine.machine_id]}
    if input_delayed:
        assert served and served <= {
            dep.machine.machine_id
            for dep in deployment.input_delayed_deployments()}, served
    else:
        assert not served, served
    return healthy_before, during[-1], served


def test_input_delayed_nameservers():
    result = ExperimentResult(
        "ablation-inputdelay",
        "Input-delayed nameservers during an input-induced outage")
    before_on, during_on, served_on = _scenario(input_delayed=True)
    before_off, during_off, _ = _scenario(input_delayed=False)
    result.metrics.update({
        "with_inputdelay_available": float(not during_on.failed),
        "without_inputdelay_available": float(not during_off.failed),
    })
    result.compare("platform healthy before the poisoned input",
                   "resolvable", f"{before_on}/{before_off}",
                   before_on and before_off)
    result.compare("with input-delayed: degraded service, not outage",
                   "answers from stale data",
                   f"{during_on.rcode.name} from {sorted(served_on)}, "
                   f"{during_on.timeouts} timeouts",
                   not during_on.failed and during_on.timeouts == 0)
    result.compare("without input-delayed: total outage",
                   "unresolvable",
                   f"{during_off.rcode.name} after "
                   f"{during_off.timeouts} timeouts", during_off.failed)
    report(result)
