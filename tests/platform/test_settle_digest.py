"""The converged platform, pinned: a digest of the BGP and forwarding state
a settled deployment hands to its workload.

Every platform run settles first, and everything it measures afterwards
starts from this state. The digest covers, per speaker in build order,
the best routes in table order as field tuples, the FIB table in table
order and the update counters; then the shared RNG's state and the
events the loop processed. A change to the BGP update path or to FIB
programming that moves any update, delay draw or table entry moves it.

    python -m tests.platform.test_settle_digest   # prints the three digests
"""

import hashlib

import pytest

from repro.experiments.resilience_scorecard import (
    ScorecardParams,
    build_deployment,
)
from repro.platform import AkamaiDNSDeployment, DeploymentParams

#: Recorded before the BGP update path was rewritten; a change to it
#: must leave every one of these alone. The filters sit on the machines,
#: not on the routing path, so they do not move the first two apart.
PINNED = {
    "seed42-filters-off": "19755dd400d60771",
    "seed42-filters-on": "19755dd400d60771",
    "scorecard-fast": "683a1eff3a592a8e",
}


def settle_digest(deployment: AkamaiDNSDeployment) -> str:
    network = deployment.network
    rows = []
    for router_id, speaker in network.speakers().items():
        best = [(prefix, route.prefix, route.as_path, route.next_hop,
                 route.local_pref, route.med)
                for prefix, route in speaker._best.items()]
        fib = list(network._fib.get(router_id, {}).items())
        rows.append((router_id, best, fib, speaker.updates_sent,
                     speaker.updates_received))
    rows.append(network.rng.getstate())
    rows.append(deployment.loop.events_processed)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def settled(name: str) -> AkamaiDNSDeployment:
    if name == "scorecard-fast":
        # build_deployment settles for 30 s itself.
        return build_deployment(ScorecardParams.fast())
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=42, filters_enabled=name == "seed42-filters-on"))
    deployment.settle(30)
    return deployment


@pytest.mark.parametrize("name", PINNED)
def test_settles_to_the_pinned_state(name):
    assert settle_digest(settled(name)) == PINNED[name]


if __name__ == "__main__":
    for name in PINNED:
        print(name, settle_digest(settled(name)))
