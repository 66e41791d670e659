"""The simulation must not depend on ``PYTHONHASHSEED``.

A machine that crashes withdraws every cloud it advertises; the order of
those withdrawals is the order of BGP updates and of the RNG draws that
delay them. The child below crashes every machine of a small deployment,
lets them restart and re-advertise, and prints every BGP update it saw;
the test runs it under four hash seeds and wants one answer.

    python -m tests.platform.test_hashseed_determinism   # prints the child's JSON
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def crash_restart_log() -> dict:
    from repro.netsim.bgp import BGPSpeaker
    from repro.netsim.builder import InternetParams
    from repro.platform import AkamaiDNSDeployment, DeploymentParams

    updates: list[list] = []
    receive = BGPSpeaker.receive_update

    def logged(self, from_peer, prefix, path, med):
        updates.append([self.loop.now, self.node_id, from_peer, prefix,
                        path, med])
        receive(self, from_peer, prefix, path, med)

    BGPSpeaker.receive_update = logged
    dep = AkamaiDNSDeployment(DeploymentParams(
        seed=11, n_pops=6, deployed_clouds=6, machines_per_pop=1,
        pops_per_cloud=2, n_edge_servers=4,
        internet=InternetParams(n_tier1=4, n_tier2=8, n_stub=20),
        filters_enabled=False))
    dep.settle(30)
    settled = len(updates)
    for machine in dep.machines():
        machine.crash()
    dep.settle(60)
    assert all(d.speaker.advertised for d in dep.deployments), \
        "machines should have restarted and re-advertised"
    return {"settled": settled, "updates": updates,
            "stats": asdict(dep.network.stats)}


def run_child(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), str(ROOT)]
                   + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, "-m", "tests.platform.test_hashseed_determinism"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
        check=True)
    return json.loads(done.stdout)


def test_crash_withdraw_restart_is_independent_of_hash_seed():
    runs = [run_child(hash_seed) for hash_seed in range(4)]
    first = runs[0]
    assert len(first["updates"]) > first["settled"] > 0, \
        "the crashes should have caused BGP updates"
    for hash_seed, other in enumerate(runs[1:], start=1):
        assert other["stats"] == first["stats"], hash_seed
        assert other["updates"] == first["updates"], hash_seed


if __name__ == "__main__":
    print(json.dumps(crash_restart_log()))
