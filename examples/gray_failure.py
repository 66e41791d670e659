#!/usr/bin/env python3
"""Gray-failure detection walkthrough: convicting the liar machine.

A gray-failed machine is the monitoring blind spot: its on-machine
agent calls ``health_probe()`` in-process and gets a perfect answer,
while every *real* query crossing the data path comes back corrupted.
This demo builds a small anycast platform, turns one machine gray, and
narrates the external prober's verdict state machine end to end:

* vantage points co-located at every PoP issue real anycast queries
  (flow keys planned so ECMP pins each probe to a chosen machine);
* the differential auditor cross-checks answers across peers —
  majority answer, answered fraction, SOA-serial staleness — so a
  single liar stands out against honest neighbours;
* conviction routes through the quorum suspension coordinator (never
  a direct ``suspend()``), bounding how much capacity verdicts can
  take down at once;
* after the fault heals, staged probation shadow-probes the suspended
  machine at elevated rate and restores traffic only after
  consecutive clean rounds.

Everything is seeded; re-running reproduces the timeline exactly.

Run:  python examples/gray_failure.py
"""

from repro.control.grayfail import Verdict
from repro.netsim.builder import InternetParams
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.server.machine import MachineState


def build():
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=42, n_pops=8, deployed_clouds=8, machines_per_pop=1,
        pops_per_cloud=2, n_edge_servers=8,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=30),
        filters_enabled=False))
    deployment.settle(30)
    controller = deployment.enable_grayfail()
    return deployment, controller


def show_verdicts(deployment, controller, label):
    counts = controller.verdict_counts()
    summary = ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
    print(f"  [{label:>9}] verdicts: {summary}")


def main():
    deployment, controller = build()
    loop = deployment.loop
    target = deployment.regular_deployments()[0]
    machine = target.machine

    print("== baseline: prober live, nothing to convict ==")
    deployment.run_until(loop.now + 20.0)
    show_verdicts(deployment, controller, "baseline")
    print(f"  probes sent: {controller.probes_sent}, "
          f"convictions: {controller.convictions}")

    print(f"\n== {machine.machine_id} goes gray: answers lose their "
          f"answer section, health_probe stays green ==")
    machine.set_gray_fault("corrupt")
    start = loop.now
    deployment.run_until(loop.now + 20.0)
    own_view = target.agent.run_suite()
    print(f"  machine's own suite says healthy={own_view.healthy} — "
          f"the gray blind spot")
    print(f"  external verdict: "
          f"{controller.verdict(machine.machine_id).value}, "
          f"state: {machine.state.name}")
    print(f"  auditor evidence: "
          f"{'; '.join(controller.last_reasons(machine.machine_id))}")
    for t, mid, verdict in controller.timeline:
        if mid == machine.machine_id:
            print(f"    t={t - start:5.1f}s  {verdict}")
    for mid, latency in controller.detections:
        print(f"  detection latency (first evidence -> conviction): "
              f"{latency:.1f}s")
    print(f"  quorum: {controller.suspensions} suspension(s) granted, "
          f"{controller.denials} denied")

    print("\n== the fault heals: probation shadow-probes, then "
          "traffic returns ==")
    machine.set_gray_fault(None)
    deployment.run_until(loop.now + 40.0)
    print(f"  verdict: {controller.verdict(machine.machine_id).value}, "
          f"state: {machine.state.name}, "
          f"advertised: {bool(target.speaker.advertised)}")
    print(f"  rejoins: {controller.rejoins}, "
          f"active leases: "
          f"{sorted(deployment.coordinator.active_suspensions())}")
    show_verdicts(deployment, controller, "healed")

    assert controller.verdict(machine.machine_id) is Verdict.HEALTHY
    assert machine.state is MachineState.RUNNING
    print("\nok: convicted externally, suspended by quorum, "
          "rejoined via probation")


if __name__ == "__main__":
    main()
