#!/usr/bin/env python3
"""Failover drill: machine, PoP, and platform-wide failure scenarios.

Walks through the section 4.2 resiliency ladder on a live deployment:

1. one machine fails -> the monitoring agent self-suspends it and the
   PoP's ECMP absorbs the loss;
2. a whole PoP's machines fail -> anycast failover reroutes its
   catchment to another PoP within seconds;
3. a poisoned metadata input crashes every regular nameserver ->
   input-delayed nameservers keep answering from hour-old state.

Run:  python examples/failover_drill.py
"""

from repro.dnscore import RType, name
from repro.netsim.builder import InternetParams
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.server.machine import MachineConfig, MachineState
from repro.server.monitoring import PERIOD as MONITORING_PERIOD


def probe(deployment, resolver, qname="www.drill.net", wait=25.0):
    outcome = []
    resolver.cache.flush()
    resolver.resolve(name(qname), RType.A, outcome.append)
    deployment.settle(wait)
    result = outcome[0]
    status = "OK" if not result.failed else "FAILED"
    return status, result


def main() -> None:
    print("Standing up the platform...")
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=23, n_pops=8, deployed_clouds=8, machines_per_pop=2,
        pops_per_cloud=2, n_edge_servers=8,
        internet=InternetParams(n_tier1=4, n_tier2=12, n_stub=40),
        filters_enabled=False,
        machine_config=MachineConfig(restart_delay=900.0)))
    deployment.provision_enterprise("drill", "drill.net",
                                    "www IN A 203.0.113.30\n")
    deployment.settle(30)
    resolver = deployment.add_resolver("drill-resolver", timeout=1.0)

    status, result = probe(deployment, resolver)
    print(f"\nBaseline resolution: {status} via {result.servers[-1]} "
          f"({result.duration * 1000:.0f} ms)")

    # --- Scenario 1: single machine failure --------------------------------
    print("\nScenario 1: one machine starts serving garbage")
    victim = deployment.regular_deployments()[0]
    victim.machine.fault = "wrong_answer"
    deployment.settle(MONITORING_PERIOD * 3)
    print(f"  agent detected the fault; machine state: "
          f"{victim.machine.state.value}")
    status, result = probe(deployment, resolver)
    print(f"  client impact: {status} "
          f"(PoP ECMP shifted to the healthy sibling)")
    victim.machine.fault = None
    deployment.settle(MONITORING_PERIOD * 3)
    print(f"  fault cleared; machine state: {victim.machine.state.value}")

    # --- Scenario 2: full PoP failure --------------------------------------
    # The cloud's input-delayed machine sits at its first PoP; fail the
    # second so agents withdraw the whole PoP and anycast reroutes.
    print("\nScenario 2: every machine in a PoP fails")
    cloud = deployment.clouds[0]
    backup_pop, failing_pop = deployment.cloud_pops[cloud.index]
    dead = [d for d in deployment.deployments
            if d.machine.machine_id.startswith(failing_pop + "-")
            and not d.input_delayed]
    for dep in dead:
        dep.machine.fault = "unresponsive"
    deployment.settle(MONITORING_PERIOD * 4 + 10)
    advertising = deployment.pops[failing_pop].advertises(cloud.prefix)
    print(f"  {len(dead)} machines failed; PoP {failing_pop} still "
          f"advertising {cloud.prefix}: {advertising}")
    print(f"  anycast failover: {cloud.prefix}'s traffic shifts to "
          f"{backup_pop}")
    status, result = probe(deployment, resolver)
    print(f"  client impact: {status} via {result.servers}")
    for dep in dead:
        dep.machine.fault = None
    deployment.settle(MONITORING_PERIOD * 4 + 10)
    print(f"  PoP restored, advertising again: "
          f"{deployment.pops[failing_pop].advertises(cloud.prefix)}")

    # --- Scenario 3: input-induced platform-wide failure -------------------
    print("\nScenario 3: a poisoned input crashes every regular "
          "nameserver")
    for dep in deployment.regular_deployments():
        dep.machine.crash()
    deployment.settle(20)
    crashed = sum(d.machine.state == MachineState.CRASHED
                  for d in deployment.regular_deployments())
    print(f"  {crashed}/{len(deployment.regular_deployments())} regular "
          f"machines down (restart takes 15 min)")
    delayed = deployment.input_delayed_deployments()
    serving = [d.machine.machine_id for d in delayed
               if d.machine.state == MachineState.RUNNING]
    print(f"  {len(serving)} input-delayed nameservers still running "
          f"with hour-old inputs")
    status, result = probe(deployment, resolver, wait=35.0)
    print(f"  client impact: {status} via {result.servers} "
          f"(stale but available - design principle iii)")
    answered = sum(d.machine.metrics.answered for d in delayed)
    print(f"  queries answered by input-delayed machines: {answered}")


if __name__ == "__main__":
    main()
