#!/usr/bin/env python3
"""Chaos campaign walkthrough: declare faults, inject them, grade the SLO.

Builds a small live platform, declares a campaign mixing a machine
crash loop, a metadata pub/sub partition, and a flapping transit link,
then runs it with an SLO probe issuing steady background queries. The
output is the fault log, the per-window availability trace (watch it
dip and come back), and the time-to-recovery after each fault clears —
the same machinery ``repro.experiments.resilience_scorecard`` uses to
grade the full platform.

Everything is seeded: re-running this script reproduces every fault
edge and every probe outcome exactly.

Run:  python examples/chaos_campaign.py
"""

from repro.chaos import (
    Campaign,
    ChaosEngine,
    FaultKind,
    FaultSpec,
    Schedule,
    SLOProbe,
)
from repro.control.recovery import ALERT_UNAVAILABLE_FRACTION
from repro.netsim.builder import InternetParams
from repro.platform import AkamaiDNSDeployment, DeploymentParams


def main() -> None:
    print("Standing up the platform...")
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=11, n_pops=8, deployed_clouds=8, machines_per_pop=2,
        pops_per_cloud=2, n_edge_servers=8,
        internet=InternetParams(n_tier1=4, n_tier2=12, n_stub=40),
        filters_enabled=False))
    # A wildcard record lets the probe use a fresh name every time,
    # defeating its resolver's answer cache so each probe exercises the
    # authoritative fleet.
    deployment.provision_enterprise("chaos-demo", "demo.net",
                                    "* IN A 203.0.113.99\n")
    deployment.settle(30)

    resolver = deployment.add_resolver("probe-resolver")
    probe = SLOProbe(deployment.loop, resolver, "demo.net", period=0.5)
    probe.start()

    # Declare what breaks and when. 20 s of healthy baseline first.
    # Aim the heavy faults at one cloud actually serving demo.net —
    # crash-loop its machines AND partition the PoP hosting its
    # input-delayed refuge machine, so anycast cannot hide the damage
    # and the dip becomes visible before cross-cloud retries recover.
    delegation = deployment.assigner.assign("chaos-demo")
    cloud = next(c for c in delegation if c in deployment.clouds)
    cloud_pops = deployment.cloud_pops[cloud.index]
    other = [p for p in sorted(deployment.pops) if p not in cloud_pops]
    campaign = Campaign(
        "demo-storm", duration=90.0, seed=3,
        description="crash loop + PoP partition + pubsub partition "
                    "+ link flaps")
    for pop_id in cloud_pops:
        campaign.add(FaultSpec(FaultKind.CRASH_LOOP, pop_id,
                               Schedule.once(20.0, 30.0)))
    campaign.add(FaultSpec(FaultKind.PARTITION, cloud_pops[0],
                           Schedule.once(24.0, 25.0)))
    campaign.add(FaultSpec(FaultKind.PUBSUB_PARTITION, other[0],
                           Schedule.once(25.0, 30.0)))
    campaign.add(FaultSpec(FaultKind.LINK_FLAP, other[1],
                           Schedule.periodic(22.0, 12.0, 5.0, 3)))

    print(f"Running campaign '{campaign.name}' "
          f"({campaign.description})...\n")
    engine = ChaosEngine(deployment)
    engine.run(campaign)
    deployment.settle(30)          # let recovery finish
    probe.stop()
    deployment.settle(5)

    print("Fault log:")
    print(engine.describe_log())

    report = probe.report()
    print("\nAvailability per 5 s window:")
    for window in report.windows:
        if not window.total:
            continue
        bar = "#" * round(window.availability * 40)
        print(f"  t={window.start:6.1f}s  {window.availability:7.1%}  "
              f"{bar}")

    alerts = deployment.recovery.alerts
    print(f"\nNOCC alerts ({ALERT_UNAVAILABLE_FRACTION:.0%} of the fleet "
          f"down at a 5 s sample): {len(alerts)}")
    for alert in alerts:
        print(f"  t={alert.time:6.1f}s  {alert.severity}: {alert.summary}")

    print(f"\nOverall availability: {report.overall_availability:.1%} "
          f"(worst window {report.worst_window_availability:.0%}, "
          f"{report.total_timeouts} timeouts)")
    print("Time to recovery after each fault cleared:")
    for event in engine.clears():
        ttr = report.time_to_recovery(event.time)
        shown = "n/a (other faults still active)" if ttr is None \
            else f"{ttr:.1f}s"
        print(f"  {event.spec.describe():<28} cleared "
              f"t={event.time:.0f}s -> recovered in {shown}")


if __name__ == "__main__":
    main()
