#!/usr/bin/env python3
"""DNSSEC key rollover walkthrough: RFC 6781 meets the release train.

Builds a small signed fleet behind the safe-rollout coordinator, then
runs the three rollover stories the paper's operational posture cares
about:

* a **ZSK pre-publish** rollover — introduce the successor DNSKEY
  while the old key still signs, switch signing, retire the old key;
  three releases, each canaried and health-gated before fleet-wide
  promotion;
* a **KSK double-signature** rollover — the DNSKEY RRset rides one
  release signed by *both* KSKs, then the old KSK retires;
* a **botched** rollover — the re-sign uses a signature lifetime
  shorter than the canary soak, so served RRSIGs lapse mid-soak. The
  canary machines' probe self-check goes bogus, the health gate trips,
  the release rolls back at the canary cohort, and the controller
  aborts the rollover restoring the key ring. The rest of the fleet
  never serves a bogus signature.

The run sits inside a passive telemetry session, which counts every
step the rollover state machines take.

Everything is seeded; re-running reproduces the timelines exactly.

Run:  python examples/dnssec_rollover.py
"""

import random

from repro.control.pubsub import CDN_CHANNEL, MetadataBus
from repro.control.rollout import RolloutCoordinator, RolloutParams
from repro.dnscore import A, RType, SOA, make_rrset, make_zone, name
from repro.dnssec.keys import FLAG_KSK, KeyRing
from repro.dnssec.rollover import KeyRolloverController, RolloverKind
from repro.dnssec.sign import SigningPolicy, ZoneSigner
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import EventLoop
from repro.server import (
    AuthoritativeEngine,
    MachineConfig,
    NameserverMachine,
    ZoneStore,
)
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.state import session

ORIGIN = name("demo.example")


def build_train(n_canaries=2, n_rest=3):
    """A signed fleet wired to the canaried release train."""
    loop = EventLoop()
    bus = MetadataBus(loop, random.Random(7))
    machines = []
    for i in range(n_canaries + n_rest):
        machine = NameserverMachine(
            loop, f"m{i}", AuthoritativeEngine(ZoneStore()),
            ScoringPipeline([]), QueuePolicy(),
            MachineConfig(zone_guard_enabled=True,
                          staleness_threshold=float("inf")))
        machine.metadata_handlers["zone"] = machine.handle_zone_update
        bus.subscribe(CDN_CHANNEL, machine)
        machines.append(machine)
    coordinator = RolloutCoordinator(
        loop, bus, canaries=machines[:n_canaries], fleet=machines,
        params=RolloutParams(soak_seconds=10.0, check_period=1.0))

    zone = make_zone(ORIGIN,
                     SOA(name("ns1.demo.example"),
                         name("admin.demo.example"),
                         1, 7200, 3600, 1209600, 300),
                     [name("ns1.akam.net")])
    zone.add_rrset(make_rrset(name("www.demo.example"), RType.A, 300,
                              [A("203.0.113.10")]))
    keys = KeyRing(23, ORIGIN)
    signer = ZoneSigner(keys)
    signer.sign(zone, loop.now)
    for machine in machines:
        machine.install_zone(zone)
    coordinator.set_baseline(zone)
    return loop, coordinator, keys, signer, machines


def ring_summary(keys):
    roles = {tag: "KSK" if key.flags == FLAG_KSK else "ZSK"
             for key in keys.published
             for tag in (key.key_tag,)}
    return ", ".join(f"{role} tag {tag}"
                     for tag, role in sorted(roles.items()))


def served_tags(machine):
    zone = machine.engine.store.get(ORIGIN)
    rrset = zone.get_rrset(ORIGIN, RType.DNSKEY)
    return sorted(r.rdata.key_tag() for r in rrset.records)


def print_timeline(state):
    for line in state.timeline():
        print("  " + line)


def main() -> None:
    with session(Telemetry(TelemetryConfig(trace_sample_rate=0.0))) \
            as telemetry:
        run_rollovers()
    steps = sum(
        count for series, count
        in telemetry.registry.snapshot()["counters"].items()
        if series.startswith("dnssec_rollover_steps_total"))
    print(f"Telemetry counted {steps:.0f} rollover steps.")


def run_rollovers() -> None:
    loop, coordinator, keys, signer, machines = build_train()
    controller = KeyRolloverController(loop, coordinator, signer)
    print(f"Fleet: {len(machines)} machines, "
          f"{len(coordinator.canaries)} canaries; signed zone {ORIGIN}")
    print(f"Initial key ring: {ring_summary(keys)}\n")

    print("1) ZSK PRE-PUBLISH rollover "
          "(prepublish -> switch-signer -> retire):")
    state = controller.start(RolloverKind.ZSK_PREPUBLISH)
    loop.run_until(loop.now + 60.0)
    print_timeline(state)
    assert state.status == "complete"
    print(f"   ring after: {ring_summary(keys)}")
    print(f"   every machine serves DNSKEY tags "
          f"{served_tags(machines[-1])}\n")

    print("2) KSK DOUBLE-SIGNATURE rollover (double-sign -> retire):")
    state = controller.start(RolloverKind.KSK_DOUBLE_SIGNATURE)
    loop.run_until(loop.now + 60.0)
    print_timeline(state)
    assert state.status == "complete"
    print(f"   ring after: {ring_summary(keys)}\n")

    print("3) BOTCHED rollover: the re-sign's signature lifetime (6s) "
          "is shorter\n   than the canary soak (10s), so served RRSIGs "
          "lapse mid-soak:")
    hasty = ZoneSigner(keys, SigningPolicy(sig_validity=6.0,
                                           inception_skew=0.0))
    botched = KeyRolloverController(loop, coordinator, hasty)
    before = ring_summary(keys)
    state = botched.start(RolloverKind.ZSK_PREPUBLISH)
    loop.run_until(loop.now + 60.0)
    print_timeline(state)
    assert state.status == "aborted"
    assert ring_summary(keys) == before
    print(f"   ring restored: {ring_summary(keys)}")
    print(f"   fleet still serves the last-known-good DNSKEYs "
          f"{served_tags(machines[-1])}")

    print("\nRelease-train timeline (all three rollovers):")
    for event in coordinator.events:
        print(f"  [{event.time:8.2f}s] release {event.release_id} "
              f"{event.phase.value}: {event.detail}")


if __name__ == "__main__":
    main()
