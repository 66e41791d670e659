"""The fault table: every :class:`FaultKind` and the entry that drives it.

An entry is one function, ``entry(engine, spec, healthy)``: called with
``healthy=False`` on the inject edge and ``healthy=True`` on the clear.
It drives the *public* failure seams of one layer of the assembled
platform — links and BGP sessions (``netsim``), machines (``server``),
metadata and zone delivery (``control``), attack traffic
(``workload``) — and keeps what it must undo on the
:class:`~repro.chaos.engine.ChaosEngine` running the campaign. No
entry reaches into private state or monkey-patches: if a fault cannot
be expressed through a public seam, the seam is the thing to build,
not the entry.

Targets:

* ``"a|b"`` — a specific link between two nodes;
* a PoP router id (``"pop-3"``) — the PoP's machines, its transit
  links, or its primary upstream link depending on fault kind;
* a machine id (``"pop-3-m7"``) — that machine;
* a zone origin (``"ex.net"``) — that zone's delivery path;
* an anycast prefix — the flood's destination (``ATTACK_FLOOD``);
* ``"platform"`` — platform-wide faults (metadata freeze).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from ..control.pubsub import CDN_CHANNEL
from ..dnscore.name import name
from ..dnscore.records import make_rrset
from ..dnscore.rrtypes import DNSSEC_TYPES, RType
from ..dnscore.validate import ZoneUpdate
from ..dnscore.zone import Zone, soa_with_serial_delta
from ..dnssec.keys import KeyRing
from ..dnssec.sign import DNSKEY_TTL, SigningPolicy, ZoneSigner
from ..netsim.clock import PeriodicTask
from ..platform.deployment import AkamaiDNSDeployment, MachineDeployment
from ..server.machine import MachineState, NameserverMachine
from ..server.monitoring import PERIOD as MONITORING_PERIOD
from ..workload.attacks import RandomSubdomainAttack
from .faults import FaultKind, FaultSpec

if TYPE_CHECKING:
    from .engine import ChaosEngine

#: ``entry(engine, spec, healthy)``: inject (False) or clear (True).
Entry = Callable[["ChaosEngine", FaultSpec, bool], None]

#: Stub routers a flood is sourced from.
ATTACK_SOURCES = 8


def _parse_link(deployment: AkamaiDNSDeployment,
                target: str) -> tuple[str, str]:
    """Resolve a link target: explicit ``a|b`` or a PoP's primary uplink."""
    if "|" in target:
        a, b = target.split("|", 1)
        deployment.internet.topology.link(a, b)  # raises KeyError if absent
        return a, b
    neighbors = deployment.internet.topology.bgp_neighbors(target)
    if not neighbors:
        raise ValueError(f"{target!r} has no links to fail")
    return target, neighbors[0]


def _target_deployments(deployment: AkamaiDNSDeployment,
                        target: str) -> list[MachineDeployment]:
    """Machines named by a target: one machine id, a PoP, or the fleet."""
    if target == "platform":
        return deployment.regular_deployments()
    exact = [d for d in deployment.deployments
             if d.machine.machine_id == target]
    if exact:
        return exact
    if target in deployment.pops:
        at_pop = [d for d in deployment.deployments_at(target)
                  if not d.input_delayed]
        if at_pop:
            return at_pop
    raise ValueError(f"no machines match chaos target {target!r}")


def _good_zone(deployment: AkamaiDNSDeployment, target: str) -> Zone:
    origin = name(target)
    good = deployment.enterprise_zones.get(origin)
    if good is None:
        good = next((z for z in deployment.akamai_zones
                     if z.origin == origin), None)
    if good is None:
        raise ValueError(f"no zone with origin {target!r}")
    return good


def attack_sources(deployment: AkamaiDNSDeployment) -> list[str]:
    """The stub-router ids a flood is sourced from (stable order)."""
    return sorted(deployment.internet.stubs)[:ATTACK_SOURCES]


# -- netsim: links and BGP sessions -------------------------------------------

def _link_flap(engine: ChaosEngine, spec: FaultSpec, healthy: bool) -> None:
    a, b = _parse_link(engine.deployment, spec.target)
    engine.deployment.network.set_link_up(a, b, healthy)


def _link_degrade(engine: ChaosEngine, spec: FaultSpec,
                  healthy: bool) -> None:
    a, b = _parse_link(engine.deployment, spec.target)
    severity = 0.0 if healthy else spec.severity
    engine.deployment.network.set_link_degraded(
        a, b, loss=min(1.0, severity),
        extra_latency_ms=max(0.0, severity) * 100.0)


def _partition(engine: ChaosEngine, spec: FaultSpec, healthy: bool) -> None:
    # Every BGP link of the target router goes down: the PoP is cut off
    # from the routed Internet entirely.
    deployment = engine.deployment
    for peer in deployment.internet.topology.bgp_neighbors(spec.target):
        deployment.network.set_link_up(spec.target, peer, healthy)


def _bgp_reset(engine: ChaosEngine, spec: FaultSpec, healthy: bool) -> None:
    # Sessions drop while the links stay up: the control plane fails
    # independently of the data plane.
    deployment = engine.deployment
    network = deployment.network
    speaker = network.speaker(spec.target)
    for peer in deployment.internet.topology.bgp_neighbors(spec.target):
        peer_speaker = network.speaker(peer)
        if healthy:
            speaker.session_up(peer)
            peer_speaker.session_up(spec.target)
        else:
            speaker.session_down(peer)
            peer_speaker.session_down(spec.target)


# -- server: machines ---------------------------------------------------------

def _machine_crash(engine: ChaosEngine, spec: FaultSpec,
                   healthy: bool) -> None:
    # Cleared, there is nothing to do: the machine's own restart timer
    # recovers it.
    for dep in _target_deployments(engine.deployment, spec.target):
        if not healthy and dep.machine.state != MachineState.CRASHED:
            dep.machine.crash()


def _crash_loop(engine: ChaosEngine, spec: FaultSpec, healthy: bool) -> None:
    """Crash now and again right after every restart completes."""
    for dep in _target_deployments(engine.deployment, spec.target):
        machine = dep.machine
        key = (spec.target, machine.machine_id)
        if healthy:
            task = engine.crash_loops.pop(key, None)
            if task is not None:
                task.stop()
        elif key not in engine.crash_loops:
            engine.crash_loops[key] = _start_crash_loop(engine, machine)


def _start_crash_loop(engine: ChaosEngine,
                      machine: NameserverMachine) -> PeriodicTask:
    def crash_again() -> None:
        if machine.state != MachineState.CRASHED:
            machine.crash()

    crash_again()
    # Re-crash one monitoring period after each restart lands, so the
    # machine oscillates crashed -> briefly running -> crashed.
    period = machine.config.restart_delay + MONITORING_PERIOD
    return PeriodicTask(engine.loop, period, crash_again,
                        start_delay=period)


def _slow_io(engine: ChaosEngine, spec: FaultSpec, healthy: bool) -> None:
    factor = spec.severity
    if not healthy and not 0.0 < factor <= 1.0:
        raise ValueError("SLOW_IO severity is a capacity multiple "
                         f"in (0, 1], got {factor}")
    saved_capacity = engine.saved_capacity
    for dep in _target_deployments(engine.deployment, spec.target):
        config = dep.machine.config
        if healthy:
            saved = saved_capacity.pop(dep.machine.machine_id, None)
            if saved is not None:
                config.io_capacity_qps, config.compute_capacity_qps = saved
        else:
            saved_capacity.setdefault(
                dep.machine.machine_id,
                (config.io_capacity_qps, config.compute_capacity_qps))
            config.io_capacity_qps *= factor
            config.compute_capacity_qps *= factor


#: The machine's fault name for each fault :meth:`set_fault` injects.
_MACHINE_FAULT = {
    FaultKind.GRAY_BLACKHOLE: "blackhole",
    FaultKind.GRAY_CORRUPT: "corrupt",
    FaultKind.GRAY_STALE: "stale",
    FaultKind.GRAY_PARTIAL_DROP: "partial_drop",
}


def _machine_fault(engine: ChaosEngine, spec: FaultSpec,
                   healthy: bool) -> None:
    """Gray faults: the machine looks healthy while the data path lies.

    :meth:`NameserverMachine.set_fault` with a kind its own
    ``health_probe`` cannot see, so the monitoring agent never notices;
    only the external differential prober (``control.grayfail``) can.
    """
    kind = None if healthy else _MACHINE_FAULT[spec.kind]
    for dep in _target_deployments(engine.deployment, spec.target):
        dep.machine.set_fault(kind, spec.severity)


# -- control: metadata delivery and zone contents -----------------------------

def _pubsub_partition(engine: ChaosEngine, spec: FaultSpec,
                      healthy: bool) -> None:
    deployment = engine.deployment
    for dep in _target_deployments(deployment, spec.target):
        deployment.bus.set_partitioned(dep.machine, not healthy)
    if healthy:
        # Connectivity is back: next heartbeat refreshes staleness
        # clocks; publish now so recovery is prompt, not lucky.
        deployment.mapping.publish()


def _metadata_freeze(engine: ChaosEngine, spec: FaultSpec,
                     healthy: bool) -> None:
    if healthy:
        engine.deployment.resume_metadata_heartbeat()
    else:
        engine.deployment.pause_metadata_heartbeat()


def _zone_corruption(engine: ChaosEngine, spec: FaultSpec,
                     healthy: bool) -> None:
    deployment = engine.deployment
    good = _good_zone(deployment, spec.target)
    payload = good if healthy else _corrupted_copy(good)
    # Versioned: the later edge wins whichever delivery lands last.
    deployment.bus.publish_zone(CDN_CHANNEL, str(good.origin),
                                ZoneUpdate(payload))


def _bad_zone_publish(engine: ChaosEngine, spec: FaultSpec,
                      healthy: bool) -> None:
    # Clearing is a no-op by design: the corrupt publish is a one-shot
    # event and *recovery is the subsystem under test* — the
    # safe-rollout train must reject or roll it back. Republishing the
    # good zone here would also be rejected as a serial regression by
    # the validator.
    if healthy:
        return
    deployment = engine.deployment
    good = _good_zone(deployment, spec.target)
    deployment.publish_zone_update(bad_zone_copy(good,
                                                 spec.note or "renamed"))


def _signature_expiry(engine: ChaosEngine, spec: FaultSpec,
                      healthy: bool) -> None:
    # One-shot like BAD_ZONE_PUBLISH: the botched signing run is the
    # event, containment is the subsystem under test.
    if healthy:
        return
    deployment = engine.deployment
    validity = spec.severity if spec.severity > 1.0 else 30.0
    deployment.publish_zone_update(expiring_signed_copy(
        _good_zone(deployment, spec.target), deployment.params.seed,
        deployment.loop.now, validity))


def _key_mismatch(engine: ChaosEngine, spec: FaultSpec,
                  healthy: bool) -> None:
    if healthy:
        return
    deployment = engine.deployment
    deployment.publish_zone_update(mismatched_key_copy(
        _good_zone(deployment, spec.target), deployment.params.seed,
        deployment.loop.now))


# -- workload: attack traffic -------------------------------------------------

def _attack_flood(engine: ChaosEngine, spec: FaultSpec,
                  healthy: bool) -> None:
    """A random-subdomain flood (section 4.3.4, class 3) at the anycast
    prefix ``spec.target``, with ``spec.note`` as the victim zone origin
    and ``spec.severity`` as the aggregate rate in packets/sec; cleared,
    the attacker gives up.

    Sources are :func:`attack_sources` — real topology nodes, so the
    flood routes exactly like legitimate resolver traffic and anycast
    traffic engineering genuinely moves it. The generator draws from
    its own seeded RNG (derived from the deployment seed and the
    engine's launch counter), never from a sim stream.
    """
    key = (spec.target, spec.note)
    if healthy:
        attack = engine.floods.pop(key, None)
        if attack is not None:
            attack.stop()
        return
    if key in engine.floods:
        return
    if not spec.note:
        raise ValueError("ATTACK_FLOOD needs the victim zone origin "
                         "in spec.note")
    deployment = engine.deployment
    rng = random.Random(deployment.params.seed * 1_000_003
                        + engine.floods_launched * 7919 + 11)
    engine.floods_launched += 1
    attack = RandomSubdomainAttack(
        deployment.loop, rng, deployment.network.send,
        spec.severity, 10.0 ** 9,
        target=spec.target, victim_zone=name(spec.note),
        sources=attack_sources(deployment))
    attack.start()
    engine.floods[key] = attack


#: Every fault kind's entry; the engine looks each edge up here.
INJECTORS: dict[FaultKind, Entry] = {
    FaultKind.LINK_FLAP: _link_flap,
    FaultKind.LINK_DEGRADE: _link_degrade,
    FaultKind.PARTITION: _partition,
    FaultKind.BGP_RESET: _bgp_reset,
    FaultKind.MACHINE_CRASH: _machine_crash,
    FaultKind.CRASH_LOOP: _crash_loop,
    FaultKind.SLOW_IO: _slow_io,
    FaultKind.PUBSUB_PARTITION: _pubsub_partition,
    FaultKind.METADATA_FREEZE: _metadata_freeze,
    FaultKind.ZONE_CORRUPTION: _zone_corruption,
    FaultKind.BAD_ZONE_PUBLISH: _bad_zone_publish,
    FaultKind.ATTACK_FLOOD: _attack_flood,
    FaultKind.SIGNATURE_EXPIRY: _signature_expiry,
    FaultKind.KEY_MISMATCH: _key_mismatch,
    **dict.fromkeys(_MACHINE_FAULT, _machine_fault),
}


def _corrupted_copy(zone: Zone) -> Zone:
    """A truncated transfer: only the apex survives, contents are lost.

    The copy still passes zone validation (SOA and apex NS intact), so
    machines install it — and then answer NXDOMAIN for every name the
    zone used to hold. That is the insidious form of corruption: the
    per-zone SOA health probe stays green while clients see wrong
    answers, so recovery comes from republication, and the scorecard
    measures the client-visible window.
    """
    corrupt = Zone(zone.origin)
    soa = zone.soa
    apex_ns = zone.get_rrset(zone.origin, RType.NS)
    if soa is None or apex_ns is None:
        raise ValueError(f"zone {zone.origin} is not servable to begin with")
    corrupt.add_rrset(soa)
    corrupt.add_rrset(apex_ns)
    return corrupt


def bad_zone_copy(zone: Zone, mode: str) -> Zone:
    """Build a corrupt copy of ``zone``, by corruption mode.

    * ``"renamed"`` — serial advances and the apex stays intact, but
      every non-apex owner name is scrambled. The nastiest mode: it
      passes every validator rule (nothing is structurally wrong), so
      only the canary health gate can catch it — the old names resolve
      NXDOMAIN the moment a canary installs it.
    * ``"regressive"`` — identical content with the SOA serial stepped
      *backwards*; caught by the validator's ``serial-regression`` rule.
    * ``"truncated"`` — only the apex survives (a partial transfer);
      caught by ``serial-regression`` (content changed, serial did not)
      or ``record-loss`` on larger zones.
    * ``"missing-soa"`` — the SOA is gone entirely; caught by
      ``missing-soa`` (and refused by the zone store either way).
    """
    if mode == "truncated":
        return _corrupted_copy(zone)
    if mode == "missing-soa":
        apex_ns = zone.get_rrset(zone.origin, RType.NS)
        if apex_ns is None:
            raise ValueError(f"zone {zone.origin} has no apex NS")
        bad = Zone(zone.origin)
        bad.add_rrset(apex_ns)
        return bad
    if mode == "regressive":
        bad = Zone(zone.origin)
        bad.add_rrset(soa_with_serial_delta(zone, -1))
        for rrset in zone.iter_rrsets():
            if rrset.rtype is not RType.SOA:
                bad.add_rrset(rrset)
        return bad
    if mode == "renamed":
        bad = Zone(zone.origin)
        bad.add_rrset(soa_with_serial_delta(zone, +1))
        index = 0
        for rrset in zone.iter_rrsets():
            if rrset.rtype is RType.SOA:
                continue
            if rrset.name == zone.origin:
                bad.add_rrset(rrset)
                continue
            index += 1
            bad.add_rrset(make_rrset(
                zone.origin.prepend(f"x{index}"), rrset.rtype,
                rrset.ttl, rrset.rdatas()))
        return bad
    raise ValueError(f"unknown corruption mode {mode!r}")


def _resignable_copy(zone: Zone) -> Zone:
    """Serial-bumped copy of ``zone`` with any DNSSEC records stripped."""
    fresh = Zone(zone.origin)
    fresh.add_rrset(soa_with_serial_delta(zone, +1))
    for rrset in zone.iter_rrsets():
        if rrset.rtype is RType.SOA or rrset.rtype in DNSSEC_TYPES:
            continue
        fresh.add_rrset(rrset)
    return fresh


def expiring_signed_copy(zone: Zone, seed: int, now: float,
                         validity: float) -> Zone:
    """A correctly signed copy whose signatures lapse ``validity``
    seconds after ``now``.

    Every check a publish-time validator can run passes — the keys
    match, the chain closes, the signatures verify — which is exactly
    what makes a too-short validity window the insidious rollover
    botch: only a health gate watching the zone *while time advances*
    (the canary soak) sees it go bogus.
    """
    fresh = _resignable_copy(zone)
    keys = KeyRing(seed, zone.origin)
    policy = SigningPolicy(sig_validity=float(validity),
                           inception_skew=0.0, resign_margin=0.0)
    ZoneSigner(keys, policy).sign(fresh, now)
    return fresh


def mismatched_key_copy(zone: Zone, seed: int, now: float) -> Zone:
    """A copy signed by keys its apex DNSKEY RRset does not publish.

    The signer runs normally, then the DNSKEY RRset is swapped for a
    different key ring's — the classic switch-signer-before-publish
    rollover mistake. Statically detectable, so the validator's
    ``rrsig-key-mismatch`` rule must reject it before any canary
    serves a byte of it.
    """
    fresh = _resignable_copy(zone)
    keys = KeyRing(seed, zone.origin)
    ZoneSigner(keys, SigningPolicy()).sign(fresh, now)
    rogue = KeyRing(seed + 1, zone.origin)
    fresh.add_rrset(rogue.dnskey_rrset(DNSKEY_TTL))
    return fresh
