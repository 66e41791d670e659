"""Per-layer fault injector adapters.

Each injector translates a :class:`~repro.chaos.faults.FaultSpec` into
calls on the *public* failure seams of one layer of the assembled
platform — links and BGP sessions (``netsim``), machines (``server``),
metadata and zone delivery (``control``). No injector reaches into
private state or monkey-patches: if a fault cannot be expressed through
a public seam, the seam is the thing to build, not the injector.

Targets:

* ``"a|b"`` — a specific link between two nodes;
* a PoP router id (``"pop-3"``) — the PoP's machines, its transit
  links, or its primary upstream link depending on fault kind;
* a machine id (``"pop-3-m7"``) — that machine;
* a zone origin (``"ex.net"``) — that zone's delivery path;
* ``"platform"`` — platform-wide faults (metadata freeze).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Protocol

from ..dnscore.name import name
from ..dnscore.records import make_rrset
from ..dnscore.rrtypes import DNSSEC_TYPES, RType
from ..dnscore.zone import Zone
from ..dnssec.keys import KeyRing
from ..dnssec.sign import DNSKEY_TTL, SigningPolicy, ZoneSigner
from ..netsim.clock import PeriodicTask
from ..platform.deployment import AkamaiDNSDeployment, MachineDeployment
from ..server.machine import MachineState
from ..server.monitoring import PERIOD as MONITORING_PERIOD
from ..workload.attacks import RandomSubdomainAttack
from .faults import FaultKind, FaultSpec


class FaultInjector(Protocol):
    """One layer's adapter between fault specs and platform seams."""

    kinds: frozenset[FaultKind]

    def inject(self, spec: FaultSpec) -> None:
        """Apply the fault."""

    def clear(self, spec: FaultSpec) -> None:
        """Remove the fault (restore the seam to healthy state)."""


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


class NetsimInjector:
    """Faults in the Internet layer: links and BGP sessions."""

    kinds = frozenset({FaultKind.LINK_FLAP, FaultKind.LINK_DEGRADE,
                       FaultKind.PARTITION, FaultKind.BGP_RESET})

    def __init__(self, deployment: AkamaiDNSDeployment) -> None:
        self.deployment = deployment

    def inject(self, spec: FaultSpec) -> None:
        self._apply(spec, healthy=False)

    def clear(self, spec: FaultSpec) -> None:
        self._apply(spec, healthy=True)

    def _apply(self, spec: FaultSpec, *, healthy: bool) -> None:
        network = self.deployment.network
        if spec.kind == FaultKind.LINK_FLAP:
            a, b = _parse_link(self.deployment, spec.target)
            network.set_link_up(a, b, healthy)
        elif spec.kind == FaultKind.LINK_DEGRADE:
            a, b = _parse_link(self.deployment, spec.target)
            if healthy:
                network.set_link_degraded(a, b)
            else:
                network.set_link_degraded(
                    a, b, loss=min(1.0, spec.severity),
                    extra_latency_ms=max(0.0, spec.severity) * 100.0)
        elif spec.kind == FaultKind.PARTITION:
            # Every BGP link of the target router goes down: the PoP is
            # cut off from the routed Internet entirely.
            for peer in self.deployment.internet.topology.bgp_neighbors(
                    spec.target):
                network.set_link_up(spec.target, peer, healthy)
        elif spec.kind == FaultKind.BGP_RESET:
            # Sessions drop while the links stay up: the control plane
            # fails independently of the data plane.
            speaker = network.speaker(spec.target)
            for peer in self.deployment.internet.topology.bgp_neighbors(
                    spec.target):
                peer_speaker = network.speaker(peer)
                if healthy:
                    speaker.session_up(peer)
                    peer_speaker.session_up(spec.target)
                else:
                    speaker.session_down(peer)
                    peer_speaker.session_down(spec.target)
        else:
            raise ValueError(f"{spec.kind} is not a netsim fault")


class ServerInjector:
    """Faults in the nameserver layer: crashes, crash loops, slow I/O."""

    kinds = frozenset({FaultKind.MACHINE_CRASH, FaultKind.CRASH_LOOP,
                       FaultKind.SLOW_IO})

    def __init__(self, deployment: AkamaiDNSDeployment) -> None:
        self.deployment = deployment
        self._crash_loops: dict[tuple[str, str], PeriodicTask] = {}
        self._saved_capacity: dict[str, tuple[float, float]] = {}

    def inject(self, spec: FaultSpec) -> None:
        targets = _target_deployments(self.deployment, spec.target)
        if spec.kind == FaultKind.MACHINE_CRASH:
            for dep in targets:
                if dep.machine.state != MachineState.CRASHED:
                    dep.machine.crash()
        elif spec.kind == FaultKind.CRASH_LOOP:
            for dep in targets:
                self._start_crash_loop(spec, dep)
        elif spec.kind == FaultKind.SLOW_IO:
            factor = spec.severity
            if not 0.0 < factor <= 1.0:
                raise ValueError("SLOW_IO severity is a capacity multiple "
                                 f"in (0, 1], got {factor}")
            for dep in targets:
                config = dep.machine.config
                self._saved_capacity.setdefault(
                    dep.machine.machine_id,
                    (config.io_capacity_qps, config.compute_capacity_qps))
                config.io_capacity_qps *= factor
                config.compute_capacity_qps *= factor
        else:
            raise ValueError(f"{spec.kind} is not a server fault")

    def clear(self, spec: FaultSpec) -> None:
        targets = _target_deployments(self.deployment, spec.target)
        if spec.kind == FaultKind.MACHINE_CRASH:
            pass  # the machine's own restart timer recovers it
        elif spec.kind == FaultKind.CRASH_LOOP:
            for dep in targets:
                task = self._crash_loops.pop(
                    (spec.target, dep.machine.machine_id), None)
                if task is not None:
                    task.stop()
        elif spec.kind == FaultKind.SLOW_IO:
            for dep in targets:
                saved = self._saved_capacity.pop(dep.machine.machine_id,
                                                 None)
                if saved is not None:
                    dep.machine.config.io_capacity_qps = saved[0]
                    dep.machine.config.compute_capacity_qps = saved[1]
        else:
            raise ValueError(f"{spec.kind} is not a server fault")

    def _start_crash_loop(self, spec: FaultSpec,
                          dep: MachineDeployment) -> None:
        """Crash now and again right after every restart completes."""
        machine = dep.machine
        key = (spec.target, machine.machine_id)
        if key in self._crash_loops:
            return

        def crash_again() -> None:
            if machine.state != MachineState.CRASHED:
                machine.crash()

        crash_again()
        # Re-crash one monitoring period after each restart lands, so the
        # machine oscillates crashed -> briefly running -> crashed.
        period = machine.config.restart_delay + MONITORING_PERIOD
        self._crash_loops[key] = PeriodicTask(
            self.deployment.loop, period, crash_again, start_delay=period)


class ControlInjector:
    """Faults in the control plane: metadata delivery and zone contents."""

    kinds = frozenset({FaultKind.PUBSUB_PARTITION,
                       FaultKind.METADATA_FREEZE,
                       FaultKind.ZONE_CORRUPTION,
                       FaultKind.BAD_ZONE_PUBLISH,
                       FaultKind.SIGNATURE_EXPIRY,
                       FaultKind.KEY_MISMATCH})

    def __init__(self, deployment: AkamaiDNSDeployment) -> None:
        self.deployment = deployment

    def _good_zone(self, target: str) -> Zone:
        origin = name(target)
        good = self.deployment.enterprise_zones.get(origin)
        if good is None:
            good = next((z for z in self.deployment.akamai_zones
                         if z.origin == origin), None)
        if good is None:
            raise ValueError(f"no zone with origin {target!r}")
        return good

    def inject(self, spec: FaultSpec) -> None:
        self._apply(spec, healthy=False)

    def clear(self, spec: FaultSpec) -> None:
        self._apply(spec, healthy=True)

    def _apply(self, spec: FaultSpec, *, healthy: bool) -> None:
        deployment = self.deployment
        if spec.kind == FaultKind.PUBSUB_PARTITION:
            for dep in _target_deployments(deployment, spec.target):
                deployment.bus.set_partitioned(dep.machine, not healthy)
            if healthy:
                # Connectivity is back: next heartbeat refreshes staleness
                # clocks; publish now so recovery is prompt, not lucky.
                deployment.mapping.publish()
        elif spec.kind == FaultKind.METADATA_FREEZE:
            if healthy:
                deployment.resume_metadata_heartbeat()
            else:
                deployment.pause_metadata_heartbeat()
        elif spec.kind == FaultKind.ZONE_CORRUPTION:
            good = self._good_zone(spec.target)
            payload = good if healthy else _corrupted_copy(good)
            from ..control.pubsub import CDN_CHANNEL
            deployment.bus.publish(CDN_CHANNEL, "zone", str(good.origin),
                                   payload)
        elif spec.kind == FaultKind.BAD_ZONE_PUBLISH:
            # Clearing is a no-op by design: the corrupt publish is a
            # one-shot event and *recovery is the subsystem under test*
            # — the safe-rollout train must reject or roll it back.
            # Republishing the good zone here would also be rejected as
            # a serial regression by the validator.
            if healthy:
                return
            good = self._good_zone(spec.target)
            mode = spec.note or "renamed"
            deployment.publish_zone_update(bad_zone_copy(good, mode))
        elif spec.kind == FaultKind.SIGNATURE_EXPIRY:
            # One-shot like BAD_ZONE_PUBLISH: the botched signing run is
            # the event, containment is the subsystem under test.
            if healthy:
                return
            validity = spec.severity if spec.severity > 1.0 else 30.0
            deployment.publish_zone_update(expiring_signed_copy(
                self._good_zone(spec.target), deployment.params.seed,
                deployment.loop.now, validity))
        elif spec.kind == FaultKind.KEY_MISMATCH:
            if healthy:
                return
            deployment.publish_zone_update(mismatched_key_copy(
                self._good_zone(spec.target), deployment.params.seed,
                deployment.loop.now))
        else:
            raise ValueError(f"{spec.kind} is not a control fault")


#: Stub routers a flood is sourced from.
ATTACK_SOURCES = 8


class AttackInjector:
    """Attack traffic as a declarative fault (section 4.3.4, class 3).

    ``inject`` starts a random-subdomain flood at the anycast prefix
    named by ``spec.target``, with ``spec.note`` as the victim zone
    origin and ``spec.severity`` as the aggregate rate in packets/sec;
    ``clear`` stops it (the attacker gives up). Sources are a
    deterministic slice of the Internet's stub networks — real
    topology nodes, so the flood routes exactly like legitimate
    resolver traffic and anycast traffic engineering genuinely moves
    it. The generator draws from its own seeded RNG (derived from the
    deployment seed and a launch counter), never from a sim stream.
    """

    kinds = frozenset({FaultKind.ATTACK_FLOOD})

    def __init__(self, deployment: AkamaiDNSDeployment) -> None:
        self.deployment = deployment
        self._attacks: dict[tuple[str, str], RandomSubdomainAttack] = {}
        self._launched = 0

    def attack_sources(self) -> list[str]:
        """The stub-router ids the flood is sourced from (stable order)."""
        stubs = sorted(self.deployment.internet.stubs)
        return stubs[:ATTACK_SOURCES]

    def inject(self, spec: FaultSpec) -> None:
        key = (spec.target, spec.note)
        if key in self._attacks:
            return
        if not spec.note:
            raise ValueError("ATTACK_FLOOD needs the victim zone origin "
                             "in spec.note")
        deployment = self.deployment
        rng = random.Random(deployment.params.seed * 1_000_003
                            + self._launched * 7919 + 11)
        self._launched += 1
        attack = RandomSubdomainAttack(
            deployment.loop, rng, deployment.network.send,
            spec.severity, 10.0 ** 9,
            target=spec.target, victim_zone=name(spec.note),
            sources=self.attack_sources())
        attack.start()
        self._attacks[key] = attack

    def clear(self, spec: FaultSpec) -> None:
        attack = self._attacks.pop((spec.target, spec.note), None)
        if attack is not None:
            attack.stop()


class GrayInjector:
    """Gray faults: the machine looks healthy while the data path lies.

    Drives :meth:`NameserverMachine.set_gray_fault` — the public chaos
    seam that degrades only the *real* query path. ``health_probe`` is
    deliberately unaffected, so the on-machine monitoring agent never
    sees these faults; only the external differential prober
    (``control.grayfail``) can.
    """

    kinds = frozenset({FaultKind.GRAY_BLACKHOLE, FaultKind.GRAY_CORRUPT,
                       FaultKind.GRAY_STALE, FaultKind.GRAY_PARTIAL_DROP})

    _GRAY_KIND = {
        FaultKind.GRAY_BLACKHOLE: "blackhole",
        FaultKind.GRAY_CORRUPT: "corrupt",
        FaultKind.GRAY_STALE: "stale",
        FaultKind.GRAY_PARTIAL_DROP: "partial_drop",
    }

    def __init__(self, deployment: AkamaiDNSDeployment) -> None:
        self.deployment = deployment

    def inject(self, spec: FaultSpec) -> None:
        severity = spec.severity
        if spec.kind is FaultKind.GRAY_PARTIAL_DROP \
                and not 0.0 < severity <= 1.0:
            raise ValueError("GRAY_PARTIAL_DROP severity is a drop "
                             f"fraction in (0, 1], got {severity}")
        for dep in _target_deployments(self.deployment, spec.target):
            dep.machine.set_gray_fault(self._GRAY_KIND[spec.kind],
                                       severity)

    def clear(self, spec: FaultSpec) -> None:
        for dep in _target_deployments(self.deployment, spec.target):
            dep.machine.set_gray_fault(None)


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


def _soa_with_serial_delta(zone: Zone, delta: int):
    """The zone's SOA RRset with its serial shifted by ``delta``."""
    soa_rrset = zone.soa
    assert soa_rrset is not None
    rdata = soa_rrset.records[0].rdata
    return make_rrset(soa_rrset.name, RType.SOA, soa_rrset.ttl,
                      [replace(rdata, serial=rdata.serial + delta)])


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
        bad.add_rrset(_soa_with_serial_delta(zone, -1))
        for rrset in zone.iter_rrsets():
            if rrset.rtype is not RType.SOA:
                bad.add_rrset(rrset)
        return bad
    if mode == "renamed":
        bad = Zone(zone.origin)
        bad.add_rrset(_soa_with_serial_delta(zone, +1))
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
    fresh.add_rrset(_soa_with_serial_delta(zone, +1))
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


def default_injectors(deployment: AkamaiDNSDeployment
                      ) -> dict[FaultKind, FaultInjector]:
    """The standard kind -> injector dispatch table."""
    table: dict[FaultKind, FaultInjector] = {}
    for injector in (NetsimInjector(deployment), ServerInjector(deployment),
                     ControlInjector(deployment),
                     AttackInjector(deployment), GrayInjector(deployment)):
        for kind in injector.kinds:
            table[kind] = injector
    return table
