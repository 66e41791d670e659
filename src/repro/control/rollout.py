"""The safe-rollout release train: validate, canary, soak, promote.

Turns fire-and-forget zone publishes into the paper's phased metadata
deployment (section 4.2.1): a candidate zone is first semantically
validated against the last-known-good version
(:func:`repro.dnscore.validate.validate_update`), then pushed only to
the *canary cohort* — the input-delayed deployments plus one designated
cloud — and health-gated for a soak window of simulated time. Only a
clean soak promotes the update to the rest of the fleet; a tripped gate
publishes the last-known-good version back to the canaries instead.

Release lifecycle::

                    +------------+
      publish() --> | VALIDATING |
                    +-----+------+
                 fatal |      | clean
                       v      v
               +----------+  +--------+   newer publish   +------------+
               | REJECTED |  | CANARY | ----------------> | SUPERSEDED |
               +----------+  +---+----+    (same origin)  +------------+
                        gate |      | soak deadline, gate quiet
                     tripped v      v
               +-------------+    +----------+
               | ROLLED_BACK |    | PROMOTED |
               +-------------+    +----------+

The health gate owns its *own* detector instances
(:class:`repro.telemetry.alerts.RatioDetector`) fed by deterministic
canary probing through ``machine.health_probe`` — it never reads the
globally active telemetry session, which must stay purely passive.
Probe targets are sampled from the last-known-good zone (wildcards get
synthesized labels), so a canary that NXDOMAINs or SERVFAILs names it
served a moment ago is caught within one gate window.

Rollback rides the same versioned bus seam
(:meth:`~repro.control.pubsub.MetadataBus.publish_zone`): the
last-known-good republish gets a *newer* version than the corrupt zone,
so a slow corrupt delivery that arrives after the rollback is dropped
at the subscriber — without the ordering guard it would silently
re-corrupt the machine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..dnscore.message import make_query
from ..dnscore.name import Name
from ..dnscore.rrtypes import RCode, RType
from ..dnscore.validate import (ValidationLimits, ZoneUpdate,
                                validate_update)
from ..dnscore.zone import Zone
from ..netsim.clock import EventLoop
from ..server.machine import NameserverMachine
from ..telemetry import state as _telemetry
from ..telemetry.alerts import AlertSeverity, RatioDetector
from .pubsub import CDN_CHANNEL, MetadataBus


class RolloutPhase(enum.Enum):
    """Lifecycle phase of one release."""

    VALIDATING = "validating"
    REJECTED = "rejected"
    CANARY = "canary"
    PROMOTED = "promoted"
    ROLLED_BACK = "rolled_back"
    SUPERSEDED = "superseded"


#: Max (qname, qtype) probe targets sampled from the previous zone.
PROBE_SAMPLES = 8
#: Detector window; with ``for_windows=1`` the gate can trip one window
#: after the bad zone lands on a canary.
GATE_WINDOW = 3.0
#: Trip threshold of each of the three gate detectors.
MAX_BAD_RATIO = 0.25
#: Minimum probe answers per window before a ratio is believed.
MIN_PROBES = 2


@dataclass(frozen=True, slots=True)
class RolloutParams:
    """Tunables for the release train."""

    #: Sim-time the canary cohort soaks before fleet-wide promotion.
    soak_seconds: float = 30.0
    #: Period of the canary probing / gate evaluation tick.
    check_period: float = 1.0


@dataclass(frozen=True, slots=True)
class RolloutEvent:
    """One timestamped release-train transition, for timelines."""

    time: float
    release_id: int
    origin: str
    phase: RolloutPhase
    detail: str


@dataclass(slots=True)
class Release:
    """One zone version moving through the train."""

    release_id: int
    origin: Name
    zone: Zone
    phase: RolloutPhase
    published_at: float
    decided_at: float | None = None
    detail: str = ""
    gate: "CanaryHealthGate | None" = None
    targets: list[tuple[Name, RType]] = field(default_factory=list)


class CanaryHealthGate:
    """Health gate over one release's canary cohort.

    Owns three standalone :class:`RatioDetector` instances (probe
    failure, NXDOMAIN ratio, SERVFAIL ratio). Detector state is local
    to the release: the gate works with telemetry disabled and never
    perturbs the passive session.
    """

    def __init__(self) -> None:
        self.detectors = tuple(
            RatioDetector(name, threshold=MAX_BAD_RATIO, window=GATE_WINDOW,
                          min_count=MIN_PROBES, for_windows=1,
                          severity=AlertSeverity.CRITICAL)
            for name in ("canary-probe-failure", "canary-nxdomain",
                         "canary-servfail"))
        self.probes = 0
        self.failures = 0

    def observe(self, now: float, *, failed: bool, nxdomain: bool,
                servfail: bool) -> None:
        self.probes += 1
        if failed:
            self.failures += 1
        fail_d, nx_d, sf_d = self.detectors
        fail_d.observe(now, 1.0 if failed else 0.0)
        nx_d.observe(now, 1.0 if nxdomain else 0.0)
        sf_d.observe(now, 1.0 if servfail else 0.0)

    def tripped(self) -> str | None:
        """Name of the first firing detector, or None."""
        for detector in self.detectors:
            if detector.firing:
                return detector.name
        return None

    def finalize(self, now: float) -> None:
        for detector in self.detectors:
            detector.finalize(now)


def probe_targets(zone: Zone, count: int) -> list[tuple[Name, RType]]:
    """Sample up to ``count`` (qname, qtype) probe targets from a zone.

    Deterministic: follows the zone's canonical RRset order. Wildcard
    owners are replaced by synthesized labels so the probe exercises
    wildcard expansion; a zone with no probeable data falls back to the
    apex SOA.
    """
    probeable = (RType.A, RType.AAAA, RType.CNAME, RType.TXT, RType.MX)
    targets: list[tuple[Name, RType]] = []
    for rrset in zone.iter_rrsets():
        if rrset.rtype not in probeable:
            continue
        qname = rrset.name
        if qname.is_wildcard:
            qname = qname.parent().prepend(f"canary{len(targets)}")
        qtype = RType.A if rrset.rtype is RType.CNAME else rrset.rtype
        targets.append((qname, qtype))
        if len(targets) >= count:
            break
    if not targets:
        targets.append((zone.origin, RType.SOA))
    return targets


class RolloutCoordinator:
    """Drives releases through validate -> canary -> promote/rollback."""

    def __init__(self, loop: EventLoop, bus: MetadataBus, *,
                 canaries: list[NameserverMachine],
                 fleet: list[NameserverMachine],
                 params: RolloutParams | None = None) -> None:
        self.loop = loop
        self.bus = bus
        self.params = params or RolloutParams()
        self.canaries = list(canaries)
        self.fleet = list(fleet)
        #: Fleet minus canaries: the promotion audience.
        self._rest = [m for m in self.fleet
                      if not any(m is c for c in self.canaries)]
        #: Canaries the gate actively probes. Input-delayed machines
        #: receive the update hours later by design — probing them
        #: would grade the *old* zone against the new release.
        self._probed = [m for m in self.canaries
                        if not m.config.input_delayed]
        self.last_known_good: dict[Name, Zone] = {}
        self.releases: list[Release] = []
        self.events: list[RolloutEvent] = []
        self._active: dict[Name, Release] = {}
        self._msg_id = 0
        self.promotions = 0
        self.rejections = 0
        self.rollbacks = 0

    # -- baseline ----------------------------------------------------------

    def set_baseline(self, zone: Zone) -> None:
        """Record an already-deployed zone as last-known-good."""
        self.last_known_good[zone.origin] = zone

    # -- release train -----------------------------------------------------

    def publish(self, zone: Zone) -> Release:
        """Submit a zone update to the release train.

        Fatal validation issues reject the release before anything is
        published. Otherwise the update goes to the canary cohort and
        soaks under the health gate; a newer publish for the same
        origin supersedes an in-flight canary.
        """
        origin = zone.origin
        previous = self.last_known_good.get(origin)
        # The coordinator has a clock, so the validator can also judge
        # signature lifetimes (signed zones reject if already expired).
        report = validate_update(
            zone, previous, limits=ValidationLimits(now=self.loop.now))
        release = Release(release_id=len(self.releases) + 1, origin=origin,
                          zone=zone, phase=RolloutPhase.VALIDATING,
                          published_at=self.loop.now)
        self.releases.append(release)
        if report.fatal:
            self.rejections += 1
            self._transition(release, RolloutPhase.REJECTED,
                             "validator: " + ", ".join(report.fatal_rules()))
            return release
        stale = self._active.pop(origin, None)
        if stale is not None and stale.phase is RolloutPhase.CANARY:
            self._transition(stale, RolloutPhase.SUPERSEDED,
                             f"superseded by release {release.release_id}")
        self._active[origin] = release
        release.gate = CanaryHealthGate()
        release.targets = probe_targets(
            previous if previous is not None else zone, PROBE_SAMPLES)
        self._transition(release, RolloutPhase.CANARY,
                         f"canary push to {len(self.canaries)} machines, "
                         f"soak {self.params.soak_seconds:g}s")
        self.bus.publish_zone(
            CDN_CHANNEL, str(origin),
            ZoneUpdate(zone, release_id=release.release_id),
            to=self.canaries)
        self.loop.call_later(self.params.check_period, self._tick, release)
        return release

    def _tick(self, release: Release) -> None:
        if release.phase is not RolloutPhase.CANARY:
            return
        now = self.loop.now
        gate = release.gate
        assert gate is not None
        for machine in self._probed:
            for qname, qtype in release.targets:
                self._msg_id = (self._msg_id + 1) % 0x10000
                response = machine.health_probe(
                    make_query(self._msg_id, qname, qtype))
                if response is None:
                    gate.observe(now, failed=True, nxdomain=False,
                                 servfail=False)
                    continue
                rcode = response.flags.rcode
                gate.observe(
                    now,
                    failed=rcode is not RCode.NOERROR
                    or not response.answers,
                    nxdomain=rcode is RCode.NXDOMAIN,
                    servfail=rcode is RCode.SERVFAIL)
        tripped = gate.tripped()
        if tripped is not None:
            self._roll_back(release, f"health gate tripped: {tripped}")
            return
        if now - release.published_at >= self.params.soak_seconds:
            gate.finalize(now)
            tripped = gate.tripped()
            if tripped is not None:
                self._roll_back(release, f"health gate tripped: {tripped}")
            else:
                self._promote(release)
            return
        self.loop.call_later(self.params.check_period, self._tick, release)

    def _promote(self, release: Release) -> None:
        self.promotions += 1
        self._active.pop(release.origin, None)
        self.last_known_good[release.origin] = release.zone
        gate = release.gate
        self._transition(
            release, RolloutPhase.PROMOTED,
            f"clean soak ({gate.probes if gate else 0} probes, "
            f"{gate.failures if gate else 0} failures); promoting to "
            f"{len(self._rest)} remaining machines")
        if self._rest:
            self.bus.publish_zone(
                CDN_CHANNEL, str(release.origin),
                ZoneUpdate(release.zone, release_id=release.release_id),
                to=self._rest)

    def _roll_back(self, release: Release, reason: str) -> None:
        self.rollbacks += 1
        self._active.pop(release.origin, None)
        good = self.last_known_good.get(release.origin)
        if good is None:
            self._transition(release, RolloutPhase.ROLLED_BACK,
                             reason + "; no last-known-good to restore")
            return
        self._transition(
            release, RolloutPhase.ROLLED_BACK,
            f"{reason}; republishing last-known-good to "
            f"{len(self.canaries)} canaries")
        self.bus.publish_zone(
            CDN_CHANNEL, str(release.origin),
            ZoneUpdate(good, rollback=True, release_id=release.release_id),
            to=self.canaries)

    # -- external triggers -------------------------------------------------

    def rollback_origin(self, origin: Name, *,
                        reason: str = "external trigger") -> bool:
        """Roll back an origin on an external signal (operator trigger).

        An active canary release is rolled back in place. With no
        release in flight, the last-known-good version is republished
        fleet-wide — the emergency path for corruption detected after
        promotion. Returns False when there is nothing to restore.
        """
        active = self._active.get(origin)
        if active is not None and active.phase is RolloutPhase.CANARY:
            self._roll_back(active, reason)
            return True
        good = self.last_known_good.get(origin)
        if good is None:
            return False
        self.rollbacks += 1
        self._record(0, str(origin), RolloutPhase.ROLLED_BACK,
                     f"{reason}; emergency fleet-wide republish of "
                     f"last-known-good")
        self.bus.publish_zone(CDN_CHANNEL, str(origin),
                              ZoneUpdate(good, rollback=True),
                              to=self.fleet)
        return True

    # -- bookkeeping -------------------------------------------------------

    def _transition(self, release: Release, phase: RolloutPhase,
                    detail: str) -> None:
        release.phase = phase
        release.decided_at = self.loop.now
        release.detail = detail
        self._record(release.release_id, str(release.origin), phase, detail)

    def _record(self, release_id: int, origin: str, phase: RolloutPhase,
                detail: str) -> None:
        self.events.append(RolloutEvent(self.loop.now, release_id, origin,
                                        phase, detail))
        _telemetry.record("rollout_events_total", (origin, phase.value))

    def timeline(self) -> list[str]:
        """Human-readable event log (for examples and reports)."""
        return [f"[{e.time:8.2f}s] release {e.release_id} "
                f"{e.origin} {e.phase.value.upper():11s} {e.detail}"
                for e in self.events]
