"""External gray-failure detection: differential probing + verdicts.

A machine can be *gray*-failed: its own monitoring agent passes every
health check (the nameserver process is up, ``health_probe`` answers)
while the real data path silently corrupts answers, serves a frozen
zone, or drops a slice of resolvers. The paper's answer (section 4) is
to layer **external** monitoring over the per-machine agent and remove
misbehaving machines through the same quorum-guarded suspension path.
This module is that layer, in three pieces:

* a **vantage-point prober** — per-PoP vantage hosts issuing *real*
  queries through the netsim anycast path (never ``health_probe``),
  with source ports planned so the PoP's ECMP hash lands each probe on
  the intended machine, and answers attributed by the responding
  machine id in the :class:`~repro.server.pop.ResponseEnvelope`;
* a **differential auditor** (:class:`DifferentialAuditor`) — compares
  each machine's answers against the majority answer of its peers
  serving identical zone versions, bounds SOA-serial staleness against
  the fleet-max serial, and enforces an answered-fraction floor;
* a **verdict state machine** (:class:`Verdict`) with hysteresis —
  healthy -> suspect -> convicted -> probation -> exonerated — where a
  conviction routes *exclusively* through the
  :class:`~repro.server.monitoring.SuspensionCoordinator` quorum
  (never direct suspension), and a suspended machine rejoins only via
  staged probation: shadow probes served through the real data path at
  an elevated rate, traffic restored after N consecutive clean cycles.

Everything here is opt-in (``AkamaiDNSDeployment.enable_grayfail``) and
draws no shared simulation RNG, so deployments that never enable the
prober are byte-identical with or without this module loaded.

Measurement-style external probing follows ZDNS (arXiv:2309.13495);
the "what must a correct responder return" framing follows Reachability
Analysis of the DNS (arXiv:2411.10188).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from ..dnscore.message import Message, make_query
from ..dnscore.name import Name
from ..dnscore.rrtypes import RType
from ..netsim.clock import EventLoop, PeriodicTask
from ..netsim.network import Network
from ..netsim.packet import Datagram
from ..server.machine import MachineState, NameserverMachine, QueryEnvelope
from ..server.monitoring import SuspensionCoordinator
from ..server.pop import INTRA_POP_LATENCY_S, PoP, ResponseEnvelope, ecmp_hash
from ..server.speaker import MachineBGPSpeaker
from ..telemetry import state as _telemetry

#: Source-port range the prober searches for ECMP-steering ports.
_PORT_BASE = 20000
_PORT_SEARCH = 4096

#: Fallback one-way vantage->router latency when the topology has no
#: path (never the case for co-located vantages; defensive only).
_FALLBACK_LATENCY_S = 0.001


class Verdict(enum.Enum):
    """Where a machine stands with the external auditor."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    CONVICTED = "convicted"
    PROBATION = "probation"
    EXONERATED = "exonerated"


#: Gauge encoding for telemetry (EXONERATED is transient; it lands on 0
#: because the machine is immediately HEALTHY again).
_VERDICT_LEVEL = {
    Verdict.HEALTHY: 0.0,
    Verdict.SUSPECT: 1.0,
    Verdict.CONVICTED: 2.0,
    Verdict.PROBATION: 3.0,
    Verdict.EXONERATED: 0.0,
}


#: Seconds between probe rounds, and before the first.
PROBE_PERIOD = 2.0
START_DELAY = 1.0
#: Vantage hosts attached at each PoP (each sends one A probe per
#: machine per round; the first also sends the SOA serial probe).
VANTAGES_PER_POP = 3
#: Consecutive bad rounds before HEALTHY escalates to SUSPECT.
SUSPECT_AFTER = 2
#: Further consecutive bad rounds before SUSPECT becomes CONVICTED.
CONVICT_AFTER = 2
#: Consecutive clean rounds that clear a SUSPECT (or a convicted-but-
#: serving machine whose suspension was quorum-denied).
EXONERATE_AFTER = 2
#: Continuous seconds a machine's SOA serial may lag the fleet-max
#: serial before lag counts as evidence (absorbs pub/sub jitter).
STALE_GRACE = 30.0
#: Seconds a suspended machine rests before probation probing starts.
PROBATION_DELAY = 10.0
#: Consecutive clean probation rounds before traffic is restored.
PROBATION_CLEAN_ROUNDS = 3
#: Shadow A-probes per probation round (elevated vs the live rate).
PROBATION_PROBES = 4
#: Minimum answered/sent fraction per round; below it is evidence.
ANSWERED_FLOOR = 0.9
#: Minimum machines reporting an answer digest before the majority
#: cross-check applies (differential evidence needs peers).
MIN_PEERS = 3


@dataclass(slots=True)
class GrayTarget:
    """One probeable machine plus the seams the controller acts through."""

    machine: NameserverMachine
    speaker: MachineBGPSpeaker
    pop: PoP
    prefix: str


@dataclass(slots=True)
class ProbeRecord:
    """What one round of probes observed about one machine."""

    machine_id: str
    sent: int = 0
    answered: int = 0
    #: answer digest -> count, A probes only.
    digests: dict = field(default_factory=dict)
    soa_serial: int | None = None


@dataclass(frozen=True, slots=True)
class RoundFinding:
    """The auditor's judgment of one machine for one round."""

    machine_id: str
    ok: bool
    reasons: tuple[str, ...] = ()


def answer_digest(message: Message) -> tuple:
    """Order-independent fingerprint of a response's answer section."""
    return (int(message.flags.rcode),
            tuple(sorted((str(r.name), int(r.rtype), r.ttl, str(r.rdata))
                         for r in message.answers)))


def _soa_serial(message: Message) -> int | None:
    for record in message.answers:
        if record.rtype == RType.SOA:
            return record.rdata.serial
    return None


class DifferentialAuditor:
    """Judges each round's probe records against peer consensus.

    Three rules, each sufficient for evidence:

    1. **answered-fraction floor** — a machine answering fewer than
       ``ANSWERED_FLOOR`` of its probes is dropping real queries (the
       per-resolver partial-drop gray fault shows up here, because
       different vantages hash to different drop outcomes);
    2. **majority answer** — with at least ``MIN_PEERS`` machines
       reporting a digest, any machine whose representative digest
       differs from the strict-majority digest disagrees with peers
       serving the identical zone version;
    3. **SOA staleness bound** — a machine whose probe-zone SOA serial
       lags the fleet-max serial continuously for longer than
       ``STALE_GRACE`` is serving a frozen zone.
    """

    def __init__(self) -> None:
        #: machine id -> sim time its serial first lagged the fleet max.
        self._lag_since: dict[str, float] = {}

    def audit(self, now: float,
              records: dict[str, ProbeRecord]) -> dict[str, RoundFinding]:
        reasons: dict[str, list[str]] = {m: [] for m in records}

        for machine_id, rec in records.items():
            if rec.sent and rec.answered / rec.sent < ANSWERED_FLOOR:
                reasons[machine_id].append(
                    f"answered {rec.answered}/{rec.sent} probes")

        # Representative digest per machine: most frequent, smallest on
        # ties — deterministic regardless of arrival order.
        representative: dict[str, tuple] = {}
        for machine_id, rec in records.items():
            if rec.digests:
                representative[machine_id] = min(
                    sorted(rec.digests), key=lambda d: -rec.digests[d])
        if len(representative) >= MIN_PEERS:
            counts: dict[tuple, int] = {}
            for digest in representative.values():
                counts[digest] = counts.get(digest, 0) + 1
            need = len(representative) // 2 + 1
            majority = None
            for digest in sorted(counts):
                if counts[digest] >= need:
                    majority = digest
                    break
            if majority is not None:
                for machine_id, digest in representative.items():
                    if digest != majority:
                        reasons[machine_id].append(
                            "answer disagrees with peer majority")

        serials = {m: rec.soa_serial for m, rec in records.items()
                   if rec.soa_serial is not None}
        if serials:
            reference = max(serials.values())
            for machine_id, serial in serials.items():
                if serial < reference:
                    since = self._lag_since.setdefault(machine_id, now)
                    if now - since > STALE_GRACE:
                        reasons[machine_id].append(
                            f"SOA serial {serial} behind fleet {reference}")
                else:
                    self._lag_since.pop(machine_id, None)

        return {m: RoundFinding(m, not r, tuple(r))
                for m, r in reasons.items()}


class ProbeVantage:
    """A vantage-point host endpoint feeding responses to the controller."""

    def __init__(self, network: Network, host_id: str,
                 on_response: Callable[[str, Datagram], None]) -> None:
        self.host_id = host_id
        self._on_response = on_response
        network.attach_endpoint(host_id, self)

    def handle_datagram(self, dgram: Datagram) -> None:
        if isinstance(dgram.payload, ResponseEnvelope):
            self._on_response(self.host_id, dgram)


@dataclass(slots=True)
class _Track:
    """The controller's per-machine verdict state."""

    target: GrayTarget
    verdict: Verdict = Verdict.HEALTHY
    bad_rounds: int = 0
    clean_rounds: int = 0
    lease_held: bool = False
    suspended_at: float | None = None
    first_evidence_at: float | None = None
    last_reasons: tuple[str, ...] = ()


class GrayFailController:
    """Runs the prober, the auditor, and the verdict state machine.

    Every suspension routes through the coordinator quorum: a CONVICTED
    machine keeps serving (degraded-but-serving, design principle iii)
    until ``request_suspension`` grants a lease, and the lease is
    renewed each round while held and released on rejoin or crash.
    """

    def __init__(self, loop: EventLoop, network: Network,
                 targets: list[GrayTarget],
                 coordinator: SuspensionCoordinator, *,
                 vantages: dict[str, list[str]],
                 probe_qname: Name, probe_origin: Name) -> None:
        self.loop = loop
        self.network = network
        self.coordinator = coordinator
        self.probe_qname = probe_qname
        self.probe_origin = probe_origin
        self.auditor = DifferentialAuditor()
        self.tracks: dict[str, _Track] = {
            t.machine.machine_id: _Track(t) for t in targets}
        #: PoP router id -> vantage host ids attached there.
        self._vantages = {pop: list(ids) for pop, ids in vantages.items()}
        self._endpoints = [ProbeVantage(network, host_id, self._on_response)
                           for ids in vantages.values() for host_id in ids]
        #: (vantage id, msg id) -> (expected machine id, probe kind).
        self._pending: dict[tuple[str, int], tuple[str, str]] = {}
        self._records: dict[str, ProbeRecord] = {}
        self._port_cache: dict[tuple, int | None] = {}
        self._msg_id = 0
        # -- observable outcomes ------------------------------------------
        self.convictions = 0
        self.suspensions = 0
        self.denials = 0
        self.rejoins = 0
        self.probes_sent = 0
        #: (sim time, machine id, verdict value) per transition.
        self.timeline: list[tuple[float, str, str]] = []
        #: (machine id, seconds from first evidence to conviction).
        self.detections: list[tuple[str, float]] = []
        #: Called with the machine id at the moment of conviction, before
        #: any suspension attempt (campaigns use this to snapshot what
        #: the machine's *own* agent believes at that instant).
        self.on_convict: list[Callable[[str], None]] = []
        for track in self.tracks.values():
            track.target.machine.crash_listeners.append(self._on_crash)
        self._task = PeriodicTask(loop, PROBE_PERIOD, self._round,
                                  start_delay=START_DELAY)

    def verdict(self, machine_id: str) -> Verdict:
        return self.tracks[machine_id].verdict

    def last_reasons(self, machine_id: str) -> tuple[str, ...]:
        """The auditor's findings from the machine's last bad round."""
        return tuple(self.tracks[machine_id].last_reasons)

    def verdict_counts(self) -> dict[str, int]:
        """How many machines currently sit at each verdict."""
        counts: dict[str, int] = {}
        for track in self.tracks.values():
            counts[track.verdict.value] = \
                counts.get(track.verdict.value, 0) + 1
        return counts

    # -- probe round --------------------------------------------------------

    def _round(self) -> None:
        now = self.loop.now
        if self._records:
            findings = self.auditor.audit(now, self._records)
            for machine_id, finding in findings.items():
                track = self.tracks.get(machine_id)
                if track is not None:
                    self._apply_finding(track, finding, now)
        self._pending.clear()
        self._records = {}
        self._service_leases(now)
        self._send_probes()

    # -- verdict state machine ----------------------------------------------

    def _apply_finding(self, track: _Track, finding: RoundFinding,
                       now: float) -> None:
        if finding.ok:
            track.bad_rounds = 0
            track.clean_rounds += 1
            if track.verdict is Verdict.SUSPECT \
                    and track.clean_rounds >= EXONERATE_AFTER:
                self._exonerate(track, now)
            elif track.verdict is Verdict.CONVICTED \
                    and not track.lease_held \
                    and track.clean_rounds >= EXONERATE_AFTER:
                # Quorum denied the suspension and the machine healed
                # while serving degraded: no probation needed, it never
                # left the traffic set.
                self._exonerate(track, now)
            elif track.verdict is Verdict.PROBATION \
                    and track.clean_rounds >= PROBATION_CLEAN_ROUNDS:
                self._rejoin(track, now)
            return
        track.clean_rounds = 0
        track.bad_rounds += 1
        track.last_reasons = finding.reasons
        if track.bad_rounds == 1 \
                and track.verdict in (Verdict.HEALTHY, Verdict.SUSPECT):
            # Detection latency is measured from the first round of the
            # continuous evidence run that ends in conviction.
            track.first_evidence_at = now
        if track.verdict is Verdict.HEALTHY \
                and track.bad_rounds >= SUSPECT_AFTER:
            self._transition(track, Verdict.SUSPECT, now)
        elif track.verdict is Verdict.SUSPECT \
                and track.bad_rounds >= SUSPECT_AFTER + CONVICT_AFTER:
            self._convict(track, now)
        elif track.verdict is Verdict.PROBATION:
            # Failed a shadow probe round: back to the bench, probation
            # restarts after another rest period.
            track.suspended_at = now
            self._transition(track, Verdict.CONVICTED, now)

    def _convict(self, track: _Track, now: float) -> None:
        self._transition(track, Verdict.CONVICTED, now)
        self.convictions += 1
        machine_id = track.target.machine.machine_id
        latency = now - (track.first_evidence_at
                         if track.first_evidence_at is not None else now)
        self.detections.append((machine_id, latency))
        _telemetry.record("gray_detection_seconds", value=latency)
        for hook in self.on_convict:
            hook(machine_id)

    def _exonerate(self, track: _Track, now: float) -> None:
        self._transition(track, Verdict.EXONERATED, now)
        self._transition(track, Verdict.HEALTHY, now)
        track.bad_rounds = 0
        track.clean_rounds = 0
        track.first_evidence_at = None
        track.suspended_at = None

    def _rejoin(self, track: _Track, now: float) -> None:
        self.coordinator.resume(track.target.machine, track.target.speaker)
        track.lease_held = False
        self.rejoins += 1
        self._exonerate(track, now)

    def _transition(self, track: _Track, verdict: Verdict,
                    now: float) -> None:
        track.verdict = verdict
        machine_id = track.target.machine.machine_id
        self.timeline.append((now, machine_id, verdict.value))
        _telemetry.record("gray_verdicts_total", (machine_id, verdict.value))
        _telemetry.record("gray_verdict_state", (machine_id,),
                          value=_VERDICT_LEVEL[verdict])

    # -- suspension lease lifecycle ------------------------------------------

    def _service_leases(self, now: float) -> None:
        for track in self.tracks.values():
            machine = track.target.machine
            if track.lease_held:
                self.coordinator.renew(machine.machine_id)
                if track.verdict is Verdict.CONVICTED \
                        and machine.state is MachineState.SUSPENDED \
                        and track.suspended_at is not None \
                        and now - track.suspended_at >= PROBATION_DELAY:
                    track.clean_rounds = 0
                    self._transition(track, Verdict.PROBATION, now)
            elif track.verdict is Verdict.CONVICTED:
                if machine.state is not MachineState.RUNNING:
                    # Crashed, or suspended by its own agent: nothing
                    # for the external controller to remove.
                    continue
                if self.coordinator.suspend(machine, track.target.speaker):
                    track.lease_held = True
                    track.suspended_at = now
                    self.suspensions += 1
                else:
                    # Quorum says the concurrent-suspension budget is
                    # spent: degraded-but-serving beats a shrunken
                    # fleet. Retried every round.
                    self.denials += 1

    def _on_crash(self, machine: NameserverMachine) -> None:
        track = self.tracks.get(machine.machine_id)
        if track is None:
            return
        if track.lease_held:
            # A machine that crashes while the external controller holds
            # its suspension lease must not leak the slot: the crash
            # withdrawal (agent) already protects clients.
            self.coordinator.release_suspension(machine.machine_id)
            track.lease_held = False
        if track.verdict is not Verdict.HEALTHY:
            self._transition(track, Verdict.HEALTHY, self.loop.now)
        track.bad_rounds = 0
        track.clean_rounds = 0
        track.first_evidence_at = None
        track.suspended_at = None

    # -- probing ------------------------------------------------------------

    def _send_probes(self) -> None:
        for track in self.tracks.values():
            machine = track.target.machine
            if machine.state is MachineState.RUNNING:
                self._probe_anycast(track)
            elif machine.state is MachineState.SUSPENDED \
                    and track.lease_held \
                    and track.verdict is Verdict.PROBATION:
                self._probe_shadow(track)

    def _probe_anycast(self, track: _Track) -> None:
        """One round of real anycast queries steered at one machine."""
        target = track.target
        machine_id = target.machine.machine_id
        ecmp = tuple(target.pop.ecmp_set(target.prefix))
        if machine_id not in ecmp:
            # Withdrawn (someone else's suspension, MED-losing, BGP
            # churn): no anycast path reaches it, so no judgment either.
            return
        vantages = self._vantages.get(target.pop.router_id)
        if not vantages:
            return
        record = ProbeRecord(machine_id)
        self._records[machine_id] = record
        first_port = None
        for vantage in vantages:
            port = self._plan_port(vantage, target.prefix, ecmp, machine_id)
            if port is None:
                continue
            if first_port is None:
                first_port = (vantage, port)
            self._send_query(record, vantage, target.prefix, port,
                             self.probe_qname, RType.A, "A")
        if first_port is not None:
            # Same flow 4-tuple -> same ECMP pick, so the serial probe
            # rides the already-planned port.
            vantage, port = first_port
            self._send_query(record, vantage, target.prefix, port,
                             self.probe_origin, RType.SOA, "SOA")

    def _probe_shadow(self, track: _Track) -> None:
        """Elevated-rate out-of-band probes at a suspended machine.

        The machine is out of every ECMP set, so probes are handed to it
        directly — paying the vantage->router and router->machine
        latencies — flagged ``shadow`` so the machine serves them
        through the real answer path despite being SUSPENDED. Responses
        come back through the normal PoP responder, so attribution and
        digests work exactly as for live probes.
        """
        target = track.target
        machine_id = target.machine.machine_id
        vantages = self._vantages.get(target.pop.router_id)
        if not vantages:
            return
        record = ProbeRecord(machine_id)
        self._records[machine_id] = record
        router = target.pop.router_id
        for k in range(PROBATION_PROBES):
            vantage = vantages[k % len(vantages)]
            self._send_shadow(record, vantage, router, target,
                              _PORT_BASE + k, self.probe_qname, RType.A, "A")
        self._send_shadow(record, vantages[0], router, target,
                          _PORT_BASE + PROBATION_PROBES,
                          self.probe_origin, RType.SOA, "SOA")

    def _probe_query(self, record: ProbeRecord, vantage: str, qname: Name,
                     rtype: RType, kind: str) -> Message:
        """The next probe query from ``vantage``, counted and awaited."""
        self._msg_id = msg_id = (self._msg_id + 1) & 0xFFFF
        query = make_query(msg_id, qname, rtype)
        self._pending[(vantage, msg_id)] = (record.machine_id, kind)
        self.probes_sent += 1
        record.sent += 1
        return query

    def _send_query(self, record: ProbeRecord, vantage: str, dst: str,
                    port: int, qname: Name, rtype: RType, kind: str) -> None:
        query = self._probe_query(record, vantage, qname, rtype, kind)
        self.network.send(Datagram(src=vantage, dst=dst,
                                   payload=QueryEnvelope(query),
                                   src_port=port, dst_port=53))

    def _send_shadow(self, record: ProbeRecord, vantage: str, router: str,
                     target: GrayTarget, port: int, qname: Name,
                     rtype: RType, kind: str) -> None:
        query = self._probe_query(record, vantage, qname, rtype, kind)
        dgram = Datagram(src=vantage, dst=target.prefix,
                         payload=QueryEnvelope(query, shadow=True),
                         src_port=port, dst_port=53)
        latency = self.network.unicast_latency(vantage, router)
        if latency is None:
            latency = _FALLBACK_LATENCY_S
        self.loop.call_later(latency + INTRA_POP_LATENCY_S,
                             target.machine.receive_query, dgram)

    def _plan_port(self, vantage: str, prefix: str, ecmp: tuple[str, ...],
                   machine_id: str) -> int | None:
        """Find a source port whose ECMP hash selects ``machine_id``."""
        key = (vantage, prefix, ecmp, machine_id)
        if key in self._port_cache:
            return self._port_cache[key]
        index = ecmp.index(machine_id)
        n = len(ecmp)
        found = None
        for port in range(_PORT_BASE, _PORT_BASE + _PORT_SEARCH):
            if ecmp_hash((vantage, port, prefix, 53)) % n == index:
                found = port
                break
        self._port_cache[key] = found
        return found

    # -- response collection --------------------------------------------------

    def _on_response(self, vantage_id: str, dgram: Datagram) -> None:
        envelope = dgram.payload
        message = envelope.message
        pending = self._pending.pop((vantage_id, message.msg_id), None)
        if pending is None:
            return
        expected_machine, kind = pending
        if envelope.machine_id != expected_machine:
            # ECMP moved under the probe mid-flight; judging either
            # machine on it would be noise. The expected machine simply
            # shows one unanswered probe this round.
            return
        record = self._records.get(expected_machine)
        if record is None:
            return
        record.answered += 1
        if kind == "A":
            digest = answer_digest(message)
            record.digests[digest] = record.digests.get(digest, 0) + 1
        else:
            serial = _soa_serial(message)
            if serial is not None:
                record.soa_serial = serial
