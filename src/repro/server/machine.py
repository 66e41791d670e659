"""The nameserver machine: ingestion, scoring, service, crash/restart.

Models one purpose-built server in a PoP (paper Figure 6) with the two
capacity stages the NXDOMAIN-filter experiment (Figure 10) exposes:

* an **I/O stage** — the rate at which the network stack can hand packets
  to the application. Past it, packets drop below the application layer,
  legitimate and attack alike (the paper's region beyond A2);
* a **compute stage** — the rate at which the nameserver answers queries.
  Between A1 and A2, prioritization decides who gets served.

Queries are scored by the filter pipeline on arrival, placed into penalty
queues, and served in increasing penalty order. A query flagged as a
query-of-death crashes the machine; the QoD firewall then drops similar
queries until its rule expires (section 4.2.4).
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Callable

from ..dnscore.errors import ZoneError
from ..dnscore.message import Message, make_response
from ..dnscore.name import Name
from ..dnscore.rdata import DNSKEY, RRSIG
from ..dnscore.rrtypes import RCode, RType
from ..dnscore.validate import ZoneUpdate, validate_update
from ..dnscore.zone import Zone
from ..filters.base import QueryContext, ScoringPipeline
from ..filters.nxdomain import NXDomainFilter
from ..filters.scoring import QueuePolicy
from ..netsim.clock import EventLoop
from ..netsim.packet import Datagram
from ..telemetry import state as _telemetry
from .engine import AuthoritativeEngine
from .firewall import QoDFirewall
from .queues import PenaltyQueueRuntime


class MachineState(enum.Enum):
    """Lifecycle state of a nameserver machine."""

    RUNNING = "running"
    CRASHED = "crashed"
    SUSPENDED = "suspended"


@dataclass(slots=True)
class QueryEnvelope:
    """A query in flight plus simulation-side ground truth.

    ``is_attack`` labels traffic for experiment accounting only; no filter
    or server logic may read it. ``poison`` marks a query-of-death.
    ``tcp`` marks a retry over TCP after a truncated UDP response.
    """

    message: Message
    is_attack: bool = False
    poison: bool = False
    tcp: bool = False
    #: Shadow probes are out-of-band gray-failure probes (control.
    #: grayfail): a *suspended* machine still serves them through the
    #: real data path so the external prober can observe recovery
    #: before traffic is restored. Ignored while the machine is
    #: RUNNING (shadow probes then ride the normal path).
    shadow: bool = False
    #: Telemetry trace context (a sampled Span) or None. Purely
    #: observational: simulator logic must never branch on it.
    trace: object | None = None


@dataclass(slots=True)
class MachineConfig:
    """Capacities and behaviour switches for one machine."""

    compute_capacity_qps: float = 50_000.0
    io_capacity_qps: float = 150_000.0
    io_burst_seconds: float = 0.02
    queue_depth: int = 2_000
    restart_delay: float = 10.0
    qod_firewall_enabled: bool = True
    t_qod: float = 300.0
    #: When True, responses are serialized to real wire bytes with UDP
    #: size limits (the EDNS-advertised payload size, else 512), setting
    #: TC on overflow so resolvers retry over TCP.
    wire_responses: bool = False
    staleness_threshold: float = 30.0
    input_delayed: bool = False
    #: When True, zone updates delivered over the metadata bus are
    #: semantically validated against the served version and rejected
    #: on any fatal issue (dnscore.validate). Rollback installs bypass
    #: the check — last-known-good has an older serial by construction.
    zone_guard_enabled: bool = False


@dataclass(slots=True)
class MachineMetrics:
    """Counters read by tests and experiments."""

    received: int = 0
    answered: int = 0
    dropped_not_running: int = 0
    #: Queries silently swallowed by an injected gray fault (blackhole
    #: or partial per-resolver drop) — invisible to the machine's own
    #: health probe by construction.
    dropped_gray: int = 0
    dropped_firewall: int = 0
    dropped_io: int = 0
    dropped_queue: int = 0
    crashes: int = 0
    legit_received: int = 0
    legit_answered: int = 0
    attack_received: int = 0
    attack_answered: int = 0
    zone_installs: int = 0
    zone_rejects: int = 0
    zone_rollbacks: int = 0
    #: Traffic from sources in ``machine.known_sources`` (known
    #: resolvers / allowlisted clients) — the defense ladder's
    #: collateral-damage guardrail compares these two.
    known_received: int = 0
    known_answered: int = 0
    #: Queries shed (firewall/io/queue drops and discards) while a
    #: defense-ladder rung held the machine in degraded mode, keyed by
    #: the rung's label.
    shed_by_rung: dict[str, int] = field(default_factory=dict)


ResponseCallback = Callable[[Datagram, Message], None]


def _serial_of(zone: Zone) -> int:
    """SOA serial for audit logs; -1 when the zone has no SOA."""
    try:
        return zone.serial
    except ZoneError:
        return -1


def _signature_horizon(zone: Zone) -> tuple[bool, float]:
    """(key tags consistent, earliest RRSIG expiration) for one zone.

    Unsigned zones (no apex DNSKEY) report ``(True, inf)``. The check
    is structural — key-tag membership, not digest verification — which
    is exactly what distinguishes a zone signed by a key it no longer
    publishes or one whose signatures have lapsed, the two botched-
    rollover shapes the canary gate must catch.
    """
    dnskey_rrset = zone.get_rrset(zone.origin, RType.DNSKEY)
    if dnskey_rrset is None:
        return (True, float("inf"))
    tags = {record.rdata.key_tag() for record in dnskey_rrset.records
            if isinstance(record.rdata, DNSKEY)}
    keys_ok = True
    horizon = float("inf")
    for rrset in zone.iter_rrsets():
        if rrset.rtype is not RType.RRSIG:
            continue
        for record in rrset.records:
            rrsig = record.rdata
            if not isinstance(rrsig, RRSIG):
                continue
            if rrsig.signer != zone.origin or rrsig.key_tag not in tags:
                keys_ok = False
            if rrsig.expiration < horizon:
                horizon = float(rrsig.expiration)
    return (keys_ok, horizon)


#: The faults :meth:`NameserverMachine.set_fault` injects.
MACHINE_FAULTS = frozenset({"unresponsive", "wrong_answer", "blackhole",
                            "partial_drop", "corrupt", "stale"})
#: The ones the machine's own health probe sees (the agent's suite,
#: section 4.2.1); the rest are gray, for control.grayfail to catch.
PROBE_VISIBLE_FAULTS = frozenset({"unresponsive", "wrong_answer"})


class NameserverMachine:
    """One machine running the nameserver software."""

    def __init__(self, loop: EventLoop, machine_id: str,
                 engine: AuthoritativeEngine, pipeline: ScoringPipeline,
                 queue_policy: QueuePolicy,
                 config: MachineConfig | None = None) -> None:
        self.loop = loop
        self.machine_id = machine_id
        self.engine = engine
        self.pipeline = pipeline
        self.config = config or MachineConfig()
        self.queues: PenaltyQueueRuntime[tuple[Datagram, QueryEnvelope]] = (
            PenaltyQueueRuntime(queue_policy, self.config.queue_depth,
                                owner=machine_id))
        self.firewall = QoDFirewall(self.config.t_qod)
        #: Where answers go; the PoP or host the machine joins sets it.
        self.respond: ResponseCallback = lambda dgram, message: None
        self.state = MachineState.RUNNING
        self.metrics = MachineMetrics()
        #: Injected fault, ``(kind, severity)`` or None; set through
        #: :meth:`set_fault`.
        self.fault: tuple[str, float] | None = None
        #: Timestamp of the most recent metadata input (staleness checks).
        self.last_input_time = 0.0
        #: Dispatch table for metadata kinds ("mapping", "zone", ...).
        self.metadata_handlers: dict[str, Callable[[object], None]] = {}
        #: Previous version of each installed zone, retained so a
        #: corrupt update can be rolled back (serve-last-known-good,
        #: paper section 4.2).
        self.last_known_good: dict[Name, Zone] = {}
        #: Audit log of zone transitions: (time, action, origin, serial)
        #: with action in {"install", "reject", "rollback"}.
        self.zone_install_log: list[tuple[float, str, str, int]] = []
        self._io_tokens = self.config.io_capacity_qps * self.config.io_burst_seconds
        self._io_last = 0.0
        self._busy = False
        #: Observers notified on crash (monitoring agent).
        self.crash_listeners: list[Callable[["NameserverMachine"], None]] = []
        self.state_listeners: list[Callable[["NameserverMachine"], None]] = []
        #: NXDOMAIN filter reference so responses feed its learning loop.
        self._nxdomain_filter: NXDomainFilter | None = next(
            (f for f in pipeline.filters if isinstance(f, NXDomainFilter)),
            None)
        #: Source addresses of known-legitimate resolvers (allowlist /
        #: probe clients). Purely observational: queries from these
        #: sources tick ``metrics.known_received``/``known_answered`` so
        #: the defense ladder can estimate legitimate-traffic loss.
        self.known_sources: set[str] = set()
        #: Label of the defense-ladder rung currently holding this
        #: machine in degraded mode, or None when serving normally.
        self.degraded_rung: str | None = None
        #: Zone updates deferred while degraded: latest pending
        #: (zone, rollback) per origin, replayed on exit_degraded().
        self._deferred_zones: dict[Name, tuple[Zone, bool]] = {}

    # -- metadata ------------------------------------------------------------

    def receive_metadata(self, timestamp: float) -> None:
        """Record that a metadata input arrived (control-plane delivery)."""
        self.last_input_time = max(self.last_input_time, timestamp)

    def receive_metadata_message(self, message) -> None:
        """Pub/sub subscriber hook: timestamp the input and dispatch it.

        Staleness is judged by the *publication* time of the newest input
        received, so a partitioned machine's clock stops advancing here
        and the staleness check fires (section 4.2.2).
        """
        self.receive_metadata(message.published_at)
        handler = self.metadata_handlers.get(message.kind)
        if handler is not None:
            handler(message)

    def handle_zone_update(self, message) -> None:
        """Metadata-bus handler for ``kind="zone"`` deliveries.

        The payload is a :class:`ZoneUpdate`, whoever published it;
        anything else is a publisher's bug and raises.

        While the machine is held in degraded mode by the defense
        ladder, updates are *deferred* rather than installed — the
        machine keeps serving its last-known-good content under attack
        (section 4.2's serve-stale posture) and replays the newest
        pending update per origin on :meth:`exit_degraded`.
        """
        update = message.payload
        if not isinstance(update, ZoneUpdate):
            raise TypeError("zone deliveries carry a ZoneUpdate, not "
                            f"{type(update).__name__}")
        zone, rollback = update.zone, update.rollback
        if self.degraded_rung is not None:
            self._deferred_zones[zone.origin] = (zone, rollback)
            return
        self.install_zone(zone, rollback=rollback)

    def install_zone(self, zone: Zone, *, rollback: bool = False) -> bool:
        """Install a zone update; the machine's one guarded install seam.

        Returns True if the zone is now served. With
        ``config.zone_guard_enabled`` the update is validated against
        the version currently served and rejected on any fatal issue;
        guard on or off, a structurally invalid zone that the store
        refuses is counted as a reject rather than raised into the
        delivery path. The replaced version is retained as
        last-known-good so :meth:`rollback_zone` can restore it.
        ``rollback=True`` marks a last-known-good reinstall, which
        skips validation (the restored serial is older by construction)
        and does not overwrite the retained version.
        """
        if self.fault and self.fault[0] == "stale" and not rollback:
            # Frozen-stale gray fault: the update is silently dropped
            # while the delivery path is told it landed. No log entry,
            # no counter — the machine genuinely believes it installed
            # the update, its staleness clock keeps ticking forward,
            # and only an external observer comparing SOA serials
            # across peers can tell (control.grayfail's auditor).
            return True
        store = self.engine.store
        previous = store.get(zone.origin)
        if (self.config.zone_guard_enabled and not rollback
                and validate_update(zone, previous).fatal):
            return self._reject_zone(zone)
        try:
            # reprolint: disable-next=ROB001 -- this *is* the guarded seam
            store.add(zone)
        except ZoneError:
            return self._reject_zone(zone)
        if previous is not None and previous is not zone and not rollback:
            self.last_known_good[zone.origin] = previous
        action = "rollback" if rollback else "install"
        self.metrics.zone_installs += 1
        if rollback:
            self.metrics.zone_rollbacks += 1
        self.zone_install_log.append(
            (self.loop.now, action, str(zone.origin), _serial_of(zone)))
        if self._nxdomain_filter is not None:
            self._nxdomain_filter.invalidate(zone.origin)
        _telemetry.record("zone_updates_total", self.machine_id, action)
        return True

    def _reject_zone(self, zone: Zone) -> bool:
        self.metrics.zone_rejects += 1
        self.zone_install_log.append(
            (self.loop.now, "reject", str(zone.origin), _serial_of(zone)))
        _telemetry.record("zone_updates_total", self.machine_id, "reject")
        return False

    def rollback_zone(self, origin: Name) -> bool:
        """Restore the retained last-known-good version of ``origin``."""
        good = self.last_known_good.get(origin)
        if good is None:
            return False
        return self.install_zone(good, rollback=True)

    def is_stale(self, now: float) -> bool:
        """Whether critical inputs are older than the staleness threshold.

        The comparison is strictly ``>``: a machine whose newest input
        is *exactly* ``staleness_threshold`` seconds old is still
        fresh, so a publisher running at exactly the threshold period
        never flaps the check. Input-delayed machines run intentionally
        stale and never report staleness (section 4.2.3).

        Every positive check increments the ``machine_stale_total``
        telemetry counter, so rollout soak windows can gate on fleet
        staleness.
        """
        if self.config.input_delayed:
            return False
        stale = now - self.last_input_time > self.config.staleness_threshold
        if stale:
            _telemetry.record("machine_stale_total", self.machine_id)
        return stale

    # -- degraded mode (defense ladder) ---------------------------------------

    def enter_degraded(self, rung_label: str) -> None:
        """Hold the machine in degraded mode under a defense rung.

        Degraded mode is graceful, not a lifecycle change: the machine
        keeps answering, but zone updates are deferred (serve from the
        content it had when the attack started) and every shed query is
        attributed to ``rung_label`` in ``metrics.shed_by_rung``.
        Re-entering under a different rung just relabels the attribution.
        """
        was_normal = self.degraded_rung is None
        self.degraded_rung = rung_label
        if was_normal:
            _telemetry.record("machine_lifecycle_total", self.machine_id,
                              "degraded")

    def exit_degraded(self) -> None:
        """Leave degraded mode and replay deferred zone updates.

        Only the newest pending update per origin is installed — the
        intermediate versions were superseded while the machine served
        from last-known-good.
        """
        if self.degraded_rung is None:
            return
        self.degraded_rung = None
        pending = sorted(self._deferred_zones.items(),
                         key=lambda item: str(item[0]))
        self._deferred_zones.clear()
        for _, (zone, rollback) in pending:
            self.install_zone(zone, rollback=rollback)
        _telemetry.record("machine_lifecycle_total", self.machine_id,
                          "restored")

    def _shed(self, reason: str) -> None:
        """Count a query shed at ``reason``, and against the held rung."""
        _telemetry.record("queries_dropped_total", self.machine_id, reason)
        rung = self.degraded_rung
        if rung is not None:
            shed = self.metrics.shed_by_rung
            shed[rung] = shed.get(rung, 0) + 1

    # -- faults (chaos seam) ---------------------------------------------------

    def set_fault(self, kind: str | None, severity: float = 1.0) -> None:
        """Public chaos seam: inject one of :data:`MACHINE_FAULTS`, or
        clear the fault with ``None``.

        * ``"unresponsive"`` — queries are taken in, never answered;
        * ``"wrong_answer"`` — every answer is an empty SERVFAIL (e.g.
          serving from a failed disk);
        * ``"blackhole"`` — every data query is silently dropped;
        * ``"partial_drop"`` — queries from a deterministic ``severity``
          fraction of source addresses are dropped, the per-resolver
          partial failure shape;
        * ``"corrupt"`` — answers are silently emptied (rcode stays
          NOERROR), so clients see wrong data with a green status;
        * ``"stale"`` — zone updates are dropped while reporting
          success, freezing the served content at its current serial.

        :meth:`health_probe` sees only :data:`PROBE_VISIBLE_FAULTS`. A
        machine under one of the other four, the *gray* faults, passes
        its own monitoring-agent suite, which is exactly what the
        external differential prober (:mod:`repro.control.grayfail`)
        exists to catch.
        """
        if kind is not None and kind not in MACHINE_FAULTS:
            raise ValueError(f"unknown machine fault {kind!r}")
        if kind == "partial_drop" and not 0.0 < severity <= 1.0:
            raise ValueError("partial_drop severity is a drop fraction "
                             f"in (0, 1], got {severity}")
        self.fault = None if kind is None else (kind, severity)

    @staticmethod
    def _drops(fault: tuple[str, float], src: str) -> bool:
        """Whether ``fault`` swallows a query from ``src`` on arrival.

        Partial drop is per-source and deterministic: a given resolver
        either always or never loses its queries to this machine,
        which is the real-world shape (a poisoned connection table, a
        bad NIC queue) the answered-fraction auditor rule detects by
        probing from several vantage addresses.
        """
        kind, severity = fault
        if kind == "blackhole":
            return True
        if kind == "partial_drop":
            return (zlib.crc32(src.encode("ascii")) % 997) / 997.0 \
                < severity
        return False

    def _answer(self, dgram: Datagram,
                envelope: QueryEnvelope) -> Message | None:
        """The engine's answer to a data query with the fault's effect
        on it; None when the fault leaves the query unanswered."""
        kind = self.fault[0] if self.fault else None
        if kind == "unresponsive":
            return None
        response = self.engine.respond(envelope.message,
                                       client_key=dgram.src)
        if kind == "wrong_answer":
            response.answers.clear()
            response.flags.rcode = RCode.SERVFAIL
        elif kind == "corrupt" and response.flags.rcode == RCode.NOERROR:
            # Silent corruption: the status says success, the payload
            # is gone. SOA self-probes don't traverse this path, so
            # the machine keeps reporting healthy.
            response.answers.clear()
        return response

    # -- lifecycle ------------------------------------------------------------

    def suspend(self) -> None:
        """Self-suspend: stop answering until resumed."""
        if self.state == MachineState.RUNNING:
            self.state = MachineState.SUSPENDED
            _telemetry.record("machine_lifecycle_total", self.machine_id,
                              "suspended")
            self._notify_state()

    def resume(self) -> None:
        if self.state == MachineState.SUSPENDED:
            self.state = MachineState.RUNNING
            _telemetry.record("machine_lifecycle_total", self.machine_id,
                              "resumed")
            self._notify_state()
            self._kick()

    def crash(self, qname=None, qtype=None) -> None:
        """Unrecoverable fault; queued queries are lost."""
        self.metrics.crashes += 1
        _telemetry.record("machine_lifecycle_total", self.machine_id,
                          "crashed")
        self.state = MachineState.CRASHED
        self.queues.clear()
        self._busy = False
        if (qname is not None and qtype is not None
                and self.config.qod_firewall_enabled):
            self.firewall.record_crash(qname, qtype, self.loop.now)
        for listener in self.crash_listeners:
            listener(self)
        self._notify_state()
        self.loop.call_later(self.config.restart_delay, self._restart)

    def _restart(self) -> None:
        if self.state == MachineState.CRASHED:
            self.state = MachineState.RUNNING
            self._notify_state()
            self._kick()

    def _notify_state(self) -> None:
        for listener in self.state_listeners:
            listener(self)

    def _zone_signatures_healthy(self, qname: Name) -> bool:
        """Probe-time DNSSEC self-check over the zone serving ``qname``.

        Unsigned zones always pass. For a signed zone the machine acts
        as its own validating client: signatures must not be expired at
        probe time and every RRSIG's key tag must be published in the
        apex DNSKEY RRset. The per-zone scan is memoized on the zone
        (:meth:`Zone.derived`), so steady-state probes cost two dict
        lookups and a clock comparison.
        """
        zone = self.engine.store.find(qname)
        if zone is None:
            return True
        keys_ok, horizon = zone.derived(_signature_horizon)
        return keys_ok and self.loop.now < horizon

    def health_probe(self, message: Message) -> Message | None:
        """Answer a monitoring-agent test query through the real engine.

        Returns None when the machine is down or unresponsive, and a
        degraded response when a fault corrupts answers — exactly what
        the agent's test suite is built to detect. A *suspended* machine
        still answers probes: self-suspension only withdraws the BGP
        advertisement, the nameserver process keeps running so the agent
        can observe recovery and re-advertise.
        """
        if self.state == MachineState.CRASHED:
            return None
        seen = self.fault[0] if self.fault else None
        if seen not in PROBE_VISIBLE_FAULTS:
            seen = None
        if seen == "unresponsive":
            return None
        response = self.engine.respond_probe(message)
        question = message.question
        bogus = (question is not None
                 and not self._zone_signatures_healthy(question.qname))
        if bogus:
            # A validating probe client would get bogus data from this
            # machine; degrade the probe answer so the monitoring
            # agent's test suite (and the canary health gate built on
            # it) sees the failure (section 4.2.4 posture).
            _telemetry.record("dnssec_validations_total", "bogus")
        if bogus or seen == "wrong_answer":
            # ``respond_probe`` may return a plan's shared Message —
            # degrade a fresh copy instead of mutating it.
            degraded = make_response(message, RCode.SERVFAIL)
            degraded.flags.aa = response.flags.aa
            return degraded
        return response

    # -- ingestion -------------------------------------------------------------

    def receive_query(self, dgram: Datagram) -> None:
        """Packet handed to this machine by the PoP router's ECMP."""
        envelope = dgram.payload
        assert isinstance(envelope, QueryEnvelope)
        metrics = self.metrics
        metrics.received += 1
        if envelope.is_attack:
            metrics.attack_received += 1
        else:
            metrics.legit_received += 1
        if dgram.src in self.known_sources:
            metrics.known_received += 1
        _telemetry.record("queries_received_total", self.machine_id)

        fault = self.fault
        if fault is not None and self._drops(fault, dgram.src):
            # Swallowed below every layer the machine can observe: no
            # rcode, no log line, no health-probe signal. Only the
            # metric (experiment-side ground truth) records it.
            metrics.dropped_gray += 1
            _telemetry.record("queries_dropped_total", self.machine_id,
                              "gray")
            return

        if self.state != MachineState.RUNNING:
            if envelope.shadow and self.state == MachineState.SUSPENDED:
                # Probation shadow probes: the suspended process still
                # runs, so the external prober may exercise the data
                # path out-of-band before traffic is restored.
                self._serve_shadow(dgram, envelope)
                return
            metrics.dropped_not_running += 1
            _telemetry.record("queries_dropped_total", self.machine_id,
                              "not_running")
            return

        now = self.loop.now
        question = envelope.message.question
        qname = question.qname
        qtype = question.qtype
        if (self.config.qod_firewall_enabled
                and self.firewall.should_drop(qname, qtype, now)):
            metrics.dropped_firewall += 1
            self._shed("firewall")
            return

        if not self._io_admit(now):
            metrics.dropped_io += 1
            self._shed("io")
            return

        ctx = QueryContext(source=dgram.src, qname=qname,
                           qtype=qtype, now=now,
                           ip_ttl=dgram.ip_ttl)
        breakdown = self.pipeline.score(ctx)
        if not self.queues.enqueue((dgram, envelope), breakdown.total):
            metrics.dropped_queue += 1
            self._shed("queue")
            return
        envelope.trace = _telemetry.begin("machine.process", "machine", now,
                                          envelope.trace)
        self._kick()

    def _io_admit(self, now: float) -> bool:
        """Token bucket modelling the network stack's read capacity."""
        config = self.config
        rate = config.io_capacity_qps
        elapsed = now - self._io_last
        self._io_last = now
        cap = rate * config.io_burst_seconds
        tokens = self._io_tokens + elapsed * rate
        if tokens > cap:
            tokens = cap
        if tokens >= 1.0:
            self._io_tokens = tokens - 1.0
            return True
        self._io_tokens = tokens
        return False

    # -- service ----------------------------------------------------------------

    def _kick(self) -> None:
        if self._busy or self.state != MachineState.RUNNING:
            return
        item = self.queues.pop_next()
        if item is None:
            return
        self._busy = True
        _, (dgram, envelope) = item
        service_time = 1.0 / self.config.compute_capacity_qps
        self.loop.call_later(service_time, self._complete, dgram, envelope)

    def _complete(self, dgram: Datagram, envelope: QueryEnvelope) -> None:
        self._busy = False
        if self.state != MachineState.RUNNING:
            return
        question = envelope.message.question
        if envelope.poison:
            self.crash(question.qname, question.qtype)
            return
        response = self._answer(dgram, envelope)
        if response is None:
            self._kick()
            return
        # The filter only learns from negative answers; hoisting the
        # rcode check keeps armed-but-idle sessions (filter installed,
        # no flood) from paying a call per response.
        nxd = self._nxdomain_filter
        if nxd is not None and response.flags.rcode == RCode.NXDOMAIN:
            nxd.observe_response(envelope.message, response, self.loop.now)
        metrics = self.metrics
        metrics.answered += 1
        if envelope.is_attack:
            metrics.attack_answered += 1
        else:
            metrics.legit_answered += 1
        if dgram.src in self.known_sources:
            metrics.known_answered += 1
        rcode = response.flags.rcode
        _telemetry.record("queries_answered_total", self.machine_id, rcode)
        span = envelope.trace
        if span is not None:
            now = self.loop.now
            _telemetry.instant(span, "engine.respond", "engine", now,
                               rcode=rcode.name)
            _telemetry.end(span, now)
        self.respond(dgram, response)
        self._kick()

    # -- shadow service (probation probes) --------------------------------------

    def _serve_shadow(self, dgram: Datagram,
                      envelope: QueryEnvelope) -> None:
        """Serve a shadow probe while suspended, off the main queue.

        The penalty queues stay parked during suspension (queries that
        were in flight at suspension time must not leak answers), so
        shadow probes take a dedicated single-shot path that still
        models compute service time and still passes through the same
        response-generation seams — engine, injected faults, gray
        degradation — that live traffic would. That fidelity is the
        point: probation is only meaningful if a still-sick machine
        fails its shadow probes the same way it failed live queries.
        """
        service_time = 1.0 / self.config.compute_capacity_qps
        self.loop.call_later(service_time, self._complete_shadow,
                             dgram, envelope)

    def _complete_shadow(self, dgram: Datagram,
                         envelope: QueryEnvelope) -> None:
        if self.state == MachineState.CRASHED:
            return
        response = self._answer(dgram, envelope)
        if response is None:
            return
        metrics = self.metrics
        metrics.answered += 1
        metrics.legit_answered += 1
        _telemetry.record("queries_answered_total", self.machine_id,
                          response.flags.rcode)
        self.respond(dgram, response)
