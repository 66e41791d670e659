"""Iterative recursive resolver over the simulated network.

Implements the client-side behaviour the paper's design leans on:

* iterative descent from hints through referrals, caching NS/glue;
* per-query random ephemeral source ports (which is what makes PoP ECMP
  spread traffic across machines, section 3.1);
* timeout-and-retry against the *other* delegations of a zone — the
  behaviour that makes unique 6-cloud delegation sets an effective DDoS
  compartmentalization (section 4.3.1) — with exponential backoff and
  deterministic per-resolver jitter so a platform-wide fault does not
  produce synchronized retry storms, under an overall resolution
  deadline;
* positive and negative caching with TTL aging, which drives the
  toplevel/lowlevel query ratio rT in the Two-Tier analysis (section 5.2).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from ..dnscore.edns import ClientSubnetOption, EDNSOptions
from ..dnscore.errors import WireFormatError
from ..dnscore.message import Message, make_query
from ..dnscore.name import Name
from ..dnscore.rdata import CNAME, DNSKEY, RRSIG, SOA
from ..dnscore.records import RRset
from ..dnscore.rrtypes import RCode, RType
from ..dnssec.sign import verify_message
from ..netsim.clock import EventHandle, EventLoop
from ..netsim.network import Network
from ..netsim.packet import Datagram
from ..server.machine import QueryEnvelope
from ..telemetry import state as _telemetry
from .cache import DNSCache
from .selection import SelectionStrategy, UniformSelection

DEFAULT_TIMEOUT = 2.0
MAX_ATTEMPTS = 9
MAX_REFERRALS = 24
DEFAULT_NEGATIVE_TTL = 300
#: Per-attempt timeout growth and its cap (as a multiple of the base
#: timeout). The first attempt always waits exactly the base timeout.
BACKOFF_FACTOR = 1.5
MAX_BACKOFF_MULTIPLE = 4.0
#: Magnitude of the deterministic retry jitter: each retry's timeout is
#: scaled by a factor in [1 - JITTER, 1 + JITTER] derived from a hash of
#: (resolver host, attempt number) — no RNG stream is consumed, so runs
#: stay bit-for-bit reproducible while retries desynchronize.
JITTER = 0.15
#: Overall wall-clock budget for one resolution, seconds.
RESOLUTION_DEADLINE = 30.0


@dataclass(slots=True)
class ResolutionResult:
    """Outcome of one recursive resolution."""

    qname: Name
    qtype: RType
    rcode: RCode
    answers: list[RRset] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    queries_sent: int = 0
    timeouts: int = 0
    tcp_retries: int = 0
    servers: list[str] = field(default_factory=list)
    from_cache: bool = False

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def failed(self) -> bool:
        return self.rcode not in (RCode.NOERROR, RCode.NXDOMAIN)

    def addresses(self) -> list[str]:
        """All A/AAAA rdata strings in the answer chain."""
        out = []
        for rrset in self.answers:
            if rrset.rtype in (RType.A, RType.AAAA):
                out.extend(r.rdata.address for r in rrset.records)
        return out


ResolveCallback = Callable[[ResolutionResult], None]


class _Resolution:
    """State machine for one in-flight resolution."""

    def __init__(self, resolver: "RecursiveResolver", qname: Name,
                 qtype: RType, callback: ResolveCallback) -> None:
        self.resolver = resolver
        self.target = qname
        self.qtype = qtype
        self.callback = callback
        self.result = ResolutionResult(qname, qtype, RCode.SERVFAIL,
                                       started_at=resolver.loop.now)
        self.answers: list[RRset] = []
        self.attempts = 0
        self.referrals = 0
        self.tried: set[str] = set()
        #: The query in flight; its answer echoes its id and question.
        self.pending_query: Message | None = None
        self.pending_address: str | None = None
        self.pending_sent_at = 0.0
        self.timeout_handle: EventHandle | None = None
        self.done = False
        #: Depth of nested NS-address (glueless referral) resolutions.
        self.sub_depth = 0
        #: NS targets whose addresses we already tried to resolve.
        self.glue_chased: set[Name] = set()
        #: Signer names whose DNSKEYs we already tried to fetch.
        self.keys_chased: set[Name] = set()
        #: Telemetry trace context (root span / current attempt span)
        #: when this resolution was head-sampled; purely observational.
        self.span = None
        self.attempt_span = None


class RecursiveResolver:
    """A resolver attached to one host node of the simulated Internet."""

    def __init__(self, loop: EventLoop, network: Network, host_id: str,
                 hints: dict[Name, list[str]],
                 *, rng: random.Random,
                 selection: SelectionStrategy | None = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 edns_payload: int | None = 1232,
                 validate_dnssec: bool = False) -> None:
        self.loop = loop
        self.network = network
        self.host_id = host_id
        #: zone name -> nameserver addresses bootstrap (the "root hints").
        self.hints = {origin: list(addrs) for origin, addrs in hints.items()}
        self.selection = selection or UniformSelection()
        self.rng = rng
        self.timeout = timeout
        #: Client address whose subnet rides every upstream query as
        #: EDNS Client Subnet; None sends none. No deployment sets it:
        #: tests/platform/test_ecs.py drives the platform's end-user
        #: mapping through it.
        self.send_ecs_for: str | None = None
        #: Advertised EDNS UDP payload size (None disables EDNS unless
        #: ECS is configured). Modern resolvers advertise ~1232.
        self.edns_payload = edns_payload
        #: Opt-in DNSSEC validation: queries carry DO=1, and responses
        #: bearing RRSIGs are verified against the signer's DNSKEY
        #: (fetched on demand and cached). The trust model is the
        #: simulation's islands-of-security one — a DNSKEY RRset
        #: vouches for itself via its SEP key, standing in for a DS
        #: chain. Bogus answers are treated like SERVFAILs: the
        #: resolver retries other servers, then fails the resolution.
        #: Unsigned responses pass (opportunistic validation) — the
        #: parents here are unsigned, so absence of signatures is not
        #: provable either way.
        self.validate_dnssec = validate_dnssec
        self.validations_ok = 0
        self.validation_failures = 0
        self.dnskey_fetches = 0
        self.cache = DNSCache()
        self._inflight: dict[int, _Resolution] = {}
        self._next_id = self.rng.randrange(0, 0xFFFF)
        #: queries sent per authority address, for rT-style accounting.
        self.queries_by_server: dict[str, int] = {}
        self.resolutions_started = 0
        self.resolutions_completed = 0
        #: Responses that answer no query in flight (by id and question).
        self.unsolicited_responses = 0
        #: Wire-mode responses dropped because they did not parse.
        self.malformed_responses = 0
        network.attach_endpoint(host_id, self)

    # -- public API ---------------------------------------------------------

    def resolve(self, qname: Name, qtype: RType,
                callback: ResolveCallback) -> None:
        """Start resolving; ``callback`` fires exactly once on completion."""
        self.resolutions_started += 1
        resolution = _Resolution(self, qname, qtype, callback)
        resolution.span = _telemetry.begin("resolver.resolve", "resolver",
                                           self.loop.now)
        self._step(resolution)

    # -- cache-driven stepping ------------------------------------------------

    def _step(self, resolution: _Resolution) -> None:
        if resolution.done:
            return
        now = self.loop.now
        # Negative cache.
        negative = self.cache.get_negative(resolution.target,
                                           resolution.qtype, now)
        if negative is not None:
            self._finish(resolution, negative, from_cache=True)
            return
        # Positive cache, following CNAMEs that are cached.
        chased = 0
        while chased < 16:
            answer = self.cache.get(resolution.target, resolution.qtype, now)
            if answer is not None:
                resolution.answers.append(answer)
                self._finish(resolution, RCode.NOERROR,
                             from_cache=resolution.result.queries_sent == 0)
                return
            cname = self.cache.get(resolution.target, RType.CNAME, now)
            if cname is None or resolution.qtype == RType.CNAME:
                break
            resolution.answers.append(cname)
            rdata = cname.records[0].rdata
            assert isinstance(rdata, CNAME)
            resolution.target = rdata.target
            chased += 1
        self._query_authority(resolution)

    def _authority_candidates(self, resolution: _Resolution
                              ) -> tuple[list[str], list[Name]]:
        """(addresses, address-less NS targets) for the best authority."""
        now = self.loop.now
        # Only rdata is read here: stored entries, nothing copied or aged.
        delegation = self.cache.best_delegation(resolution.target, now)
        addresses: list[str] = []
        glueless: list[Name] = []
        if delegation is not None:
            _zone_cut, ns_rrset = delegation
            for record in ns_rrset.records:
                target = record.rdata.target
                found = False
                for addr_type in (RType.A, RType.AAAA):
                    glue = self.cache.peek(target, addr_type, now)
                    if glue is not None:
                        found = True
                        addresses.extend(r.rdata.address
                                         for r in glue.rrset.records)
                if not found:
                    glueless.append(target)
            if addresses or glueless:
                return addresses, glueless
        # Fall back to configured hints: deepest hint enclosing target.
        for ancestor in resolution.target.ancestors():
            hinted = self.hints.get(ancestor)
            if hinted:
                return list(hinted), []
        return [], []

    def _query_authority(self, resolution: _Resolution) -> None:
        # Overall resolution deadline: clients will not wait forever, and
        # bounding the retry ladder keeps chaos campaigns from piling up
        # ancient in-flight resolutions.
        if (self.loop.now - resolution.result.started_at
                >= RESOLUTION_DEADLINE):
            self._finish(resolution, RCode.SERVFAIL)
            return
        candidates, glueless = self._authority_candidates(resolution)
        untried = [a for a in candidates if a not in resolution.tried]
        pool = untried or candidates
        if not pool:
            if self._chase_glue(resolution, glueless):
                return
            self._finish(resolution, RCode.SERVFAIL)
            return
        # Resolvers retry against every delegation of a zone before
        # giving up (the behaviour section 4.3.1's compartmentalization
        # depends on); the budget scales with the candidate set.
        attempt_budget = max(MAX_ATTEMPTS, len(candidates) + 3)
        if resolution.attempts >= attempt_budget:
            self._finish(resolution, RCode.SERVFAIL)
            return
        # Prefer untried addresses outright while any remain.
        if untried:
            pool = untried
        address = self.selection.choose(pool, self.rng)
        resolution.attempts += 1
        resolution.tried.add(address)
        self._send_query(resolution, address)

    def _retry_over_tcp(self, resolution: _Resolution,
                        address: str) -> None:
        """A UDP answer came back truncated; re-ask over TCP.

        TCP retries are progress, not failures, so they do not count
        against the attempt budget.
        """
        resolution.result.tcp_retries += 1
        self._send_query(resolution, address, tcp=True)

    def _chase_glue(self, resolution: _Resolution,
                    glueless: list[Name]) -> bool:
        """Resolve a glueless NS target's address, then resume.

        Returns True when a sub-resolution was started. Depth-capped so
        circular glueless delegations cannot recurse forever.
        """
        if resolution.sub_depth >= 3:
            return False
        targets = [t for t in glueless if t not in resolution.glue_chased]
        if not targets:
            return False
        target = targets[0]
        resolution.glue_chased.add(target)

        def resumed(_sub_result: ResolutionResult) -> None:
            if not resolution.done:
                self._query_authority(resolution)

        sub = _Resolution(self, target, RType.A, resumed)
        sub.sub_depth = resolution.sub_depth + 1
        sub.glue_chased = resolution.glue_chased
        self._step(sub)
        return True

    def _send_query(self, resolution: _Resolution, address: str,
                    *, tcp: bool = False) -> None:
        msg_id = self._allocate_id()
        edns = None
        if (self.send_ecs_for is not None or self.edns_payload is not None
                or self.validate_dnssec):
            edns = EDNSOptions(
                payload_size=self.edns_payload or 512,
                dnssec_ok=self.validate_dnssec,
                client_subnet=(ClientSubnetOption.for_client(
                    self.send_ecs_for)
                    if self.send_ecs_for is not None else None))
        # An upstream query has a fresh msg_id and per-resolution
        # target; nothing to reuse.
        query = make_query(msg_id, resolution.target, resolution.qtype,
                           edns=edns)
        port = self.rng.randint(1024, 65535)
        envelope = QueryEnvelope(query, tcp=tcp)
        if resolution.span is not None:
            resolution.attempt_span = envelope.trace = _telemetry.begin(
                "resolver.attempt", "resolver", self.loop.now,
                resolution.span, server=address, tcp=tcp)
        dgram = Datagram(src=self.host_id, dst=address,
                         payload=envelope, src_port=port)
        resolution.pending_query = query
        resolution.pending_address = address
        resolution.pending_sent_at = self.loop.now
        self._inflight[msg_id] = resolution
        resolution.result.queries_sent += 1
        resolution.result.servers.append(address)
        self.queries_by_server[address] = \
            self.queries_by_server.get(address, 0) + 1
        self.network.send(dgram)
        resolution.timeout_handle = self.loop.call_later(
            self._attempt_timeout(resolution),
            self._on_timeout, resolution, msg_id)

    def _attempt_timeout(self, resolution: _Resolution) -> float:
        """Per-attempt timeout: exponential backoff with deterministic
        jitter, clamped to the remaining resolution budget.

        The first attempt waits exactly the base timeout (so success
        paths and single-failure failovers are unchanged); retries back
        off geometrically and are jittered per (resolver, attempt) so
        the fleet's retry edges never align during a platform fault.
        """
        attempt = max(1, resolution.attempts)
        timeout = self.timeout
        if attempt > 1:
            scale = min(BACKOFF_FACTOR ** (attempt - 1),
                        MAX_BACKOFF_MULTIPLE)
            digest = zlib.crc32(f"{self.host_id}|{attempt}".encode())
            jitter = 1.0 + JITTER * ((digest % 2001) / 1000.0 - 1.0)
            timeout = self.timeout * scale * jitter
        remaining = (resolution.result.started_at
                     + RESOLUTION_DEADLINE - self.loop.now)
        return min(timeout, max(remaining, 0.05))

    def _allocate_id(self) -> int:
        for _ in range(0x10000):
            self._next_id = (self._next_id + 1) & 0xFFFF
            if self._next_id not in self._inflight:
                return self._next_id
        raise RuntimeError("no free DNS message ids")

    # -- network events ---------------------------------------------------------

    def handle_datagram(self, dgram: Datagram) -> None:
        """A response arrived at this resolver's host."""
        envelope = dgram.payload
        wire = getattr(envelope, "wire", None)
        if wire is not None:
            try:
                message = Message.from_wire(wire)
            except WireFormatError:
                # Dropped like a lost datagram: the attempt times out.
                self.malformed_responses += 1
                return
        else:
            message = envelope.message
        resolution = self._inflight.get(message.msg_id)
        if (resolution is None
                or message.questions != resolution.pending_query.questions):
            # Late, or a colliding id: a query in flight keeps waiting.
            self.unsolicited_responses += 1
            return
        del self._inflight[message.msg_id]
        if resolution.done:
            return
        if resolution.timeout_handle is not None:
            resolution.timeout_handle.cancel()
        _telemetry.end(resolution.attempt_span, self.loop.now)
        resolution.attempt_span = None
        rtt = self.loop.now - resolution.pending_sent_at
        address = resolution.pending_address
        if address is not None:
            self.selection.observe_rtt(address, rtt)
        if message.flags.tc and address is not None:
            # Truncated UDP answer: discard it and retry over TCP.
            self._retry_over_tcp(resolution, address)
            return
        self._process_response(resolution, message)

    def _on_timeout(self, resolution: _Resolution, msg_id: int) -> None:
        if resolution.done or resolution.pending_query.msg_id != msg_id:
            return
        self._inflight.pop(msg_id, None)
        resolution.result.timeouts += 1
        _telemetry.end(resolution.attempt_span, self.loop.now, timeout=True)
        resolution.attempt_span = None
        # Retry: a different delegation of the same zone with high
        # probability, since tried addresses are excluded first.
        self._query_authority(resolution)

    # -- response classification ---------------------------------------------------

    def _process_response(self, resolution: _Resolution,
                          message: Message) -> None:
        now = self.loop.now
        if self.validate_dnssec and message.rcode in (RCode.NOERROR,
                                                      RCode.NXDOMAIN):
            verdict = self._validate_response(resolution, message)
            if verdict == "pending":
                # A DNSKEY fetch is in flight; this response is
                # re-processed when it lands.
                return
            if verdict == "bogus":
                self.validation_failures += 1
                _telemetry.record("dnssec_validations_total", "bogus")
                # Bogus data is indistinguishable from a lying server:
                # retry the zone's other delegations, then give up.
                self._query_authority(resolution)
                return
            if verdict == "ok":
                self.validations_ok += 1
                _telemetry.record("dnssec_validations_total", "ok")
        if message.rcode == RCode.NXDOMAIN:
            ttl = _negative_ttl(message.authority_rrsets())
            self.cache.put_negative(resolution.target, resolution.qtype,
                                    RCode.NXDOMAIN, ttl, now)
            self._finish(resolution, RCode.NXDOMAIN)
            return
        if message.rcode != RCode.NOERROR:
            # SERVFAIL/REFUSED: try another server.
            self._query_authority(resolution)
            return

        # Each section is grouped once, and what is grouped is cached.
        answer_sets = message.answer_rrsets()
        authority_sets = message.authority_rrsets()
        for rrset in (answer_sets + authority_sets
                      + message.additional_rrsets()):
            self.cache.put(rrset, now)

        if answer_sets:
            terminal = False
            for rrset in answer_sets:
                # A copy: no RRset the cache holds is reachable from a result.
                resolution.answers.append(rrset.with_ttl(rrset.ttl))
                if (rrset.name == resolution.target
                        and rrset.rtype == resolution.qtype):
                    terminal = True
                elif rrset.rtype == RType.CNAME \
                        and rrset.name == resolution.target:
                    rdata = rrset.records[0].rdata
                    assert isinstance(rdata, CNAME)
                    resolution.target = rdata.target
            if terminal:
                self._finish(resolution, RCode.NOERROR)
            else:
                # CNAME led elsewhere: continue from cache/authorities.
                resolution.tried.clear()
                self._step(resolution)
            return

        if any(r.rtype == RType.NS for r in authority_sets):
            resolution.referrals += 1
            if resolution.referrals > MAX_REFERRALS:
                self._finish(resolution, RCode.SERVFAIL)
                return
            # Referral: NS (+glue) were cached above; requery deeper.
            resolution.tried.clear()
            self._query_authority(resolution)
            return

        # NODATA.
        ttl = _negative_ttl(authority_sets)
        self.cache.put_negative(resolution.target, resolution.qtype,
                                RCode.NOERROR, ttl, now)
        self._finish(resolution, RCode.NOERROR)

    def _validate_response(self, resolution: _Resolution,
                           message: Message) -> str:
        """Classify a response: 'ok', 'unsigned', 'bogus', or 'pending'.

        'pending' means the signer's DNSKEY is being fetched; the
        message will be re-processed once the sub-resolution lands.
        """
        signer: Name | None = None
        for record in message.answers + message.authority:
            if record.rtype == RType.RRSIG and isinstance(record.rdata,
                                                          RRSIG):
                signer = record.rdata.signer
                break
        if signer is None:
            return "unsigned"
        now = self.loop.now
        dnskeys: list[DNSKEY] = []
        cached = self.cache.peek(signer, RType.DNSKEY, now)
        if cached is not None:
            dnskeys = [r.rdata for r in cached.rrset.records
                       if isinstance(r.rdata, DNSKEY)]
        else:
            # A DNSKEY response carries its own keys; anything else
            # needs a fetch.
            dnskeys = [r.rdata for r in message.answers
                       if r.rtype == RType.DNSKEY and r.name == signer
                       and isinstance(r.rdata, DNSKEY)]
        if not dnskeys:
            if self._chase_dnskey(resolution, signer, message):
                return "pending"
            return "bogus"
        errors = verify_message(message, dnskeys, now)
        return "bogus" if errors else "ok"

    def _chase_dnskey(self, resolution: _Resolution, signer: Name,
                      message: Message) -> bool:
        """Fetch ``signer``'s DNSKEY RRset, then re-process ``message``.

        Returns True when a sub-resolution was started. One attempt per
        signer per resolution — a failed or bogus key fetch must not
        loop."""
        if signer in resolution.keys_chased or resolution.sub_depth >= 3:
            return False
        resolution.keys_chased.add(signer)
        self.dnskey_fetches += 1

        def resumed(_sub_result: ResolutionResult) -> None:
            if not resolution.done:
                self._process_response(resolution, message)

        sub = _Resolution(self, signer, RType.DNSKEY, resumed)
        sub.sub_depth = resolution.sub_depth + 1
        sub.keys_chased = resolution.keys_chased
        self._step(sub)
        return True

    def _finish(self, resolution: _Resolution, rcode: RCode,
                *, from_cache: bool = False) -> None:
        if resolution.done:
            return
        resolution.done = True
        if resolution.timeout_handle is not None:
            resolution.timeout_handle.cancel()
        result = resolution.result
        result.rcode = rcode
        result.answers = resolution.answers
        result.finished_at = self.loop.now
        result.from_cache = from_cache and result.queries_sent == 0
        if resolution.sub_depth == 0:
            self.resolutions_completed += 1
            _telemetry.record("resolutions_total", rcode)
            _telemetry.record("resolution_seconds", value=result.duration)
            if result.timeouts:
                _telemetry.record("resolution_timeouts_total",
                                  value=result.timeouts)
            _telemetry.end(resolution.span, self.loop.now, rcode=rcode.name,
                           timeouts=result.timeouts)
        resolution.callback(result)


def _negative_ttl(authority_sets: list[RRset]) -> int:
    for rrset in authority_sets:
        if rrset.rtype == RType.SOA:
            rdata = rrset.records[0].rdata
            assert isinstance(rdata, SOA)
            return min(rrset.ttl, rdata.minimum)
    return DEFAULT_NEGATIVE_TTL
