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

from ..dnscore.edns import EDNSOptions
from ..dnscore.message import Flags, Message
from ..dnscore.name import Name
from ..dnscore.rdata import CNAME, SOA
from ..dnscore.records import Question, RRset
from ..dnscore.rrtypes import Opcode, RClass, RCode, RType
from ..netsim.clock import EventHandle, EventLoop
from ..netsim.network import Network
from ..netsim.packet import DEFAULT_IP_TTL, Datagram
from ..server.machine import QueryEnvelope
from ..telemetry import state as _telemetry
from .cache import DNSCache

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
#: EDNS UDP payload size every upstream query advertises.
EDNS_PAYLOAD = 1232

#: Enum members read per resolution or per upstream query, bound once:
#: reading a member off an Enum class is a metaclass attribute lookup.
_NOERROR = RCode.NOERROR
_NXDOMAIN = RCode.NXDOMAIN
_SERVFAIL = RCode.SERVFAIL
_CNAME = RType.CNAME
_NS = RType.NS
_QUERY = Opcode.QUERY
_IN = RClass.IN
_ADDRESS_TYPES = (RType.A, RType.AAAA)


@dataclass(slots=True)
class ResolutionResult:
    """Outcome of one recursive resolution. ``chain`` is the answer chain
    as (RRset the resolver cached, TTL it read) pairs, never copies, so
    its TTLs are those at finish; :attr:`answers` stamps the copies."""

    qname: Name
    qtype: RType
    rcode: RCode
    chain: list[tuple[RRset, int]] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    queries_sent: int = 0
    timeouts: int = 0
    servers: list[str] = field(default_factory=list)
    from_cache: bool = False

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def failed(self) -> bool:
        return self.rcode not in (RCode.NOERROR, RCode.NXDOMAIN)

    @property
    def answers(self) -> list[RRset]:
        """The answer chain as RRsets stamped with their TTLs: new copies
        on every read, so changing one changes neither the cache nor the
        next read."""
        return [rrset.with_ttl(ttl) for rrset, ttl in self.chain]

    def addresses(self) -> list[str]:
        """All A/AAAA rdata strings in the answer chain."""
        out = []
        for rrset, _ttl in self.chain:
            if rrset.rtype in _ADDRESS_TYPES:
                out.extend(r.rdata.address for r in rrset.records)
        return out


ResolveCallback = Callable[[ResolutionResult], None]


class _Resolution:
    """State machine for one in-flight resolution."""

    __slots__ = ("target", "qtype", "callback", "result", "chain",
                 "attempts", "referrals", "tried", "pending_query",
                 "timeout_handle", "done", "sub_depth", "glue_chased",
                 "span", "attempt_span")

    def __init__(self, resolver: "RecursiveResolver", qname: Name,
                 qtype: RType, callback: ResolveCallback) -> None:
        self.target = qname
        self.qtype = qtype
        self.callback = callback
        #: The answer chain; the result holds this same list.
        self.chain: list[tuple[RRset, int]] = []
        self.result = ResolutionResult(qname, qtype, _SERVFAIL, self.chain,
                                       resolver.loop.now, 0.0, 0, 0, [],
                                       False)
        self.attempts = 0
        self.referrals = 0
        self.tried: set[str] = set()
        #: The query in flight; its answer echoes its id and question.
        self.pending_query: Message | None = None
        self.timeout_handle: EventHandle | None = None
        self.done = False
        #: Depth of nested NS-address (glueless referral) resolutions.
        self.sub_depth = 0
        #: NS targets whose addresses we already tried to resolve.
        self.glue_chased: set[Name] = set()
        #: Telemetry trace context (root span / current attempt span)
        #: when this resolution was head-sampled; purely observational.
        self.span = None
        self.attempt_span = None


class RecursiveResolver:
    """A resolver attached to one host node of the simulated Internet."""

    def __init__(self, loop: EventLoop, network: Network, host_id: str,
                 hints: dict[Name, list[str]],
                 *, rng: random.Random,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.loop = loop
        self.network = network
        self.host_id = host_id
        #: zone name -> nameserver addresses bootstrap (the "root hints").
        self.hints = {origin: list(addrs) for origin, addrs in hints.items()}
        self.rng = rng
        self.timeout = timeout
        self.cache = DNSCache()
        self._inflight: dict[int, _Resolution] = {}
        self._next_id = self.rng.randrange(0, 0xFFFF)
        #: queries sent per authority address, for rT-style accounting.
        self.queries_by_server: dict[str, int] = {}
        self.resolutions_started = 0
        self.resolutions_completed = 0
        #: Responses that answer no query in flight (by id and question).
        self.unsolicited_responses = 0
        network.attach_endpoint(host_id, self)

    # -- public API ---------------------------------------------------------

    def resolve(self, qname: Name, qtype: RType,
                callback: ResolveCallback) -> None:
        """Start resolving; ``callback`` fires exactly once on completion."""
        self.resolutions_started += 1
        resolution = _Resolution(self, qname, qtype, callback)
        resolution.span = _telemetry.begin("resolver.resolve", "resolver",
                                           resolution.result.started_at)
        self._step(resolution)

    # -- cache-driven stepping ------------------------------------------------

    def _step(self, resolution: _Resolution) -> None:
        if resolution.done:
            return
        now = self.loop.now
        cache = self.cache
        target = resolution.target
        qtype = resolution.qtype
        # Negative cache.
        negative = cache.get_negative(target, qtype, now)
        if negative is not None:
            self._finish(resolution, negative, True)
            return
        # Positive cache, following CNAMEs that are cached. A hit is
        # (stored RRset, aged TTL), the chain's own pair form.
        chased = 0
        while chased < 16:
            answer = cache.get(target, qtype, now)
            if answer is not None:
                resolution.chain.append(answer)
                self._finish(resolution, _NOERROR,
                             resolution.result.queries_sent == 0)
                return
            cname = cache.get(target, _CNAME, now)
            if cname is None or qtype == _CNAME:
                break
            resolution.chain.append(cname)
            rdata = cname[0].records[0].rdata
            assert isinstance(rdata, CNAME)
            resolution.target = target = rdata.target
            chased += 1
        self._query_authority(resolution)

    def _authority_candidates(self, resolution: _Resolution
                              ) -> tuple[list[str], list[Name]]:
        """(addresses, address-less NS targets) for the best authority."""
        now = self.loop.now
        cache = self.cache
        # Only rdata is read here: stored entries, nothing copied or aged.
        delegation = cache.best_delegation(resolution.target, now)
        if delegation is not None:
            addresses: list[str] = []
            glueless = cache.glue(delegation[1], now, addresses)
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
            self._finish(resolution, _SERVFAIL)
            return
        candidates, glueless = self._authority_candidates(resolution)
        untried = [a for a in candidates if a not in resolution.tried]
        pool = untried or candidates
        if not pool:
            if self._chase_glue(resolution, glueless):
                return
            self._finish(resolution, _SERVFAIL)
            return
        # Resolvers retry against every delegation of a zone before
        # giving up (the behaviour section 4.3.1's compartmentalization
        # depends on); the budget scales with the candidate set, and is
        # at least MAX_ATTEMPTS.
        attempt_budget = len(candidates) + 3
        if resolution.attempts >= attempt_budget \
                and resolution.attempts >= MAX_ATTEMPTS:
            self._finish(resolution, _SERVFAIL)
            return
        # Prefer untried addresses outright while any remain.
        if untried:
            pool = untried
        # Uniform selection, the best case for Two-Tier (anycast toplevel
        # RTTs vary widely). Research the paper cites ([34, 44, 56]) sees
        # resolvers from apparent uniformity to a strong low-RTT
        # preference; section 5.2 weighs the other extreme analytically
        # from measured RTTs ("avg RTT" vs "wgt RTT",
        # ``experiments.fig11_speedup``), not by simulating one.
        address = self.rng.choice(pool)
        resolution.attempts += 1
        resolution.tried.add(address)
        self._send_query(resolution, address)

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

    def _send_query(self, resolution: _Resolution, address: str) -> None:
        msg_id = self._allocate_id()
        # Every field given, in order: this runs per upstream query.
        query = Message(
            msg_id, Flags(False, _QUERY, False, False, False, False, _NOERROR),
            [Question(resolution.target, resolution.qtype, _IN)], [], [], [],
            EDNSOptions(EDNS_PAYLOAD, 0, 0, False, None, []))
        # randint(1024, 65535), draw for draw.
        port = 1024 + self.rng._randbelow(64512)
        envelope = QueryEnvelope(query, False, False, False, None)
        if resolution.span is not None:
            resolution.attempt_span = envelope.trace = _telemetry.begin(
                "resolver.attempt", "resolver", self.loop.now,
                resolution.span, server=address)
        dgram = Datagram(self.host_id, address, envelope, port, 53,
                         DEFAULT_IP_TTL, ())
        resolution.pending_query = query
        self._inflight[msg_id] = resolution
        result = resolution.result
        result.queries_sent += 1
        result.servers.append(address)
        by_server = self.queries_by_server
        by_server[address] = by_server.get(address, 0) + 1
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
        attempt = resolution.attempts
        timeout = self.timeout
        if attempt > 1:
            scale = min(BACKOFF_FACTOR ** (attempt - 1),
                        MAX_BACKOFF_MULTIPLE)
            digest = zlib.crc32(f"{self.host_id}|{attempt}".encode())
            jitter = 1.0 + JITTER * ((digest % 2001) / 1000.0 - 1.0)
            timeout = self.timeout * scale * jitter
        remaining = (resolution.result.started_at
                     + RESOLUTION_DEADLINE - self.loop.now)
        if remaining < 0.05:
            remaining = 0.05
        return remaining if remaining < timeout else timeout

    def _allocate_id(self) -> int:
        for _ in range(0x10000):
            self._next_id = (self._next_id + 1) & 0xFFFF
            if self._next_id not in self._inflight:
                return self._next_id
        raise RuntimeError("no free DNS message ids")

    # -- network events ---------------------------------------------------------

    def handle_datagram(self, dgram: Datagram) -> None:
        """A response arrived at this resolver's host."""
        message = dgram.payload.message
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
            self.loop.cancel(resolution.timeout_handle)
        if resolution.attempt_span is not None:
            _telemetry.end(resolution.attempt_span, self.loop.now)
            resolution.attempt_span = None
        self._process_response(resolution, message)

    def _on_timeout(self, resolution: _Resolution, msg_id: int) -> None:
        if resolution.done or resolution.pending_query.msg_id != msg_id:
            return
        self._inflight.pop(msg_id, None)
        resolution.result.timeouts += 1
        if resolution.attempt_span is not None:
            _telemetry.end(resolution.attempt_span, self.loop.now,
                           timeout=True)
            resolution.attempt_span = None
        # Retry: a different delegation of the same zone with high
        # probability, since tried addresses are excluded first.
        self._query_authority(resolution)

    # -- response classification ---------------------------------------------------

    def _process_response(self, resolution: _Resolution,
                          message: Message) -> None:
        now = self.loop.now
        rcode = message.flags.rcode
        if rcode == _NXDOMAIN:
            ttl = _negative_ttl(message.authority_rrsets())
            self.cache.put_negative(resolution.target, resolution.qtype,
                                    _NXDOMAIN, ttl, now)
            self._finish(resolution, _NXDOMAIN)
            return
        if rcode != _NOERROR:
            # SERVFAIL/REFUSED: try another server.
            self._query_authority(resolution)
            return

        # Each non-empty section is grouped once, and what is grouped
        # is cached, answers first, then authority, then additional.
        put = self.cache.put
        answer_sets = message.answer_rrsets() if message.answers else []
        authority_sets = (message.authority_rrsets() if message.authority
                          else [])
        for rrset in answer_sets:
            put(rrset, now)
        for rrset in authority_sets:
            put(rrset, now)
        if message.additional:
            for rrset in message.additional_rrsets():
                put(rrset, now)

        if answer_sets:
            terminal = False
            target = resolution.target
            qtype = resolution.qtype
            chain = resolution.chain
            for rrset in answer_sets:
                # The grouped RRset put above, at the TTL it came with.
                chain.append((rrset, rrset.ttl))
                if rrset.name == target and rrset.rtype == qtype:
                    terminal = True
                elif rrset.rtype == _CNAME and rrset.name == target:
                    rdata = rrset.records[0].rdata
                    assert isinstance(rdata, CNAME)
                    resolution.target = target = rdata.target
            if terminal:
                self._finish(resolution, _NOERROR)
            else:
                # CNAME led elsewhere: continue from cache/authorities.
                resolution.tried.clear()
                self._step(resolution)
            return

        if any(r.rtype == _NS for r in authority_sets):
            resolution.referrals += 1
            if resolution.referrals > MAX_REFERRALS:
                self._finish(resolution, _SERVFAIL)
                return
            # Referral: NS (+glue) were cached above; requery deeper.
            resolution.tried.clear()
            self._query_authority(resolution)
            return

        # NODATA.
        ttl = _negative_ttl(authority_sets)
        self.cache.put_negative(resolution.target, resolution.qtype,
                                _NOERROR, ttl, now)
        self._finish(resolution, _NOERROR)

    def _finish(self, resolution: _Resolution, rcode: RCode,
                from_cache: bool = False) -> None:
        if resolution.done:
            return
        resolution.done = True
        loop = self.loop
        if resolution.timeout_handle is not None:
            loop.cancel(resolution.timeout_handle)
        now = loop.now
        result = resolution.result
        result.rcode = rcode
        result.finished_at = now
        result.from_cache = from_cache and result.queries_sent == 0
        if resolution.sub_depth == 0:
            self.resolutions_completed += 1
            _telemetry.record("resolutions_total", (rcode,))
            _telemetry.record("resolution_seconds",
                              value=now - result.started_at)
            if result.timeouts:
                _telemetry.record("resolution_timeouts_total",
                                  value=result.timeouts)
            if resolution.span is not None:
                _telemetry.end(resolution.span, now, rcode=rcode.name,
                               timeouts=result.timeouts)
        resolution.callback(result)


def _negative_ttl(authority_sets: list[RRset]) -> int:
    for rrset in authority_sets:
        if rrset.rtype == RType.SOA:
            rdata = rrset.records[0].rdata
            assert isinstance(rdata, SOA)
            return min(rrset.ttl, rdata.minimum)
    return DEFAULT_NEGATIVE_TTL
