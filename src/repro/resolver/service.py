"""The server side of a recursive resolver: end-user query service.

The paper's client-side system (section 1): end-users send queries to
their assigned resolver; the resolver answers from cache or performs
the iterative resolution. This module adds that front end to
:class:`RecursiveResolver`, including *query coalescing* — concurrent
identical questions share one upstream resolution — and a stub client
for driving end-user workloads and measuring user-perceived resolution
time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..dnscore.message import Message, make_query, make_response
from ..dnscore.name import Name
from ..dnscore.rrtypes import RCode, RType
from ..netsim.clock import EventLoop
from ..netsim.network import Network
from ..netsim.packet import Datagram
from ..server.machine import QueryEnvelope
from ..server.pop import ResponseEnvelope
from .resolver import RecursiveResolver, ResolutionResult


@dataclass(slots=True)
class ServiceStats:
    """Counters for one resolver service."""

    client_queries: int = 0
    cache_answers: int = 0
    recursions: int = 0
    coalesced: int = 0
    servfails: int = 0


class ResolverService:
    """Fronts a recursive resolver with an end-user query interface.

    Takes over the resolver host's endpoint: upstream responses still
    reach the wrapped resolver, while arriving *queries* (from stub
    clients) are answered from cache or by starting a recursion.
    """

    def __init__(self, resolver: RecursiveResolver) -> None:
        self.resolver = resolver
        self.loop = resolver.loop
        self.network = resolver.network
        self.stats = ServiceStats()
        #: (qname, qtype) -> waiting (client dgram, client query) pairs
        self._pending: dict[tuple[Name, RType],
                            list[tuple[Datagram, Message]]] = {}
        # Take over the endpoint; upstream responses are forwarded on.
        self.network._endpoints[resolver.host_id] = self

    def handle_datagram(self, dgram: Datagram) -> None:
        payload = dgram.payload
        if isinstance(payload, QueryEnvelope) and not payload.message.flags.qr:
            self._handle_client_query(dgram, payload.message)
        else:
            self.resolver.handle_datagram(dgram)

    # -- client path ---------------------------------------------------------

    def _handle_client_query(self, dgram: Datagram,
                             query: Message) -> None:
        self.stats.client_queries += 1
        question = query.question
        key = (question.qname, question.qtype)

        waiting = self._pending.get(key)
        if waiting is not None:
            # An identical resolution is already in flight: coalesce.
            self.stats.coalesced += 1
            waiting.append((dgram, query))
            return

        # Serve straight from cache when possible.
        now = self.loop.now
        negative = self.resolver.cache.get_negative(question.qname,
                                                    question.qtype, now)
        if negative is not None:
            self.stats.cache_answers += 1
            self._reply(dgram, query, negative, [])
            return
        cached = self.resolver.cache.get(question.qname, question.qtype,
                                         now)
        if cached is not None:
            self.stats.cache_answers += 1
            self._reply(dgram, query, RCode.NOERROR, [cached])
            return

        self._pending[key] = [(dgram, query)]
        self.stats.recursions += 1
        self.resolver.resolve(
            question.qname, question.qtype,
            lambda result, key=key: self._finish(key, result))

    def _finish(self, key: tuple[Name, RType],
                result: ResolutionResult) -> None:
        waiting = self._pending.pop(key, [])
        if result.failed:
            self.stats.servfails += 1
        for dgram, query in waiting:
            self._reply(dgram, query, result.rcode, result.answers)

    def _reply(self, client_dgram: Datagram, query: Message,
               rcode: RCode, answers) -> None:
        # Client replies carry per-query answers assembled from the
        # resolver cache.
        response = make_response(query, rcode, aa=False)
        response.flags.ra = True
        for rrset in answers:
            response.add_rrset("answers", rrset)
        envelope = ResponseEnvelope(response,
                                    machine_id=self.resolver.host_id)
        self.network.send(Datagram(
            src=self.resolver.host_id, dst=client_dgram.src,
            payload=envelope, src_port=client_dgram.dst_port,
            dst_port=client_dgram.src_port))


@dataclass(slots=True)
class ClientResult:
    """One end-user lookup as the user experienced it."""

    qname: Name
    qtype: RType
    rcode: RCode
    sent_at: float
    answered_at: float
    answers: list = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.answered_at - self.sent_at


class StubClient:
    """An end-user host sending queries to its assigned resolver."""

    def __init__(self, loop: EventLoop, network: Network, host_id: str,
                 resolver_address: str, rng: random.Random) -> None:
        self.loop = loop
        self.network = network
        self.host_id = host_id
        self.resolver_address = resolver_address
        self.rng = rng
        self.results: list[ClientResult] = []
        self._inflight: dict[int, tuple[ClientResult,
                                        Callable | None]] = {}
        self._next_id = self.rng.randrange(0xFFFF)
        network.attach_endpoint(host_id, self)

    def lookup(self, qname: Name, qtype: RType = RType.A,
               callback: Callable[[ClientResult], None] | None = None
               ) -> None:
        """Send one query to the configured resolver."""
        self._next_id = (self._next_id + 1) & 0xFFFF
        query = make_query(self._next_id, qname, qtype, rd=True)
        record = ClientResult(qname, qtype, RCode.SERVFAIL,
                              sent_at=self.loop.now,
                              answered_at=self.loop.now)
        self._inflight[self._next_id] = (record, callback)
        self.network.send(Datagram(
            src=self.host_id, dst=self.resolver_address,
            payload=QueryEnvelope(query),
            src_port=self.rng.randint(1024, 65535)))

    def handle_datagram(self, dgram: Datagram) -> None:
        envelope = dgram.payload
        if not isinstance(envelope, ResponseEnvelope):
            return
        message = envelope.message
        entry = self._inflight.pop(message.msg_id, None)
        if entry is None:
            return
        record, callback = entry
        record.rcode = message.rcode
        record.answered_at = self.loop.now
        record.answers = message.answer_rrsets()
        self.results.append(record)
        if callback is not None:
            callback(record)
