"""Authoritative response assembly.

The :class:`AuthoritativeEngine` owns a set of zones and turns a DNS query
message into a response message with correct sections: answers (following
in-zone CNAME chains), referrals with glue at zone cuts, SOA-in-authority
for NXDOMAIN/NODATA, and REFUSED outside its bailiwick. Names under a
registered *dynamic domain* are answered through a mapping provider hook,
which is how the platform layer plugs in GTM/CDN load-balanced answers
(paper section 3.2, "Mapping Intelligence").
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..dnscore.message import Message, ResponseTemplate, make_response
from ..dnscore.name import Name
from ..dnscore.records import ResourceRecord, RRset
from ..dnscore.rrtypes import Opcode, RClass, RCode, RType
from ..dnscore.zone import LookupResult, LookupStatus, NxdomainIndex, Zone
from ..dnssec.denial import (
    DenialMode,
    NsecChainIndex,
    chain_denial,
    compact_denial,
)
from ..dnssec.keys import KeyRing
from ..dnssec.sign import SigningPolicy, covering_rrsigs, zone_is_signed


#: Hoisted for the per-query gates and counters below.
_QUERY = Opcode.QUERY
_IN = RClass.IN
_NXDOMAIN = RCode.NXDOMAIN


class MappingProvider(Protocol):
    """Resolves dynamic (load-balanced) names to address RRsets."""

    def answer(self, qname: Name, qtype: RType,
               client_key: str | None) -> RRset | None:
        """Return the tailored RRset, or None to fall through to zone data."""


class DelegationProvider(Protocol):
    """Tailors a zone cut's NS set per client (Two-Tier lowlevels).

    Paper section 5.2: the mapping system tailors the set of lowlevel
    delegations for "w10.akamai.net" to be near the resolver issuing the
    query.
    """

    def delegation(self, cut: Name, client_key: str | None
                   ) -> tuple[RRset, list[RRset]] | None:
        """Return (NS rrset, glue rrsets), or None for the static set."""


class ZoneStore:
    """Holds zones indexed by origin with longest-match lookup."""

    def __init__(self) -> None:
        self._zones: dict[Name, Zone] = {}
        #: Bumped whenever the zone *set* changes (add/remove/replace):
        #: an unchanged generation means every qname still maps to the
        #: same Zone object, which is what lets the engine validate a
        #: response plan without a per-hit ``find`` call.
        self.generation = 0
        #: Same zones keyed by origin label tuple, so the hot
        #: longest-match walk in :meth:`find` slices label tuples
        #: instead of constructing a Name per ancestor.
        self._by_labels: dict[tuple[bytes, ...], Zone] = {}
        self._origins_sorted: tuple[Name, ...] | None = None

    def add(self, zone: Zone) -> None:
        zone.validate()
        self._zones[zone.origin] = zone
        self._by_labels[zone.origin.labels] = zone
        self._origins_sorted = None
        self.generation += 1

    def remove(self, origin: Name) -> bool:
        zone = self._zones.pop(origin, None)
        if zone is None:
            return False
        del self._by_labels[origin.labels]
        self._origins_sorted = None
        self.generation += 1
        return True

    def get(self, origin: Name) -> Zone | None:
        return self._zones.get(origin)

    def find(self, qname: Name) -> Zone | None:
        """The zone with the longest origin that encloses ``qname``."""
        labels = qname.labels
        by_labels = self._by_labels
        for i in range(len(labels) + 1):
            zone = by_labels.get(labels[i:])
            if zone is not None:
                return zone
        return None

    def origins(self) -> list[Name]:
        return list(self.origins_view())

    def origins_view(self) -> tuple[Name, ...]:
        """Sorted origins as a shared immutable tuple (no per-call copy).

        The monitoring agent walks every origin each probe cycle; this
        view lets it iterate without allocating a fresh list per cycle.
        """
        view = self._origins_sorted
        if view is None:
            view = self._origins_sorted = tuple(
                sorted(self._zones, key=Name.canonical_key))
        return view

    def zones(self) -> list[Zone]:
        return [self._zones[o] for o in self.origins()]

    def __len__(self) -> int:
        return len(self._zones)

    def __contains__(self, origin: Name) -> bool:
        return origin in self._zones


class _ZoneServing:
    """What one engine derived from one zone as installed: the NXDOMAIN
    count that arms the negative lane, its skeletons, and (by reference)
    every response plan. All of it is valid exactly while :meth:`live`
    holds; indexes that depend on zone content alone live on the zone
    (:meth:`Zone.derived`), shared by every engine serving it.
    """

    __slots__ = ("zone", "version", "store", "generation", "nxdomains",
                 "index", "skeletons")

    def __init__(self, zone: Zone, store: ZoneStore) -> None:
        self.zone = zone
        self.version = zone.version
        self.store = store
        self.generation = store.generation
        self.nxdomains = 0
        #: Set with the first skeleton.
        self.index: NxdomainIndex | None = None
        #: signed? -> denial skeleton. Plain: NXDOMAIN, SOA in
        #: authority. Signed (compact mode, DO=1): NOERROR, SOA + its
        #: RRSIG; the synthesized NSEC is appended per query, so a
        #: unique-qname flood still needs one skeleton per zone.
        self.skeletons: dict[bool, ResponseTemplate] = {}

    def live(self) -> bool:
        """The serving path's one validity rule: same zone object, same
        content, same zone set. The version counts mutations of
        ``self.zone`` itself, and an unchanged store generation means
        every qname that resolved to that object still does — hence no
        per-hit ``find`` and no separate identity check. Neither
        counter moves back, so a stale record stays stale."""
        return (self.zone.version == self.version
                and self.store.generation == self.generation)


class _Plan:
    """One plan-cache entry: the template answering a ``(qname, qtype,
    DO)`` and the serving record that vouches for it."""

    __slots__ = ("template", "serving", "shared")

    def __init__(self, template: ResponseTemplate,
                 serving: _ZoneServing) -> None:
        self.template = template
        self.serving = serving
        #: One Message stamped from ``template`` on first use by
        #: ``respond_probe``, whose callers read it synchronously;
        #: everything that travels the network gets a fresh one.
        self.shared: Message | None = None


class DnssecServing:
    """How one engine serves signed zones.

    The zones themselves carry all signed data (DNSKEY, RRSIG, NSEC —
    written by :class:`repro.dnssec.sign.ZoneSigner`); this object
    holds only the *serving* choices: which denial mode answers
    negatives, the key rings compact denial signs with, and the clock
    stamping per-query signatures. Signedness itself is discovered
    from zone content, so an engine serves a mix of signed and
    unsigned zones with no registration step — compact denial alone
    needs :meth:`register_keyring`, because it signs at query time.
    """

    __slots__ = ("denial_mode", "policy", "keyrings", "clock")

    def __init__(self) -> None:
        self.denial_mode = DenialMode.NSEC_CHAIN
        self.policy = SigningPolicy()
        self.keyrings: dict[Name, KeyRing] = {}
        #: Sim-time source for compact denial's per-query RRSIGs; left
        #: None the inception is pinned at 0.0 (pure unit-test use).
        self.clock: Callable[[], float] | None = None

    def register_keyring(self, keys: KeyRing,
                         policy: SigningPolicy | None = None) -> None:
        self.keyrings[keys.origin] = keys
        if policy is not None:
            self.policy = policy

    def now(self) -> float:
        clock = self.clock
        return clock() if clock is not None else 0.0


def _reowned(rrset: RRset, owner: Name) -> RRset:
    """A copy of ``rrset`` re-owned at ``owner`` (wildcard expansion)."""
    clone = RRset(owner, rrset.rtype, rrset.rclass, rrset.ttl)
    clone.records = [ResourceRecord(owner, r.rtype, r.rclass, r.ttl, r.rdata)
                     for r in rrset.records]
    return clone


class AuthoritativeEngine:
    """Pure query-to-response logic, independent of transport and timing."""

    #: Bound on the response plan cache, across all zones.
    _PLAN_CACHE_MAX = 4096
    #: NXDOMAINs (per serving record) before the negative skeleton is
    #: built; amortizes the O(zone size) index build against flood
    #: traffic without paying it for one-off typos.
    _NEG_BUILD_AFTER = 8

    #: The response plan fast lane. The equivalence tests turn it off
    #: (on the class or one instance) to prove it changes no byte.
    plan_cache_enabled = True

    def __init__(self, store: ZoneStore,
                 mapping: MappingProvider | None = None,
                 dynamic_domains: list[Name] | None = None,
                 dynamic_delegations: dict[Name, DelegationProvider]
                 | None = None) -> None:
        self.store = store
        #: Plans are assembled around these three, so they are fixed at
        #: construction — except that ``dynamic_domains`` (a tuple)
        #: grows through :meth:`add_dynamic_domain`.
        self.mapping = mapping
        self.dynamic_delegations = dict(dynamic_delegations or {})
        self.dynamic_domains = tuple(dynamic_domains or ())
        self.queries_answered = 0
        self.nxdomain_count = 0
        #: The fast lane: (qname, qtype, DO) -> plan, valid while its
        #: serving record is live. ``ResponseTemplate.finalize`` stamps
        #: a plan into a fresh Message, byte-identical to slow-path
        #: assembly. Client-dependent answers (mapping names, tailored
        #: delegations) are never planned, and NXDOMAIN floods are
        #: served from the record's skeleton, not per-qname entries, so
        #: unique attack names cannot churn this cache.
        self._plans: dict[tuple[Name, RType, bool], _Plan] = {}
        #: origin -> serving record, replaced once it is no longer live.
        self._serving: dict[Name, _ZoneServing] = {}
        #: DNSSEC serving configuration; inert until a zone in the
        #: store actually carries an apex DNSKEY.
        self.dnssec = DnssecServing()
        self.signed_responses = 0
        #: Times the plan cache hit its bound and was wiped — the
        #: fig10-signed observable separating the denial modes (chain
        #: mode plans signed NXDOMAINs per qname; compact does not).
        self.plan_cache_wipes = 0
        #: Observers called with (query, response) after assembly; the
        #: NXDOMAIN filter taps this to count negative answers per zone.
        self.response_observers: list[Callable[[Message, Message], None]] = []

    def add_dynamic_domain(self, domain: Name) -> None:
        """Route ``domain`` through the mapping provider from now on,
        dropping every plan: no zone counter sees this change, and
        plans assembled before it would keep serving static zone data
        for what is now a mapping name."""
        self.dynamic_domains += (domain,)
        self._plans.clear()
        self._serving.clear()

    @property
    def signed_negative_plans(self) -> int:
        """Zones holding a signed (compact-mode) negative skeleton: one
        however many unique names a flood carries, none in chain mode."""
        return sum(True in serving.skeletons
                   for serving in self._serving.values())

    def is_dynamic(self, qname: Name) -> bool:
        domains = self.dynamic_domains
        if not domains:
            return False
        return any(qname.is_subdomain_of(d) for d in domains)

    def respond(self, query: Message,
                client_key: str | None = None) -> Message:
        """Assemble the authoritative response to ``query``.

        ``client_key`` identifies the client for mapping purposes — the
        ECS subnet when present, else the resolver source address.
        """
        # Fast lane: answer from a live plan without touching the zone.
        # Gated (as in :meth:`respond_probe`) on what the slow path's
        # early branches establish: QUERY opcode, one IN-class question.
        # client_key is irrelevant: client-dependent names are never
        # planned.
        if self.plan_cache_enabled:
            questions = query.questions
            if len(questions) == 1 and query.flags.opcode is _QUERY:
                question = questions[0]
                if question.qclass is _IN:
                    edns = query.edns
                    do_bit = edns is not None and edns.dnssec_ok
                    key = (question.qname, question.qtype, do_bit)
                    plan = self._plans.get(key)
                    if plan is not None:
                        if plan.serving.live():
                            return self._finish(
                                query, plan.template.finalize(query))
                        del self._plans[key]
                    elif self._serving:
                        response = self._neg_fast_lane(query, *key)
                        if response is not None:
                            return self._finish(query, response)
        return self._respond_full(query, client_key)

    def _neg_fast_lane(self, query: Message, qname: Name, qtype: RType,
                       do_bit: bool) -> Message | None:
        """Serve an NXDOMAIN from the zone's negative skeleton, if one
        matches the query's DNSSEC expectations."""
        if (self.mapping is not None
                and qtype in (RType.A, RType.AAAA)
                and self.is_dynamic(qname)):
            return None
        zone = self.store.find(qname)
        if zone is None:
            return None
        serving = self._serving.get(zone.origin)
        if serving is None:
            return None
        # An unsigned zone owes DO=1 queries nothing extra, so the
        # plain skeleton serves both populations there.
        signed = do_bit and zone_is_signed(zone)
        skeleton = serving.skeletons.get(signed)
        if (skeleton is None or not serving.live()
                or not serving.index.is_nxdomain(qname.labels)):
            return None
        response = skeleton.finalize(query)
        if signed:
            self._attach_compact_denial(zone, qname, response)
            self.signed_responses += 1
        return response

    def _attach_compact_denial(self, zone: Zone, qname: Name,
                               response: Message,
                               types: tuple[int, ...] = ()) -> None:
        serving = self.dnssec
        keys = serving.keyrings[zone.origin]
        for nsec, sigs in compact_denial(zone, keys, serving.policy, qname,
                                         serving.now(), types):
            response.add_rrset("authority", nsec)
            if sigs is not None:
                response.add_rrset("authority", sigs)

    def _respond_full(self, query: Message,
                      client_key: str | None = None) -> Message:
        """The slow path: full zone walk, populating the plan caches."""
        if query.flags.opcode != Opcode.QUERY:
            return self._finish(query, make_response(
                query, RCode.NOTIMP, aa=False))
        try:
            question = query.question
        except Exception:
            return self._finish(query, make_response(
                query, RCode.FORMERR, aa=False))
        if question.qclass != RClass.IN:
            return self._finish(query, make_response(
                query, RCode.REFUSED, aa=False))
        if query.edns is not None and query.edns.client_subnet is not None:
            client_key = str(query.edns.client_subnet.network())

        zone = self.store.find(question.qname)
        if zone is None:
            return self._finish(query, make_response(
                query, RCode.REFUSED, aa=False))

        do_bit = query.edns is not None and query.edns.dnssec_ok
        signed = do_bit and zone_is_signed(zone)
        compact = (signed
                   and self.dnssec.denial_mode is DenialMode.COMPACT
                   and zone.origin in self.dnssec.keyrings)

        # The slow path's job is assembly; its product populates the
        # plan cache below.
        response = make_response(query, RCode.NOERROR, aa=True)
        cacheable = self.plan_cache_enabled

        # Mapping hook: tailored answers for GTM/CDN names. (qtype is
        # checked before the is_dynamic subdomain walk — the predicates
        # are pure, and most probe traffic short-circuits on qtype.)
        if (self.mapping is not None
                and question.qtype in (RType.A, RType.AAAA)
                and self.is_dynamic(question.qname)):
            cacheable = False
            mapped = self.mapping.answer(question.qname, question.qtype,
                                         client_key)
            if mapped is not None:
                response.add_rrset("answers", mapped)
                return self._finish(query, response)

        chain, result = zone.cname_chain(question.qname, question.qtype)
        for alias in chain:
            response.add_rrset("answers", alias)

        if result.status == LookupStatus.SUCCESS:
            assert result.rrset is not None
            response.add_rrset("answers", result.rrset)
        elif result.status == LookupStatus.DELEGATION:
            assert result.delegation is not None
            response.flags.aa = False
            delegation, glue_sets = result.delegation, result.glue
            provider = self.dynamic_delegations.get(delegation.name)
            if provider is not None:
                cacheable = False
                tailored = provider.delegation(delegation.name, client_key)
                if tailored is not None:
                    delegation, glue_sets = tailored
            response.add_rrset("authority", delegation)
            for glue in glue_sets:
                response.add_rrset("additional", glue)
        elif result.status == LookupStatus.NODATA:
            if result.soa is not None:
                response.add_rrset("authority", result.soa)
        elif result.status == LookupStatus.NXDOMAIN:
            # Also after a CNAME chain: RFC 6604 has the rcode reflect the
            # last name (many servers answer NOERROR; we follow the RFC).
            response.flags.rcode = RCode.NXDOMAIN
            if result.soa is not None:
                response.add_rrset("authority", result.soa)
        elif result.status == LookupStatus.CNAME:
            # Chain depth exceeded; return what we have.
            pass
        elif result.status == LookupStatus.NOT_IN_ZONE:
            # CNAME led out of this zone: the chase becomes the
            # resolver's job; answer with the chain collected so far.
            pass
        plan_cacheable = True
        if signed:
            plan_cacheable = self._augment_signed(zone, question, chain,
                                                  result, response, compact)
        if cacheable:
            serving = self._serving.get(zone.origin)
            if serving is None or not serving.live():
                serving = self._serving[zone.origin] = _ZoneServing(
                    zone, self.store)
            if (result.status == LookupStatus.NXDOMAIN and not chain
                    and (not signed or compact)):
                # Unique attack qnames would churn the per-qname cache;
                # feed the per-zone negative skeleton instead. Signed
                # chain mode cannot do this (the NSEC proof depends on
                # the qname) and falls through to per-qname planning —
                # the churn compact denial exists to avoid.
                self._note_negative(serving, signed_compact=compact)
            elif plan_cacheable:
                plans = self._plans
                if len(plans) >= self._PLAN_CACHE_MAX:
                    plans.clear()
                    self.plan_cache_wipes += 1
                plans[(question.qname, question.qtype, do_bit)] = _Plan(
                    ResponseTemplate.from_message(response), serving)
        return self._finish(query, response)

    def _augment_signed(self, zone: Zone, question, chain: list[RRset],
                        result: LookupResult, response: Message,
                        compact: bool) -> bool:
        """Add RRSIGs and denial proofs to an assembled response.

        Returns whether the result may still be planned per-qname:
        compact proofs are signed at query time (their RRSIG validity
        windows track the clock, not the zone version), so responses
        carrying one must be reassembled per query.
        """
        self.signed_responses += 1
        serving = self.dnssec
        status = result.status
        for alias in chain:
            sigs = covering_rrsigs(zone, alias.name, RType.CNAME)
            if sigs is not None:
                response.add_rrset("answers", sigs)
        if status == LookupStatus.SUCCESS and result.rrset is not None:
            rrset = result.rrset
            source = result.source
            if (source is not None and source.is_wildcard
                    and source != rrset.name):
                sigs = covering_rrsigs(zone, source, rrset.rtype)
                if sigs is not None:
                    response.add_rrset("answers",
                                       _reowned(sigs, rrset.name))
                # RFC 4035 3.1.3.3: a wildcard expansion must prove the
                # qname itself does not exist.
                self._attach_chain_denial(zone, question.qname, response,
                                          nxdomain=False)
            else:
                sigs = covering_rrsigs(zone, rrset.name, rrset.rtype)
                if sigs is not None:
                    response.add_rrset("answers", sigs)
            return True
        if status == LookupStatus.DELEGATION and result.delegation is not None:
            # The NSEC at the cut proves the delegation has no DS — the
            # simulation's children are islands of security.
            cut = result.delegation.name
            nsec = zone.get_rrset(cut, RType.NSEC)
            if nsec is not None:
                response.add_rrset("authority", nsec)
                sigs = covering_rrsigs(zone, cut, RType.NSEC)
                if sigs is not None:
                    response.add_rrset("authority", sigs)
            return True
        if status == LookupStatus.NODATA:
            self._sign_soa(zone, result, response)
            if compact:
                types = tuple(int(t) for t in
                              sorted(zone.types_at(question.qname)))
                self._attach_compact_denial(zone, question.qname, response,
                                            types)
                return False
            self._attach_chain_denial(zone, question.qname, response,
                                      nxdomain=False)
            return True
        if status == LookupStatus.NXDOMAIN and not chain:
            self._sign_soa(zone, result, response)
            if compact:
                # Black lies: the synthesized proof says the name
                # exists with no data, so the rcode follows suit.
                response.flags.rcode = RCode.NOERROR
                self._attach_compact_denial(zone, question.qname, response)
                return False
            self._attach_chain_denial(zone, question.qname, response,
                                      nxdomain=True)
            return True
        if status == LookupStatus.NXDOMAIN:
            # Post-CNAME NXDOMAIN: prove the last chain target's absence.
            self._sign_soa(zone, result, response)
            rdata = chain[-1].records[0].rdata
            target = getattr(rdata, "target", question.qname)
            self._attach_chain_denial(zone, target, response, nxdomain=True)
            return True
        return True

    def _sign_soa(self, zone: Zone, result: LookupResult,
                  response: Message) -> None:
        if result.soa is None:
            return
        sigs = covering_rrsigs(zone, zone.origin, RType.SOA)
        if sigs is not None:
            response.add_rrset("authority", sigs)

    def _attach_chain_denial(self, zone: Zone, qname: Name,
                             response: Message, *, nxdomain: bool) -> None:
        index = zone.derived(NsecChainIndex)
        for nsec, sigs in chain_denial(zone, index, qname,
                                       nxdomain=nxdomain):
            response.add_rrset("authority", nsec)
            if sigs is not None:
                response.add_rrset("authority", sigs)

    def _note_negative(self, serving: _ZoneServing, *,
                       signed_compact: bool = False) -> None:
        """Count a slow-path NXDOMAIN against ``serving``; build its
        negative skeleton once the flood threshold passes.

        Signed (DO=1, compact mode) and plain floods share the counter
        but build separate skeletons: the signed one carries the SOA's
        RRSIG and answers NOERROR, black-lies style."""
        serving.nxdomains += 1
        if serving.nxdomains < self._NEG_BUILD_AFTER:
            return
        if signed_compact in serving.skeletons:
            return
        zone = serving.zone
        soa = zone.soa
        authority: tuple = tuple(soa.records) if soa is not None else ()
        if signed_compact and soa is not None:
            sigs = covering_rrsigs(zone, zone.origin, RType.SOA)
            if sigs is not None:
                authority = authority + tuple(sigs.records)
        serving.index = zone.derived(NxdomainIndex)
        serving.skeletons[signed_compact] = ResponseTemplate(
            True, RCode.NOERROR if signed_compact else RCode.NXDOMAIN,
            (), authority, ())

    def respond_probe(self, query: Message) -> Message:
        """:meth:`respond` for synchronous, read-only consumers — the
        monitoring agent re-asking the same SOA questions every cycle.
        Same plan cache, key, gate and liveness rule, but a hit for an
        EDNS-free query returns the plan's shared Message, restamped,
        instead of a fresh one. Counters and observers still run per
        call. Callers must not mutate or keep the result (see
        ``health_probe``)."""
        if query.edns is None and self.plan_cache_enabled:
            questions = query.questions
            if len(questions) == 1 and query.flags.opcode is _QUERY:
                question = questions[0]
                if question.qclass is _IN:
                    try:
                        plan = self._plans[
                            question.qname, question.qtype, False]
                    except KeyError:
                        return self.respond(query)
                    if plan.serving.live():
                        reply = plan.shared
                        if reply is None:
                            reply = plan.shared = plan.template.finalize(query)
                        reply.msg_id = query.msg_id
                        reply.flags.rd = query.flags.rd
                        return self._finish(query, reply)
        return self.respond(query)

    def _finish(self, query: Message, response: Message) -> Message:
        self.queries_answered += 1
        if response.flags.rcode is _NXDOMAIN:
            self.nxdomain_count += 1
        observers = self.response_observers
        if observers:
            for observer in observers:
                observer(query, response)
        return response
