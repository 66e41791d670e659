"""Plan-cache equivalence: the response fast lane never changes bytes.

Mirrors ``tests/netsim/test_route_cache_equivalence.py`` one layer up:
the zone-versioned response plan cache (and the per-zone negative plan)
must be invisible on the wire. Every test compares the fast lane against
a plan-cache-disabled engine byte for byte, including the invalidation
paths — zone republish (version bump), zone replacement (store
generation bump), and engine reconfiguration (``add_dynamic_domain``).
"""

import json

from repro.dnscore import (
    Opcode,
    Question,
    RClass,
    RCode,
    RType,
    make_query,
    make_rrset,
    name,
    parse_zone_text,
)
from repro.dnscore.rdata import A, TXT
from repro.dnscore.message import EDNSOptions
from repro.server.engine import AuthoritativeEngine, ZoneStore

from .zonespy import zone_walks

ZONE = """\
$ORIGIN ex.com.
$TTL 300
@ IN SOA ns1.ex.com. admin.ex.com. 1 7200 3600 1209600 300
@ IN NS ns1.ex.com.
ns1 IN A 192.0.2.53
www IN A 192.0.2.1
www IN AAAA 2001:db8::1
alias IN CNAME www
ext IN CNAME target.other.org.
child IN NS ns.child.ex.com.
ns.child IN A 192.0.2.54
*.w IN A 192.0.2.7
"""

#: (qname, qtype) battery covering every lookup outcome: exact match,
#: NODATA, CNAME chain, out-of-zone CNAME, delegation, glue below a
#: cut, wildcard synthesis, empty non-terminal, NXDOMAIN, and REFUSED.
CASES = [
    ("www.ex.com", RType.A),
    ("www.ex.com", RType.AAAA),
    ("www.ex.com", RType.TXT),            # NODATA
    ("alias.ex.com", RType.A),            # CNAME chain
    ("ext.ex.com", RType.A),              # CNAME out of zone
    ("child.ex.com", RType.A),            # delegation
    ("deep.child.ex.com", RType.A),       # below the cut
    ("ns.child.ex.com", RType.A),         # glue below the cut
    ("anything.w.ex.com", RType.A),       # wildcard synthesis
    ("a.b.w.ex.com", RType.A),            # deep wildcard synthesis
    ("w.ex.com", RType.A),                # empty non-terminal (NODATA)
    ("missing.ex.com", RType.A),          # NXDOMAIN
    ("a.b.c.missing.ex.com", RType.A),    # deep NXDOMAIN
    ("ex.com", RType.SOA),
    ("outside.org", RType.A),             # REFUSED
]


def build_engine(plan_cache: bool) -> AuthoritativeEngine:
    store = ZoneStore()
    store.add(parse_zone_text(ZONE))
    engine = AuthoritativeEngine(store)
    engine.plan_cache_enabled = plan_cache
    return engine


def wire(engine: AuthoritativeEngine, qname: str, qtype: RType,
         msg_id: int = 7, edns: EDNSOptions | None = None) -> bytes:
    query = make_query(msg_id, name(qname), qtype, edns=edns)
    return engine.respond(query).to_wire()


class TestFastLaneByteEquality:
    def test_battery_identical_with_and_without_cache(self):
        fast = build_engine(plan_cache=True)
        slow = build_engine(plan_cache=False)
        for qname, qtype in CASES:
            # Ask the cached engine twice: the first answer populates
            # the plan, the second is served from it. Both must match
            # the uncached engine byte for byte.
            first = wire(fast, qname, qtype)
            second = wire(fast, qname, qtype)
            reference = wire(slow, qname, qtype)
            assert first == reference, (qname, qtype)
            assert second == reference, (qname, qtype)

    def test_cached_plan_restamps_per_query(self):
        fast = build_engine(plan_cache=True)
        slow = build_engine(plan_cache=False)
        wire(fast, "www.ex.com", RType.A, msg_id=1)    # populate
        assert wire(fast, "www.ex.com", RType.A, msg_id=9) == \
            wire(slow, "www.ex.com", RType.A, msg_id=9)

    def test_edns_echo_identical(self):
        fast = build_engine(plan_cache=True)
        slow = build_engine(plan_cache=False)
        opts = EDNSOptions(payload_size=1232)
        wire(fast, "www.ex.com", RType.A)              # plain populate
        got = wire(fast, "www.ex.com", RType.A, edns=opts)
        assert got == wire(slow, "www.ex.com", RType.A, edns=opts)

    def test_cached_response_is_a_fresh_message(self):
        fast = build_engine(plan_cache=True)
        q = make_query(1, name("www.ex.com"), RType.A)
        a = fast.respond(q)
        b = fast.respond(make_query(2, name("www.ex.com"), RType.A))
        assert a is not b
        # Downstream fault injection mutates responses in place; a
        # poisoned earlier answer must not leak into later ones.
        a.answers.clear()
        a.flags.rcode = RCode.SERVFAIL
        c = fast.respond(make_query(3, name("www.ex.com"), RType.A))
        assert c.rcode == RCode.NOERROR and c.answers


class TestProbePath:
    """``respond_probe`` is a client of the plan cache: same gate, same
    key, same liveness rule as ``respond``."""

    def test_probe_hit_shares_one_message_and_matches_respond(self):
        fast = build_engine(plan_cache=True)
        slow = build_engine(plan_cache=False)
        probe = make_query(1, name("ex.com"), RType.SOA)
        fast.respond_probe(probe)                      # populate the plan
        probe.msg_id = 2
        first = fast.respond_probe(probe)
        assert first.to_wire() == slow.respond(probe).to_wire()
        probe.msg_id = 3
        second = fast.respond_probe(probe)
        assert second is first, "a probe hit must not build a Message"
        assert second.to_wire() == slow.respond(probe).to_wire()
        # Responses that travel the network never alias the shared one.
        assert fast.respond(probe) is not first
        assert fast.queries_answered == 4

    def test_probe_outside_the_plan_gate_answers_like_respond(self):
        fast = build_engine(plan_cache=True)
        slow = build_engine(plan_cache=False)
        probe = make_query(1, name("ex.com"), RType.SOA)
        fast.respond_probe(probe)
        assert fast.respond_probe(probe).rcode == RCode.NOERROR
        chaos = make_query(2, name("ex.com"), RType.SOA)
        chaos.questions[0] = Question(name("ex.com"), RType.SOA, RClass.CH)
        update = make_query(3, name("ex.com"), RType.SOA)
        update.flags.opcode = Opcode.UPDATE
        for query, rcode in ((chaos, RCode.REFUSED),
                             (update, RCode.NOTIMP)):
            response = fast.respond_probe(query)
            assert response.rcode == rcode
            assert response.to_wire() == slow.respond(query).to_wire()

    def test_probe_with_edns_gets_the_opt_echo(self):
        fast = build_engine(plan_cache=True)
        slow = build_engine(plan_cache=False)
        fast.respond_probe(make_query(1, name("ex.com"), RType.SOA))
        query = make_query(2, name("ex.com"), RType.SOA,
                           edns=EDNSOptions(payload_size=1232))
        response = fast.respond_probe(query)
        assert response.edns is not None
        assert response.to_wire() == slow.respond(query).to_wire()

    def test_probe_sees_zone_edits_and_replacement(self):
        fast = build_engine(plan_cache=True)
        probe = make_query(1, name("www.ex.com"), RType.A)
        for _ in range(2):
            assert len(fast.respond_probe(probe).answers) == 1
        zone = fast.store.get(name("ex.com"))
        zone.add_record(make_rrset(name("www.ex.com"), RType.A, 300,
                                   [A("192.0.2.2")]).records[0])
        assert len(fast.respond_probe(probe).answers) == 2
        fast.store.add(parse_zone_text(ZONE))
        assert len(fast.respond_probe(probe).answers) == 1


class TestNegativePlan:
    def flood(self, engine: AuthoritativeEngine, n: int = 12) -> None:
        for i in range(n):
            engine.respond(make_query(i + 1, name(f"r{i}.ex.com"), RType.A))

    def test_negative_plan_builds_and_matches_slow_path(self):
        fast = build_engine(plan_cache=True)
        slow = build_engine(plan_cache=False)
        self.flood(fast)
        walks = zone_walks(fast.store.get(name("ex.com")))
        for qname in ("zzz.ex.com", "deep.under.here.ex.com"):
            assert wire(fast, qname, RType.A) == wire(slow, qname, RType.A)
        assert not walks, "flood should have built a negative plan"

    def test_negative_plan_never_claims_existing_names(self):
        fast = build_engine(plan_cache=True)
        slow = build_engine(plan_cache=False)
        self.flood(fast)
        # Names the exact-NXDOMAIN predicate must NOT treat as missing:
        # glue below a cut (referral), wildcard synthesis, and empty
        # non-terminals.
        for qname, qtype in CASES:
            assert wire(fast, qname, qtype) == wire(slow, qname, qtype), \
                (qname, qtype)

    def test_negative_plan_invalidated_by_republish(self):
        fast = build_engine(plan_cache=True)
        self.flood(fast)
        zone = fast.store.get(name("ex.com"))
        new = parse_zone_text(ZONE + "fresh IN A 192.0.2.88\n")
        fast.store.add(new)
        assert zone is not new
        resp = fast.respond(make_query(99, name("fresh.ex.com"), RType.A))
        assert resp.rcode == RCode.NOERROR and resp.answers


class TestInvalidation:
    def test_zone_content_republish_invalidates_plan(self):
        fast = build_engine(plan_cache=True)
        wire(fast, "www.ex.com", RType.TXT)            # cache NODATA
        zone = fast.store.get(name("ex.com"))
        zone.add_rrset(make_rrset(name("www.ex.com"), RType.TXT, 300,
                                  [TXT((b"hello",))]))
        resp = fast.respond(make_query(5, name("www.ex.com"), RType.TXT))
        assert resp.answers, "stale NODATA plan served after version bump"

    def test_zone_replacement_invalidates_plan(self):
        fast = build_engine(plan_cache=True)
        wire(fast, "www.ex.com", RType.A)              # populate
        replaced = parse_zone_text(ZONE.replace("192.0.2.1", "192.0.2.99"))
        fast.store.add(replaced)                       # rollout-style swap
        slow = AuthoritativeEngine(fast.store)
        slow.plan_cache_enabled = False
        assert wire(fast, "www.ex.com", RType.A) == \
            wire(slow, "www.ex.com", RType.A)
        assert bytes([192, 0, 2, 99]) in wire(fast, "www.ex.com", RType.A)

    def test_zone_removal_invalidates_plan(self):
        fast = build_engine(plan_cache=True)
        wire(fast, "www.ex.com", RType.A)              # populate
        fast.store.remove(name("ex.com"))
        resp = fast.respond(make_query(5, name("www.ex.com"), RType.A))
        assert resp.rcode == RCode.REFUSED

    def test_reconfiguration_drops_every_plan(self):
        fast = build_engine(plan_cache=True)
        probe = make_query(1, name("ex.com"), RType.SOA)
        wire(fast, "www.ex.com", RType.A)
        TestNegativePlan().flood(fast)
        fast.respond_probe(probe)
        walks = zone_walks(fast.store.get(name("ex.com")))
        wire(fast, "www.ex.com", RType.A)
        wire(fast, "zzz.ex.com", RType.A)
        fast.respond_probe(probe)
        assert not walks, "plan, negative plan and probe should all hit"
        fast.add_dynamic_domain(name("elsewhere.ex.com"))
        wire(fast, "www.ex.com", RType.A)
        wire(fast, "zzz.ex.com", RType.A)
        fast.respond_probe(probe)
        assert len(walks) == 3

    def test_gtm_provisioning_flushes_plans(self):
        """PR 5-style reconfiguration: adding a dynamic GTM domain after
        init must drop plans cached for what is now a mapping name."""
        class Mapping:
            def answer(self, qname, qtype, client_key):
                return make_rrset(qname, RType.A, 20, [A("203.0.113.9")])

        store = ZoneStore()
        store.add(parse_zone_text(ZONE))
        fast = AuthoritativeEngine(store, mapping=Mapping())
        wire(fast, "www.ex.com", RType.A)              # populate
        assert bytes([192, 0, 2, 1]) in wire(fast, "www.ex.com", RType.A)
        fast.add_dynamic_domain(name("www.ex.com"))
        assert fast.dynamic_domains == (name("www.ex.com"),)
        assert bytes([203, 0, 113, 9]) in wire(fast, "www.ex.com", RType.A)


class TestRolloutInvalidation:
    """The PR 5 rollout/rollback train never serves a stale plan.

    ``install_zone`` (the one guarded install seam) and
    ``rollback_zone`` both land in ``ZoneStore.add``, whose generation
    bump is what invalidates plans — proven here through the real
    machine path rather than by poking the store directly.
    """

    def make_machine(self):
        from repro.filters import QueuePolicy, ScoringPipeline
        from repro.netsim.clock import EventLoop
        from repro.server.machine import MachineConfig, NameserverMachine

        store = ZoneStore()
        store.add(parse_zone_text(ZONE))
        return NameserverMachine(
            EventLoop(), "m1", AuthoritativeEngine(store),
            ScoringPipeline([]), QueuePolicy(),
            MachineConfig(staleness_threshold=float("inf")))

    def test_install_then_rollback_serve_fresh_bytes(self):
        machine = self.make_machine()
        engine = machine.engine
        v1_wire = wire(engine, "www.ex.com", RType.A)   # populate plan
        v2 = parse_zone_text(
            ZONE.replace(" 1 7200", " 2 7200")
                .replace("192.0.2.1", "192.0.2.99"))
        assert machine.install_zone(v2)
        assert bytes([192, 0, 2, 99]) in wire(engine, "www.ex.com", RType.A)
        assert machine.rollback_zone(name("ex.com"))
        assert wire(engine, "www.ex.com", RType.A) == v1_wire


class TestExperimentEquivalence:
    """Cache on/off byte-identical through a full testbed experiment."""

    @staticmethod
    def fig10_point():
        from repro.experiments import fig10_nxdomain
        # One attack rate per capacity region (below compute headroom,
        # between compute and IO headroom, above IO headroom) — the
        # smallest grid the figure's region summaries accept.
        params = fig10_nxdomain.Fig10Params(
            attack_rates=(300.0, 1_500.0, 4_500.0), warmup_seconds=2.0,
            measure_seconds=6.0, n_valid_hosts=60)
        result = fig10_nxdomain.run(params)
        return json.dumps(result.to_dict(include_series=True),
                          sort_keys=True)

    def test_fig10_identical_with_and_without_cache(self, monkeypatch):
        monkeypatch.setattr(AuthoritativeEngine,
                            "plan_cache_enabled", True)
        cached = self.fig10_point()
        monkeypatch.setattr(AuthoritativeEngine,
                            "plan_cache_enabled", False)
        uncached = self.fig10_point()
        assert cached == uncached

    @staticmethod
    def fig3_result():
        from repro.experiments import fig3_per_resolver
        result = fig3_per_resolver.run(seed=42, n_resolvers=2_000)
        return json.dumps(result.to_dict(include_series=True),
                          sort_keys=True)

    def test_fig3_identical_with_and_without_cache(self, monkeypatch):
        monkeypatch.setattr(AuthoritativeEngine,
                            "plan_cache_enabled", True)
        cached = self.fig3_result()
        monkeypatch.setattr(AuthoritativeEngine,
                            "plan_cache_enabled", False)
        uncached = self.fig3_result()
        assert cached == uncached

    def test_runner_pass_identical_with_fast_lane_off(self, monkeypatch):
        """A (small) full runner pass with the plan cache flipped, on
        the machine-heaviest figures (resilience drives real attack
        floods through the respond path)."""
        from repro.experiments import parallel

        monkeypatch.setattr(parallel, "JOB_ORDER", ("fig8", "resilience"))

        def suite():
            return [json.dumps(r.to_dict(include_series=True),
                               sort_keys=True)
                    for r in parallel.run_serial(True)]

        monkeypatch.setattr(AuthoritativeEngine,
                            "plan_cache_enabled", True)
        fast = suite()
        monkeypatch.setattr(AuthoritativeEngine,
                            "plan_cache_enabled", False)
        slow = suite()
        assert fast == slow
