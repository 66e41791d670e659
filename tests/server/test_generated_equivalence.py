"""Plan cache and name index checked on generated zones, not a fixed
battery.

Hypothesis draws small zones over a deliberately tiny label alphabet
(so wildcards, delegation cuts, glue below cuts, empty non-terminals
and CNAMEs collide with each other and with the query names), a query
stream, and a stream of the operations that invalidate derived state:
installing a new Zone object, replacing the zone by a same-version
twin, editing it in place, re-signing it, adding a dynamic domain, and
installing a child zone under the served one (or removing it again, so
its names re-home to the parent).
After every step a long-lived engine must put the same bytes on the
wire as a brand-new ``AssemblingEngine`` over the same store — through
``respond`` twice (populate, then hit, the second time with RD set and
ECS attached) and through ``respond_probe`` — and the zone's shared
``NxdomainIndex`` must agree with ``Zone.lookup`` on every generated
name.

The planted-defect tests edit the source of the code under test and
want one fixed world's check to fail, so the comparison is known to
look where it claims.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import (
    A,
    CNAME,
    NS,
    SOA,
    TXT,
    EDNSOptions,
    RType,
    ZoneError,
    make_query,
    make_rrset,
    make_zone,
    name,
)
from repro.dnscore.edns import ClientSubnetOption
from repro.dnscore.message import ResponseTemplate
from repro.dnscore.zone import LookupStatus, NxdomainIndex
from repro.dnssec.denial import DenialMode
from repro.dnssec.keys import KeyRing
from repro.dnssec.sign import ZoneSigner
from repro.server.engine import AuthoritativeEngine, ZoneStore, _ZoneServing

from ..oracles import AssemblingEngine, mutated

ORIGIN = name("ex.com")
ECS = ClientSubnetOption.for_client("198.51.100.7")

label = st.sampled_from(["a", "b", "w", "ns", "child"])
owner = st.lists(label, min_size=1, max_size=3).map(".".join)
record = st.one_of(
    st.tuples(st.just("A"), owner),
    st.tuples(st.just("TXT"), owner),
    st.tuples(st.just("WILD"), owner),
    st.tuples(st.just("CUT"), owner),
    st.tuples(st.just("CNAME"), owner, owner),
    st.tuples(st.just("EXT"), owner),
)
specs = st.lists(record, max_size=10)
qname = st.one_of(
    st.lists(label, min_size=1, max_size=4).map(".".join)
    .map(lambda rel: f"{rel}.ex.com"),
    st.sampled_from(["ex.com", "*.w.ex.com", "outside.org"]))
qtypes = st.sampled_from([RType.A, RType.AAAA, RType.TXT, RType.NS,
                          RType.CNAME, RType.SOA])
operation = st.one_of(
    st.tuples(st.just("install"), specs),
    st.tuples(st.just("twin")),
    st.tuples(st.just("edit"), record),
    st.tuples(st.just("remove"), owner),
    st.tuples(st.just("resign")),
    st.tuples(st.just("dynamic"), owner),
    st.tuples(st.just("child"), owner),
)


#: The "twin" of a spec: the same records under rotated leftmost
#: labels — a differently-named zone built in the same number of steps.
ROTATED = {"a": "b", "b": "w", "w": "a", "ns": "child", "child": "ns"}


def add(zone, item, variant=0):
    """Apply one generated record; conflicting ones are skipped, which
    is itself part of the generated shape."""
    kind, rel = item[0], item[1]
    if variant == 1:
        first, _, rest = rel.partition(".")
        rel = ROTATED[first] + ("." + rest if rest else "")
    owner_name = name(f"{rel}.ex.com")
    try:
        if kind == "A":
            zone.add_rrset(make_rrset(owner_name, RType.A, 300,
                                      [A(f"192.0.2.{variant + 1}")]))
        elif kind == "TXT":
            zone.add_rrset(make_rrset(owner_name, RType.TXT, 300,
                                      [TXT((b"v%d" % variant,))]))
        elif kind == "WILD":
            zone.add_rrset(make_rrset(name(f"*.{rel}.ex.com"), RType.A, 300,
                                      [A(f"198.51.100.{variant + 1}")]))
        elif kind == "CUT":
            # In-zone nameserver: its glue sits below the cut.
            target = name(f"ns.{rel}.ex.com")
            zone.add_rrset(make_rrset(owner_name, RType.NS, 300,
                                      [NS(target)]))
            zone.add_rrset(make_rrset(target, RType.A, 300,
                                      [A(f"203.0.113.{variant + 1}")]))
        elif kind == "CNAME":
            zone.add_rrset(make_rrset(owner_name, RType.CNAME, 300,
                                      [CNAME(name(f"{item[2]}.ex.com"))]))
        elif kind == "EXT":
            zone.add_rrset(make_rrset(owner_name, RType.CNAME, 300,
                                      [CNAME(name("target.other.org"))]))
    except ZoneError:
        pass


def build(spec, variant=0):
    zone = make_zone(ORIGIN, SOA(name("ns1.ex.com"), name("admin.ex.com"),
                                 1, 7200, 3600, 1209600, 300),
                     [name("ns1.ex.com")])
    zone.add_rrset(make_rrset(name("ns1.ex.com"), RType.A, 300,
                              [A("192.0.2.53")]))
    for item in spec:
        add(zone, item, variant)
    return zone


class Mapping:
    def answer(self, qname, qtype, client_key):
        if qtype is RType.A:
            return make_rrset(qname, RType.A, 20, [A("203.0.113.200")])
        return None


class World:
    """One store served by a long-lived engine, checked against an
    assembling engine with no history at all."""

    def __init__(self, spec, signed, compact):
        self.spec = spec
        self.keys = KeyRing(7, ORIGIN)
        self.signer = ZoneSigner(self.keys) if signed else None
        self.compact = compact
        self.clock = 0.0
        self.store = ZoneStore()
        self.fast = self.engine()
        self.install(build(spec))

    def engine(self, dynamic=(), cls=AuthoritativeEngine):
        engine = cls(self.store, mapping=Mapping(),
                     dynamic_domains=list(dynamic))
        engine.dnssec.register_keyring(self.keys)
        if self.compact:
            engine.dnssec.denial_mode = DenialMode.COMPACT
        return engine

    def install(self, zone):
        if self.signer is not None:
            self.signer.sign(zone, self.clock)
        self.store.add(zone)

    @property
    def zone(self):
        return self.store.get(ORIGIN)

    def apply(self, op):
        kind = op[0]
        if kind == "install":
            self.spec = op[1]
            self.install(build(self.spec))
        elif kind == "twin":
            # Built by the same steps, so it usually shares the served
            # zone's version — the case a version-only check cannot
            # tell apart from "nothing changed".
            self.install(build(self.spec, variant=1))
        elif kind == "edit":
            add(self.zone, op[1], variant=2)
        elif kind == "remove":
            self.zone.remove_rrset(name(f"{op[1]}.ex.com"), RType.A)
        elif kind == "resign":
            if self.signer is not None:
                self.clock += 10.0
                self.signer.resign(self.zone, self.clock)
        elif kind == "dynamic":
            self.fast.add_dynamic_domain(name(f"{op[1]}.ex.com"))
        elif kind == "child":
            origin = name(f"{op[1]}.ex.com")
            if not self.store.remove(origin):
                child = make_zone(origin, SOA(name("ns1.ex.com"),
                                              name("admin.ex.com"),
                                              1, 7200, 3600, 1209600, 300),
                                  [name("ns1.ex.com")])
                child.add_rrset(make_rrset(name(f"a.{op[1]}.ex.com"),
                                           RType.A, 300, [A("192.0.2.9")]))
                self.store.add(child)

    def check(self, stream):
        fast = self.fast
        slow = self.engine(fast.dynamic_domains, AssemblingEngine)
        # Arm the negative lane where the zone allows it, then ask every
        # question twice (populate, hit) as each EDNS population. The
        # second pass sets RD and attaches ECS, so every hit (a probe's
        # shared reply too) is stamped from a query whose RD and ECS
        # differ from the one its plan was last stamped for.
        flood = [(f"flood{i}.zz.ex.com", RType.A) for i in range(9)]
        first = len(flood + stream)
        msg_id = 0
        for qname, qtype in flood + stream + stream:
            second = msg_id >= 3 * first
            for do in (None, False, True):
                msg_id += 1
                edns = None if do is None else EDNSOptions(
                    payload_size=1232, dnssec_ok=do,
                    client_subnet=ECS if second else None)
                query = make_query(msg_id, name(qname), qtype, rd=second,
                                   edns=edns)
                reference = slow.respond(query).to_wire()
                assert fast.respond(query).to_wire() == reference, \
                    (qname, qtype, do)
                assert fast.respond_probe(query).to_wire() == reference, \
                    (qname, qtype, do, "probe")
        index = self.zone.derived(NxdomainIndex)
        for qname, _ in stream:
            qname = name(qname)
            if qname.is_subdomain_of(ORIGIN):
                status = self.zone.lookup(qname, RType.A).status
                assert index.is_nxdomain(qname) == \
                    (status is LookupStatus.NXDOMAIN), qname


@given(spec=specs,
       stream=st.lists(st.tuples(qname, qtypes), min_size=1, max_size=8),
       ops=st.lists(operation, max_size=6),
       signed=st.booleans(), compact=st.booleans())
@settings(max_examples=100, deadline=None)
def test_plan_cache_equals_assembly_after_every_operation(
        spec, stream, ops, signed, compact):
    world = World(spec, signed, compact)
    world.check(stream)
    for op in ops:
        world.apply(op)
        world.check(stream)


@given(spec=specs, probes=st.lists(qname, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_name_index_agrees_with_lookup(spec, probes):
    zone = build(spec)
    index = zone.derived(NxdomainIndex)
    for qname in map(name, probes):
        if qname.is_subdomain_of(ORIGIN):
            for qtype in (RType.A, RType.NS):
                assert index.is_nxdomain(qname) == (
                    zone.lookup(qname, qtype).status
                    is LookupStatus.NXDOMAIN), (qname, qtype)


#: ``finalize``'s last line as ``mutated`` reads it (dedented): a defect
#: planted before it overwrites one field the plan stamped.
_RETURN = "\n    return response"
_SET_EDNS = "\n    if response.edns is not None:\n        response.edns."

#: (class, method, text planted out, text planted in, operation after
#: the first check or None): each a defect the property above catches.
PLANTED = {
    "stale plan after an in-place edit": (
        _ZoneServing, "live", "self.zone.version == self.version", "True",
        ("edit", ("A", "a"))),
    "plan kept across an origin-set change": (
        _ZoneServing, "live", "self.store.generation == self.generation",
        "True", ("child", "a")),
    "plan kept across a same-origin replacement": (
        _ZoneServing, "live", "self.cell[0] is self.zone", "True",
        ("twin",)),
    "negative lane without the name index": (
        AuthoritativeEngine, "_neg_fast_lane",
        "not serving.index.is_nxdomain(qname)", "False", None),
    "probe hit keeps the RD it was first stamped with": (
        AuthoritativeEngine, "respond_probe",
        "reply.flags.rd = query.flags.rd", "pass", None),
    "plan stamped without the query's RD": (
        ResponseTemplate, "finalize", _RETURN,
        "\n    response.flags.rd = False" + _RETURN, None),
    "plan stamped without its additional section": (
        ResponseTemplate, "finalize",
        "response.additional.extend(self.additional)", "pass", None),
    "plan stamped without the DO echo": (
        ResponseTemplate, "finalize", _RETURN,
        _SET_EDNS + "dnssec_ok = False" + _RETURN, None),
    "plan stamped without the ECS echo": (
        ResponseTemplate, "finalize", _RETURN,
        _SET_EDNS + "client_subnet = None" + _RETURN, None),
}


@pytest.mark.parametrize("defect", PLANTED)
def test_planted_plan_cache_defect_is_caught(monkeypatch, defect):
    owner, method, old, new, op = PLANTED[defect]
    namespace = vars(sys.modules[owner.__module__])
    monkeypatch.setattr(owner, method,
                        mutated(owner, method, old, new, namespace))
    world = World([("A", "a"), ("CUT", "child")], signed=False,
                  compact=False)
    stream = [("a.ex.com", RType.A), ("x.child.ex.com", RType.A)]
    with pytest.raises(AssertionError):
        world.check(stream)
        if op is not None:
            world.apply(op)
            world.check(stream)
