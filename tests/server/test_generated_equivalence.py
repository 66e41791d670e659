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
After every step a plan-cache-on engine must put the same bytes on the
wire as a brand-new plan-cache-off engine over the same store — through
``respond`` twice (populate, then hit) and through ``respond_probe`` —
and the zone's shared ``NxdomainIndex`` must agree with
``Zone.lookup`` on every generated name.
"""

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
from repro.dnscore.zone import LookupStatus, NxdomainIndex
from repro.dnssec.denial import DenialMode
from repro.dnssec.keys import KeyRing
from repro.dnssec.sign import ZoneSigner
from repro.server.engine import AuthoritativeEngine, ZoneStore

ORIGIN = name("ex.com")

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
    """One store served by a long-lived plan-cache-on engine, checked
    against a plan-cache-off engine with no history at all."""

    def __init__(self, spec, signed, compact):
        self.spec = spec
        self.keys = KeyRing(7, ORIGIN)
        self.signer = ZoneSigner(self.keys) if signed else None
        self.compact = compact
        self.clock = 0.0
        self.store = ZoneStore()
        self.fast = self.engine()
        self.install(build(spec))

    def engine(self, dynamic=()):
        engine = AuthoritativeEngine(self.store, mapping=Mapping(),
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
        slow = self.engine(fast.dynamic_domains)
        slow.plan_cache_enabled = False
        # Arm the negative lane where the zone allows it, then ask every
        # question twice (populate, hit) as each EDNS population.
        flood = [(f"flood{i}.zz.ex.com", RType.A) for i in range(9)]
        msg_id = 0
        for qname, qtype in flood + stream + stream:
            for do in (None, False, True):
                msg_id += 1
                edns = None if do is None else EDNSOptions(
                    payload_size=1232, dnssec_ok=do)
                query = make_query(msg_id, name(qname), qtype, edns=edns)
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
                assert index.is_nxdomain(qname.labels) == \
                    (status is LookupStatus.NXDOMAIN), qname


@given(spec=specs,
       stream=st.lists(st.tuples(qname, qtypes), min_size=1, max_size=8),
       ops=st.lists(operation, max_size=6),
       signed=st.booleans(), compact=st.booleans())
@settings(max_examples=100, deadline=None)
def test_plan_cache_on_equals_off_after_every_operation(
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
                assert index.is_nxdomain(qname.labels) == (
                    zone.lookup(qname, qtype).status
                    is LookupStatus.NXDOMAIN), (qname, qtype)
