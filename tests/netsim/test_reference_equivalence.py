"""The per-session BGP tables and the derived link view against the code
they replaced (``reference.py``, the parent commit's, verbatim).

Each drawn world — Gao-Rexford relations by tier, mixed MRAI, several
origins per prefix, hosts on access links — is built twice and driven by
one drawn schedule of originate / withdraw / session resets / export
blocks / link cuts / link degradation / datagrams from hosts and from
routers / races (a datagram, and a change at its ingress router while it
is still on its way there). Everything observable
must match exactly: every BGP update as ``(time, receiver, peer, prefix,
path, med)``, best routes, counters, delivered datagrams,
``NetworkStats``, the shared RNG's final state, and — at several points
in the run — every FIB (routers program theirs with drawn delays) and
the unicast latency of every node pair as bit-equal floats. Events
processed differ by design and by an exact amount: the reference's
``send`` (the one from before the trip was planned there) spends one
event per datagram on the access-link leg, which ``Network.send`` folds
into the delivery event of every datagram with a clean route that no
change catches on that leg.

The mutation tests edit the source of the code under test and want
the comparison to fail, so the oracle is known to look where it claims.
"""

import inspect
import random
import textwrap
from dataclasses import asdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim import (
    Datagram,
    EventLoop,
    GeoPoint,
    LinkRelation,
    Network,
    Node,
    NodeKind,
    Topology,
)
from repro.netsim import bgp as bgp_module
from repro.netsim import network as network_module
from repro.netsim.bgp import LOCAL, BGPSpeaker
from repro.netsim.topology import Link

from .reference import BGPSpeaker as ReferenceSpeaker
from .reference import ReferenceNetwork

PREFIXES = ("p0", "p1")
END_OF_RUN = 90.0


def draw_world(rnd) -> dict:
    """Routers in tiers (links go provider->customer between tiers,
    peer within one), host leaves, per-router MRAI, and a schedule."""
    n_routers = rnd.randint(3, 9)
    tiers = [0] + [rnd.randint(0, 2) for _ in range(n_routers - 1)]
    links = []
    for b in range(1, n_routers):
        # Connected: every router links to an earlier one.
        pairs = {(rnd.randrange(b), b)}
        pairs.update((a, b) for a in range(b) if rnd.random() < 0.4)
        for a, b_ in sorted(pairs):
            if tiers[a] == tiers[b_]:
                relation = LinkRelation.PEER
            elif tiers[a] < tiers[b_]:
                relation = LinkRelation.CUSTOMER
            else:
                relation = LinkRelation.PROVIDER
            # Awkward fractions, so float addition order is visible.
            links.append((f"r{a}", f"r{b_}", relation,
                          rnd.choice((0.3, 1.1, 2.7, 5.3, 11.9))
                          + rnd.randrange(10) / 7.0))
    hosts = [(f"h{i}", f"r{rnd.randrange(n_routers)}",
              rnd.choice((0.1, 0.7, 1.3)) + rnd.randrange(10) / 3.0)
             for i in range(rnd.randint(2, 4))]
    mrai = [rnd.choice((0.0, 0.0, 0.0, 2.0, 5.0)) for _ in range(n_routers)]
    fib_delay = [rnd.choice((0.0, 0.0, 1.5, 4.0)) for _ in range(n_routers)]
    routers = [f"r{i}" for i in range(n_routers)]
    router_links = [(a, b) for a, b, _r, _l in links]
    all_links = router_links + [(h, r) for h, r, _l in hosts]
    host_ids = [h for h, _r, _l in hosts]

    def event():
        # A coarse grid, so events collide on one instant.
        at = rnd.randrange(1, 120) / 2.0
        kind = rnd.choice(("originate", "originate", "withdraw", "withdraw",
                           "reset", "reset", "block", "link", "link",
                           "degrade", "send", "send", "send_router", "race",
                           "race", "snapshot"))
        if kind == "originate":
            return (at, kind, rnd.choice(routers), rnd.choice(PREFIXES),
                    rnd.choice((0, 0, 10)))
        if kind == "withdraw":
            return (at, kind, rnd.choice(routers), rnd.choice(PREFIXES))
        if kind == "reset":
            return (at, kind, *rnd.choice(router_links), rnd.random() < 0.5)
        if kind == "block":
            a, b = rnd.choice(router_links)
            return (at, kind, a, b, rnd.choice(PREFIXES), rnd.random() < 0.6)
        if kind == "link":
            return (at, kind, *rnd.choice(all_links), rnd.random() < 0.5)
        if kind == "degrade":
            return (at, kind, *rnd.choice(all_links),
                    rnd.choice((0.0, 0.5, 0.5)), rnd.choice((0.0, 3.3, 40.1)))
        if kind == "send":
            return (at, kind, rnd.choice(host_ids),
                    rnd.choice(host_ids + list(PREFIXES)))
        if kind == "send_router":
            return (at, kind, rnd.choice(routers), rnd.choice(PREFIXES))
        if kind == "race":
            # ``lead``: how far along its access link the datagram is when
            # the change lands (1.0: exactly as it reaches the router;
            # None: in the sending event itself). A router's lead is zero.
            return (at, kind, rnd.choice(host_ids + routers),
                    rnd.choice(PREFIXES), rnd.choice((None, 0.0, 0.5, 1.0, 1.0)),
                    rnd.choice(("fib", "fib", "link", "degrade", "local")),
                    rnd.random() < 0.5)
        return (at, kind)

    # Every prefix starts out originated somewhere, so the drawn events
    # act on populated RIBs.
    schedule = [(0.5, "originate", router, prefix, 0)
                for prefix in PREFIXES
                for router in rnd.sample(routers, rnd.randint(1, 3))]
    schedule += sorted((event() for _ in range(rnd.randint(5, 60))),
                       key=lambda e: e[0])
    return {"tiers": tiers, "links": links, "hosts": hosts, "mrai": mrai,
            "fib_delay": fib_delay, "schedule": schedule, "seed": rnd.randrange(1 << 30)}


def run_world(world: dict, network_cls, speaker_cls) -> dict:
    topology = Topology()
    for i, _tier in enumerate(world["tiers"]):
        topology.add_node(Node(f"r{i}", 100 + i, NodeKind.TRANSIT,
                               GeoPoint(0, i)))
    for a, b, relation, latency in world["links"]:
        topology.add_link(Link(a, b, latency, relation))
    for host, router, latency in world["hosts"]:
        topology.add_node(Node(host, 900, NodeKind.HOST, GeoPoint(1, 1)))
        topology.add_link(Link(host, router, latency, LinkRelation.ACCESS))
    loop = EventLoop()
    rng = random.Random(world["seed"])
    net = network_cls(loop, topology, rng)
    net.build_speakers(
        mrai_for=lambda node_id: world["mrai"][int(node_id[1:])])
    net.fib_delay_for = lambda node_id: world["fib_delay"][int(node_id[1:])]
    seen = {"updates": [], "deliveries": [], "snapshots": []}

    receive = speaker_cls.receive_update

    def logged(self, from_peer, prefix, path, med):
        seen["updates"].append((self.loop.now, self.node_id, from_peer,
                                prefix, path, med))
        receive(self, from_peer, prefix, path, med)

    class Sink:
        def __init__(self, host):
            self.host = host

        def handle_datagram(self, dgram):
            seen["deliveries"].append((loop.now, self.host, dgram.payload))

    for host, _router, _latency in world["hosts"]:
        net.attach_endpoint(host, Sink(host))
    nodes = [n.node_id for n in topology.nodes()]
    originated = set()

    # Datagrams whose access-link leg cost no event: planned by ``send``
    # and not put back on the loop by a change that caught them there.
    folded = [0]
    fast_forward, rewind = net._fast_forward, loop.rewind

    def counting_fast_forward(route, dgram, start, ingress=None):
        folded[0] += ingress is not None
        fast_forward(route, dgram, start, ingress)

    def counting_rewind(*args):
        put_back = rewind(*args)
        folded[0] -= put_back
        return put_back

    net._fast_forward = counting_fast_forward
    loop.rewind = counting_rewind

    def deliver_at(router):
        return lambda d: seen["deliveries"].append((loop.now, router, d.hops))

    def race(src, prefix, lead, change, flag):
        if src in net.speakers():
            ingress, delay = src, 0.0
        else:
            ingress = topology.attachment_router(src)
            delay = (topology.link(src, ingress).latency_ms / 1000.0
                     + net.link_degradation(src, ingress)[1] / 1000.0)
        next_hop = net.fib_entry(ingress, prefix)
        far = next_hop if next_hop in net.speakers() else \
            topology.bgp_neighbors(ingress)[0]

        def strike():
            if change == "fib":
                net.set_fib(ingress, prefix, far if flag else None)
            elif change == "link":
                net.set_link_up(ingress, far, not net.link_is_up(ingress, far))
            elif change == "degrade":
                net.set_link_degraded(ingress, far, loss=0.5 if flag else 0.0,
                                      extra_latency_ms=3.3)
            else:
                net.register_local_delivery(ingress, prefix,
                                            deliver_at(ingress))
                net.set_fib(ingress, prefix, LOCAL)

        # Scheduled before the send, so a strike due at the very instant
        # of arrival precedes the arrival in both networks.
        if lead is not None:
            loop.call_at(loop.now + delay * lead, strike)
        net.send(Datagram(src=src, dst=prefix,
                          payload=len(seen["deliveries"])))
        if lead is None:
            strike()

    def snapshot():
        seen["snapshots"].append((
            {src: {dst: net.unicast_latency(src, dst) for dst in nodes}
             for src in nodes},
            {r: {p: net.fib_entry(r, p) for p in PREFIXES}
             for r in net.speakers()}))

    def apply(event):
        kind = event[1]
        if kind == "originate":
            _at, _kind, router, prefix, med = event
            if (router, prefix) not in originated:
                originated.add((router, prefix))
                net.register_local_delivery(router, prefix,
                                            deliver_at(router))
            net.speaker(router).originate(prefix, med)
        elif kind == "withdraw":
            net.speaker(event[2]).withdraw_origin(event[3])
        elif kind == "reset":
            _at, _kind, a, b, up = event
            for near, far in ((a, b), (b, a)):
                if up:
                    net.speaker(near).session_up(far)
                else:
                    net.speaker(near).session_down(far)
        elif kind == "block":
            _at, _kind, a, b, prefix, blocked = event
            net.speaker(a).set_export_blocked(b, prefix, blocked)
        elif kind == "link":
            net.set_link_up(event[2], event[3], event[4])
        elif kind == "degrade":
            net.set_link_degraded(event[2], event[3], loss=event[4],
                                  extra_latency_ms=event[5])
        elif kind in ("send", "send_router"):
            net.send(Datagram(src=event[2], dst=event[3],
                              payload=len(seen["deliveries"])))
        elif kind == "race":
            race(*event[2:])
        else:
            snapshot()

    speaker_cls.receive_update = logged
    try:
        for event in world["schedule"]:
            loop.call_at(event[0], apply, event)
        loop.run_until(END_OF_RUN)
        snapshot()
    finally:
        speaker_cls.receive_update = receive
    speakers = net.speakers()
    return {
        **seen,
        "best": {r: {p: s.best_route(p) for p in PREFIXES}
                 for r, s in speakers.items()},
        "sessions": {r: {peer: s.session_is_up(peer)
                         for peer in topology.bgp_neighbors(r)}
                     for r, s in speakers.items()},
        "counters": {r: (s.updates_sent, s.updates_received)
                     for r, s in speakers.items()},
        "stats": asdict(net.stats),
        "rng": rng.getstate(),
        # What the run would have processed had no leg been folded.
        "events": loop.events_processed + folded[0],
        "folded": folded[0],
    }


def differing(world: dict) -> list[str]:
    """The observables on which the code under test and the reference
    disagree (``folded`` is the reference's zero by construction)."""
    got = run_world(world, Network, BGPSpeaker)
    want = run_world(world, ReferenceNetwork, ReferenceSpeaker)
    assert want.pop("folded") == 0
    return [key for key in want if got[key] != want[key]]


def assert_matches_reference(world: dict) -> None:
    assert differing(world) == []


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_drawn_worlds_match_the_reference(rnd):
    assert_matches_reference(draw_world(rnd))


def test_fixed_worlds_match_the_reference():
    for seed in range(40):
        assert_matches_reference(draw_world(random.Random(seed)))


def mutated(owner, name: str, old: str, new: str, namespace: dict):
    """``owner.name`` recompiled with ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, f"{name} no longer contains {old!r}"
    scope = dict(namespace)
    exec(source.replace(old, new), scope)
    return scope[name]


def some_fixed_world_differs() -> bool:
    for seed in range(40):
        try:
            assert_matches_reference(draw_world(random.Random(seed)))
        except AssertionError:
            return True
    return False


def test_dropping_the_split_horizon_retract_is_caught(monkeypatch):
    monkeypatch.setattr(BGPSpeaker, "_decide", mutated(
        BGPSpeaker, "_decide",
        "peer_id != next_hop or prefix in session.rib_out",
        "peer_id != next_hop", vars(bgp_module)))
    assert some_fixed_world_differs()


def test_presumming_an_edge_cost_is_caught(monkeypatch):
    monkeypatch.setattr(Network, "_dijkstra", mutated(
        Network, "_dijkstra",
        "dist + base + HOP_COST_S + extra",
        "dist + (base + HOP_COST_S + extra)", vars(network_module)))
    assert some_fixed_world_differs()


def test_skipping_the_rescan_is_caught(monkeypatch):
    # Comparing with the installed best alone is wrong once the best's
    # own source re-announces something worse, or withdraws.
    monkeypatch.setattr(BGPSpeaker, "_decide", mutated(
        BGPSpeaker, "_decide",
        "old_best is not None and old_best.next_hop == source", "False",
        vars(bgp_module)))
    assert some_fixed_world_differs()


def test_ignoring_the_lead_is_caught(monkeypatch):
    # A datagram a change catches on its access link has not been
    # forwarded by its ingress router yet; treating it as if it had
    # must show in what is delivered, not only in the event count.
    monkeypatch.setattr(Network, "_bump_route_epoch", mutated(
        Network, "_bump_route_epoch",
        "flight.ingress is not None and self.loop.rewind(", "False and (",
        vars(network_module)))
    assert any(set(differing(draw_world(random.Random(seed)))) - {"events"}
               for seed in range(40))
