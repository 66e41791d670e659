"""The assembled internetwork: forwarding plane plus BGP control plane.

Two delivery modes mirror what matters in the experiments:

* **Anycast destinations** are forwarded hop-by-hop through each router's
  live FIB. During BGP convergence, FIBs diverge — packets loop until the
  IP TTL hits zero or a router has no route, exactly the failure mode the
  paper measures for prefix withdrawals.
* **Unicast destinations** (vantage points, resolvers, machine addresses)
  ride precomputed shortest paths: the reverse path is stable in the
  paper's experiments, so simulating it hop-by-hop would add cost without
  adding fidelity.

A third mode accelerates the first without changing its semantics: when
every FIB along a datagram's path is quiescent and no link on it is
lossy, capacity-limited, or degraded, the **route cache** resolves the
full path once per (ingress router, prefix) and schedules a single
delivery event instead of one event per hop. Any FIB or link-state
change bumps a global epoch, drops the cached routes it can reach (a
FIB or delivery change for a prefix: that prefix's; a link change:
all), and re-materializes in-flight fast-path datagrams back onto exact
hop-by-hop forwarding at the next router they would have reached — so
drop semantics, RNG draw order, and :class:`NetworkStats` stay
bit-for-bit identical to the pure hop-by-hop execution (see
docs/ARCHITECTURE.md, "Performance model").
"""

from __future__ import annotations

import heapq
import random
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Protocol

from ..telemetry import state as _telemetry
from .bgp import LOCAL, BGPSpeaker
from .clock import EventHandle, EventLoop
from .packet import Datagram
from .topology import Link, NodeKind, Topology, link_key

#: Per-hop forwarding/serialization cost in seconds.
HOP_COST_S = 0.00005

#: Shared empty FIB table so per-hop misses never allocate.
_EMPTY_FIB: dict[str, str] = {}

#: Read on every send; an Enum member read off its class is a metaclass
#: attribute lookup per use.
_HOST = NodeKind.HOST

#: Route-cache paths longer than this are assumed to loop (no sane
#: converged FIB path approaches it) and fall back to hop-by-hop
#: forwarding, which owns the TTL-expiry semantics.
_MAX_CACHED_HOPS = 64


class Endpoint(Protocol):
    """Anything that can receive datagrams at a host node."""

    def handle_datagram(self, dgram: Datagram) -> None:
        """Process an arriving datagram."""


LocalDeliveryHandler = Callable[[Datagram], None]


@dataclass(slots=True)
class NetworkStats:
    """Counters the experiments read after a run."""

    delivered: int = 0
    dropped_no_route: int = 0
    dropped_ttl_expired: int = 0
    dropped_unreachable: int = 0
    dropped_congestion: int = 0
    dropped_loss: int = 0
    hops_total: int = 0

    def dropped(self) -> int:
        return (self.dropped_no_route + self.dropped_ttl_expired
                + self.dropped_unreachable + self.dropped_congestion
                + self.dropped_loss)


@dataclass(slots=True)
class _LinkState:
    """Mutable per-link state: admin status, degradation, congestion."""

    up: bool = True
    tokens: float = 0.0
    last_refill: float = 0.0
    #: Probability a datagram crossing the link is lost (soft failure).
    loss: float = 0.0
    #: Added one-way latency over the degraded link, milliseconds.
    extra_latency_ms: float = 0.0


#: The state of a link nothing has ever been done to.
_PLAIN_LINK = _LinkState()


class _Edge(NamedTuple):
    """One live link, from one end, as the data plane reads it."""

    peer: str
    #: One-way latency in seconds, base and degradation apart: a path
    #: cost is a chain of float additions; a pre-summed edge rounds off.
    base: float
    extra: float
    loss: float
    link: Link


class _LinkView:
    """What the data plane reads off one topology version and one link
    state, resolved per node on first use instead of per packet or edge
    relaxation. :class:`Network` drops the whole object when the topology
    moves, and when a link's state moves, that link's two ends' edge maps
    and every distance table (a link on one source's tree is on most).
    """

    def __init__(self, version: int) -> None:
        self.version = version
        #: node -> neighbor -> edge, live links only, in adjacency order
        self.edges: dict[str, dict[str, _Edge]] = {}
        #: source -> node -> one-way shortest-path latency
        self.distances: dict[str, dict[str, float]] = {}


@dataclass(slots=True)
class _CachedRoute:
    """A fully resolved FIB path for one (ingress router, prefix).

    ``hops`` are the forwarding routers in order (ingress first);
    ``delays`` the per-link delay leaving each of them. Delays are kept
    per hop, not pre-summed: the slow path advances time by sequential
    float addition and ``(t + d0) + d1`` is not ``t + (d0 + d1)``, so
    the fast path folds the same sequence to land on the identical
    delivery timestamp bit for bit.
    """

    hops: tuple[str, ...]
    delays: tuple[float, ...]
    dest_router: str
    handler: LocalDeliveryHandler


@dataclass(slots=True)
class _InFlight:
    """A fast-path datagram between entering the path and delivery."""

    dgram: Datagram
    route: _CachedRoute
    #: When the datagram reaches (or reached) ``route.hops[0]``.
    start: float
    handle: EventHandle
    #: That router, if ``send`` planned the flight (FIB read at ``start``).
    ingress: str | None = None


class Network:
    """Couples a topology with BGP speakers, FIBs, and packet delivery."""

    def __init__(self, loop: EventLoop, topology: Topology,
                 rng: random.Random) -> None:
        self.loop = loop
        self.topology = topology
        self.rng = rng
        self._speakers: dict[str, BGPSpeaker] = {}
        #: router -> prefix -> next hop router id (or LOCAL)
        self._fib: dict[str, dict[str, str]] = {}
        #: router -> prefix -> local delivery handler
        self._local_delivery: dict[tuple[str, str], LocalDeliveryHandler] = {}
        self._endpoints: dict[str, Endpoint] = {}
        self._link_view: _LinkView | None = None
        self._link_state: dict[tuple[str, str], _LinkState] = {}
        self.stats = NetworkStats()
        #: Optional per-router FIB programming delay (seconds). Real
        #: routers take time to sync RIB decisions into the forwarding
        #: plane, and under churn some take many seconds — the cause of
        #: transient blackholes and loops after BGP has "converged",
        #: and of the withdrawal-timeout tail in paper Figure 8.
        self.fib_delay_for: Callable[[str], float] | None = None
        #: The RIB->FIB queue, per (router, prefix): the newest change's
        #: version and the time it applies at. Empty until a change is
        #: programmed with a delay function installed.
        self._fib_version: dict[tuple[str, str], int] = {}
        self._fib_floor: dict[tuple[str, str], float] = {}
        # -- route cache state ------------------------------------------
        #: Bumped on every FIB, delivery-handler or link-state change;
        #: counts the hand-backs of in-flight fast-path datagrams.
        self.route_epoch = 0
        #: prefix -> ingress router -> _CachedRoute, or None when the
        #: path is ineligible (churning, lossy, capacity-limited, ...).
        #: A walk toward a prefix reads only that prefix's FIB entries
        #: and delivery handlers, and the link view.
        self._route_cache: dict[str, dict[str, _CachedRoute | None]] = {}
        self._route_cache_topo_version = -1
        self._inflight: dict[int, _InFlight] = {}
        self._inflight_seq = 0
        _t = _telemetry.ACTIVE
        if _t is not None:
            _t.register_stats("network", lambda: asdict(self.stats))

    # -- control plane ------------------------------------------------------

    def build_speakers(self, *, mrai_for: Callable[[str], float] | None = None
                       ) -> None:
        """Instantiate one BGP speaker per router node.

        ``mrai_for`` maps router id -> MRAI seconds, letting experiments
        give a fraction of the transit core slow advertisement timers.
        """
        for node in self.topology.routers():
            mrai = mrai_for(node.node_id) if mrai_for else 0.0
            self._speakers[node.node_id] = BGPSpeaker(
                self, node.node_id, node.asn, self.rng, mrai=mrai)

    def speaker(self, node_id: str) -> BGPSpeaker:
        return self._speakers[node_id]

    def speakers(self) -> dict[str, BGPSpeaker]:
        return dict(self._speakers)

    def set_fib(self, router_id: str, prefix: str,
                next_hop: str | None, *, churn: bool = False) -> None:
        """Install or remove the FIB entry for (router, prefix).

        ``churn`` marks withdrawal-driven changes: only those pay the
        router's FIB programming delay (RIB->FIB sync backs up under
        update bursts), applied such that out-of-order completions are
        dropped and the newest decision always wins. Until a change
        comes with a delay function installed there is no queue: each
        change is programmed in place, and no version or floor is kept.
        """
        if self.fib_delay_for is None and not self._fib_version:
            self._apply_fib(router_id, prefix, next_hop)
            return
        delay = (self.fib_delay_for(router_id)
                 if self.fib_delay_for is not None and churn else 0.0)
        key = (router_id, prefix)
        version = self._fib_version.get(key, 0) + 1
        self._fib_version[key] = version
        now = self.loop.now
        # The RIB->FIB queue is FIFO: a change cannot be programmed
        # before changes issued earlier for the same entry.
        apply_at = max(now + delay, self._fib_floor.get(key, 0.0))
        self._fib_floor[key] = apply_at
        if apply_at <= now:
            self._apply_fib(router_id, prefix, next_hop, version)
            return
        self.loop.call_at(apply_at, self._apply_fib,
                          router_id, prefix, next_hop, version)

    def _apply_fib(self, router_id: str, prefix: str,
                   next_hop: str | None, version: int | None = None) -> None:
        if version is not None \
                and self._fib_version.get((router_id, prefix)) != version:
            return
        table = self._fib.get(router_id)
        if table is None:
            table = self._fib[router_id] = {}
        if next_hop is None:
            if table.pop(prefix, None) is not None:
                self._bump_route_epoch(prefix)
        elif table.get(prefix) != next_hop:
            table[prefix] = next_hop
            self._bump_route_epoch(prefix)

    def fib_entry(self, router_id: str, prefix: str) -> str | None:
        return self._fib.get(router_id, _EMPTY_FIB).get(prefix)

    def register_local_delivery(self, router_id: str, prefix: str,
                                handler: LocalDeliveryHandler) -> None:
        """Route packets for ``prefix`` that terminate at ``router_id``."""
        self._local_delivery[(router_id, prefix)] = handler
        self._bump_route_epoch(prefix)

    # -- failure injection ----------------------------------------------------

    def set_link_up(self, a: str, b: str, up: bool) -> None:
        """Administratively fail or restore a link (connectivity faults).

        A BGP session riding the link fails with it: both speakers drop
        the routes learned over the session (triggering withdrawal and
        reconvergence) and re-advertise their tables on restore, so a
        downed link behaves like a real fiber cut rather than a silent
        packet sink.
        """
        key = link_key(a, b)
        self.topology.link(a, b)  # raises KeyError if absent
        state = self._link_state.setdefault(key, _LinkState())
        if state.up == up:
            return
        state.up = up
        self._link_changed(a, b)
        self._bump_route_epoch()
        speaker_a = self._speakers.get(a)
        speaker_b = self._speakers.get(b)
        if speaker_a is not None and speaker_b is not None:
            if up:
                speaker_a.session_up(b)
                speaker_b.session_up(a)
            else:
                speaker_a.session_down(b)
                speaker_b.session_down(a)

    def link_is_up(self, a: str, b: str) -> bool:
        return self._link_state.get(link_key(a, b), _PLAIN_LINK).up

    def set_link_degraded(self, a: str, b: str, *, loss: float = 0.0,
                          extra_latency_ms: float = 0.0) -> None:
        """Soft-fail a link: probabilistic loss and/or added latency.

        Unlike :meth:`set_link_up`, the BGP session survives — this is
        the gray-failure regime (lossy optics, overloaded line cards)
        where routing looks healthy while the data plane degrades.

        Loss applies per hop to FIB-forwarded (anycast) traffic and at
        either endpoint's access link for unicast delivery; unicast
        transit hops are latency-aggregated, so only added latency (not
        loss) on a transit link is visible to unicast flows.
        """
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {loss}")
        if extra_latency_ms < 0.0:
            raise ValueError("extra_latency_ms must be >= 0")
        key = link_key(a, b)
        self.topology.link(a, b)  # raises KeyError if absent
        state = self._link_state.setdefault(key, _LinkState())
        state.loss = loss
        state.extra_latency_ms = extra_latency_ms
        # Added latency changes shortest paths.
        self._link_changed(a, b)
        self._bump_route_epoch()

    def link_degradation(self, a: str, b: str) -> tuple[float, float]:
        """(loss probability, extra latency ms) currently on a link."""
        state = self._link_state.get(link_key(a, b), _PLAIN_LINK)
        return state.loss, state.extra_latency_ms

    def _link_admit(self, link) -> bool:
        """Token bucket over a capacity-limited link."""
        if link.capacity_pps is None:
            return True
        key = link_key(link.a, link.b)
        burst = link.capacity_pps * 0.05
        state = self._link_state.get(key)
        if state is None:
            state = _LinkState(tokens=burst, last_refill=self.loop.now)
            self._link_state[key] = state
        elapsed = self.loop.now - state.last_refill
        state.last_refill = self.loop.now
        state.tokens = min(burst,
                           state.tokens + elapsed * link.capacity_pps)
        if state.tokens >= 1.0:
            state.tokens -= 1.0
            return True
        return False

    # -- data plane ---------------------------------------------------------

    def attach_endpoint(self, host_id: str, endpoint: Endpoint) -> None:
        """Bind a host node's address to a datagram handler."""
        if self.topology.node(host_id).kind != NodeKind.HOST:
            raise ValueError(f"{host_id} is not a host node")
        self._endpoints[host_id] = endpoint

    def send(self, dgram: Datagram) -> None:
        """Inject a datagram from its source host into the network."""
        if self.topology.node(dgram.src).kind is _HOST:
            access = self._access_edge(dgram.src)
            if access is None:
                self.stats.dropped_unreachable += 1
                return
            if access.loss > 0.0 and self.rng.random() < access.loss:
                self.stats.dropped_loss += 1
                return
            first_router = access.peer
            delay = access.base + access.extra
        else:
            first_router = dgram.src
            delay = 0.0
        if dgram.dst in self._endpoints:
            self._deliver_unicast(dgram)
            return
        # Plan the whole trip: the access-link leg folds into the
        # delivery event (_bump_route_epoch unfolds it if need be).
        route = self._route_lookup(first_router, dgram.dst)
        if route is not None and 0 < len(route.hops) < dgram.ip_ttl:
            self._fast_forward(route, dgram, self.loop.now + delay,
                               first_router)
            return
        self.loop.call_later(delay, self._forward, first_router, dgram)

    def _forward(self, router_id: str, dgram: Datagram) -> None:
        """One hop of FIB forwarding for an anycast destination.

        The route cache intercepts here — at the same instant the slow
        path would consult this router's FIB — so both paths sample
        identical forwarding state.
        """
        route = self._route_lookup(router_id, dgram.dst)
        if route is not None and dgram.ip_ttl > len(route.hops):
            self._fast_forward(route, dgram, self.loop.now)
            return
        handler = self._local_delivery.get((router_id, dgram.dst))
        next_hop = self._fib.get(router_id, _EMPTY_FIB).get(dgram.dst)
        if next_hop == LOCAL and handler is not None:
            self.stats.delivered += 1
            self.stats.hops_total += len(dgram.hops)
            self._trace_delivery(dgram, self.loop.now, len(dgram.hops))
            handler(dgram.decremented(router_id))
            return
        if next_hop is None or next_hop == LOCAL:
            self.stats.dropped_no_route += 1
            return
        if dgram.ip_ttl <= 1:
            self.stats.dropped_ttl_expired += 1
            return
        edge = self._edges(self._view(), router_id).get(next_hop)
        if edge is None:        # the link is down
            self.stats.dropped_no_route += 1
            return
        if not self._link_admit(edge.link):
            self.stats.dropped_congestion += 1
            return
        if edge.loss > 0.0 and self.rng.random() < edge.loss:
            self.stats.dropped_loss += 1
            return
        delay = edge.base + HOP_COST_S + edge.extra
        self.loop.call_later(delay, self._forward,
                             next_hop, dgram.decremented(router_id))

    # -- route cache (fast path) ---------------------------------------------

    def _bump_route_epoch(self, prefix: str | None = None) -> None:
        """A change to ``prefix``'s FIB entries or delivery handlers, or
        (``prefix`` None) to the link state: drop the cached routes it
        can reach, that prefix's or all, and hand every in-flight
        fast-path datagram back to exact hop-by-hop forwarding at the
        next router it would have reached, its ingress included. Every
        flight, whatever its prefix: which ones go back decides the
        events and their order, so the simulation with them."""
        self.route_epoch += 1
        if prefix is None:
            self._route_cache.clear()
        else:
            self._route_cache.pop(prefix, None)
        if self._inflight:
            inflight, self._inflight = self._inflight, {}
            now = self.loop.now
            call_at = self.loop.call_at
            for flight in inflight.values():
                route = flight.route
                dgram = flight.dgram
                hops = flight.route.hops
                t = flight.start
                if flight.ingress is not None and self.loop.rewind(
                        flight.handle, t, self._forward, flight.ingress,
                        dgram):
                    continue    # its ingress router's FIB read is back
                self.loop.cancel(flight.handle)
                # Arrival times fold the per-hop delays exactly as the
                # slow path would have; the first arrival strictly after
                # the change resumes hop-by-hop from that router.
                resumed = False
                for j, delay in enumerate(route.delays):
                    t = t + delay
                    if t > now:
                        moved = Datagram(
                            dgram.src, dgram.dst, dgram.payload,
                            dgram.src_port, dgram.dst_port,
                            dgram.ip_ttl - (j + 1), dgram.hops + hops[:j + 1])
                        target = (hops[j + 1] if j + 1 < len(hops)
                                  else route.dest_router)
                        call_at(t, self._forward, target, moved)
                        resumed = True
                        break
                if not resumed:
                    # Every arrival, including the delivery router's, is
                    # in the past or at this instant: the delivery event
                    # itself was due now — deliver through _forward so a
                    # same-instant FIB change is still honoured.
                    moved = Datagram(
                        dgram.src, dgram.dst, dgram.payload, dgram.src_port,
                        dgram.dst_port, dgram.ip_ttl - len(hops),
                        dgram.hops + hops)
                    call_at(max(t, now), self._forward,
                            route.dest_router, moved)

    def _route_lookup(self, router_id: str,
                      dst: str) -> _CachedRoute | None:
        if self._route_cache_topo_version != self.topology.version:
            self._route_cache.clear()
            self._route_cache_topo_version = self.topology.version
        cache = self._route_cache
        try:
            return cache[dst][router_id]
        except KeyError:
            routes = cache.get(dst)
            if routes is None:
                routes = cache[dst] = {}
            route = routes[router_id] = self._resolve_route(router_id, dst)
            return route

    def _resolve_route(self, router_id: str,
                       dst: str) -> _CachedRoute | None:
        """Walk the current FIBs from ``router_id`` toward ``dst``.

        Returns None — meaning "take the slow path" — whenever any hop
        could drop, delay, or randomize: down/lossy/degraded links,
        capacity-limited links (token buckets draw admission state),
        missing routes, or loops. The slow path owns all of those
        semantics; the fast path only ever accelerates clean delivery.
        """
        hops: list[str] = []
        delays: list[float] = []
        fib = self._fib
        view = self._view()
        current = router_id
        while True:
            next_hop = fib.get(current, _EMPTY_FIB).get(dst)
            if next_hop == LOCAL:
                handler = self._local_delivery.get((current, dst))
                if handler is None:
                    return None
                return _CachedRoute(tuple(hops), tuple(delays),
                                    current, handler)
            if next_hop is None:
                return None
            edge = self._edges(view, current).get(next_hop)
            if edge is None or edge.loss > 0.0 or edge.extra > 0.0 \
                    or edge.link.capacity_pps is not None:
                return None
            hops.append(current)
            if len(hops) > _MAX_CACHED_HOPS:
                return None
            delays.append(edge.base + HOP_COST_S)
            current = next_hop

    def _fast_forward(self, route: _CachedRoute, dgram: Datagram,
                      start: float, ingress: str | None = None) -> None:
        """Schedule the one delivery event of a path entered at ``start``."""
        if not route.hops:
            # Delivered at the ingress router itself — same instant and
            # side effects as the slow path's local-delivery branch.
            self._deliver_fast(route, dgram)
            return
        t = start
        for delay in route.delays:
            t = t + delay
        self._inflight_seq = flight_id = self._inflight_seq + 1
        # One heap entry per flight, which EventLoop.rewind can move.
        handle = self.loop.call_at(t, self._fast_delivery_due, flight_id)
        self._inflight[flight_id] = _InFlight(dgram, route, start, handle,
                                              ingress)

    def _fast_delivery_due(self, flight_id: int) -> None:
        flight = self._inflight.pop(flight_id)
        self._deliver_fast(flight.route, flight.dgram)

    def _trace_delivery(self, dgram: Datagram, at: float,
                        hops: int) -> None:
        """Instant trace event for a sampled datagram reaching its PoP.

        Purely observational: reads the payload's trace context (if any)
        and records a marker; never touches forwarding state.
        """
        span = getattr(dgram.payload, "trace", None)
        if span is not None:
            _telemetry.instant(span, "net.delivered", "net", at,
                               dst=dgram.dst, hops=hops)

    def _deliver_fast(self, route: _CachedRoute, dgram: Datagram) -> None:
        hops = route.hops
        travelled = len(dgram.hops) + len(hops)
        stats = self.stats
        stats.delivered += 1
        stats.hops_total += travelled
        # _trace_delivery's test inline (here and for unicast): one
        # delivery per packet, nearly never sampled.
        if getattr(dgram.payload, "trace", None) is not None:
            self._trace_delivery(dgram, self.loop.now, travelled)
        # Positional construction: dataclasses.replace costs a kwargs
        # dict + field introspection per packet on this per-delivery path.
        route.handler(Datagram(
            dgram.src, dgram.dst, dgram.payload, dgram.src_port,
            dgram.dst_port, dgram.ip_ttl - len(hops) - 1,
            dgram.hops + hops + (route.dest_router,)))

    def _deliver_unicast(self, dgram: Datagram) -> None:
        # unicast_latency and _access_edge, over one read of the link view.
        view = self._view()
        src, dst = dgram.src, dgram.dst
        distances = view.distances.get(src)
        if distances is None:
            distances = view.distances[src] = self._dijkstra(view, src)
        latency = distances.get(dst)
        if latency is None:
            self.stats.dropped_unreachable += 1
            return
        # A degraded access link loses packets in both directions.
        edges = view.edges.get(dst)
        if edges is None:
            edges = self._edges(view, dst)
        access = edges.get(self.topology.attachment_router(dst))
        if access is not None and access.loss > 0.0 \
                and self.rng.random() < access.loss:
            self.stats.dropped_loss += 1
            return
        endpoint = self._endpoints[dst]
        self.stats.delivered += 1
        if getattr(dgram.payload, "trace", None) is not None:
            self._trace_delivery(dgram, self.loop.now + latency,
                                 len(dgram.hops))
        self.loop.call_later(latency, endpoint.handle_datagram, dgram)

    # -- link view and unicast shortest paths --------------------------------

    def _view(self) -> _LinkView:
        view = self._link_view
        if view is None or view.version != self.topology.version:
            # Link state changed, or the topology grew (new hosts/links).
            view = self._link_view = _LinkView(self.topology.version)
        return view

    def _link_changed(self, a: str, b: str) -> None:
        """Drop what the a—b link's state went into: the edge maps of its
        two ends and every unicast distance table."""
        view = self._link_view
        if view is not None:
            view.edges.pop(a, None)
            view.edges.pop(b, None)
            view.distances.clear()

    def _edges(self, view: _LinkView, node_id: str) -> dict[str, _Edge]:
        edges = view.edges.get(node_id)
        if edges is None:
            edges = view.edges[node_id] = {}
            for neighbor in self.topology.neighbors(node_id):
                state = self._link_state.get(link_key(node_id, neighbor),
                                             _PLAIN_LINK)
                if state.up:
                    link = self.topology.link(node_id, neighbor)
                    edges[neighbor] = _Edge(
                        neighbor, link.latency_ms / 1000.0,
                        state.extra_latency_ms / 1000.0, state.loss, link)
        return edges

    def _access_edge(self, host_id: str) -> _Edge | None:
        """The access link of a host; None while it is down."""
        return self._edges(self._view(), host_id).get(
            self.topology.attachment_router(host_id))

    def unicast_latency(self, src: str, dst: str) -> float | None:
        """One-way latency along the shortest live path, or None."""
        view = self._view()
        distances = view.distances.get(src)
        if distances is None:
            distances = view.distances[src] = self._dijkstra(view, src)
        return distances.get(dst)

    def unicast_rtt_ms(self, a: str, b: str) -> float | None:
        """Round-trip time in milliseconds between two nodes."""
        one_way = self.unicast_latency(a, b)
        return None if one_way is None else one_way * 2000.0

    def _dijkstra(self, view: _LinkView, src: str) -> dict[str, float]:
        """Shortest live-path latency from ``src`` to every node it
        reaches, in the order the nodes were first reached.

        A node with one live link (a host, a single-homed stub router)
        is reached over that link and could relax nothing but the node
        it was reached from, already settled at a lower cost; it gets
        its distance and is never pushed. Settling order of the rest
        is the heap's order of (cost, node), which the leaves never
        affected, so distances and their order are those of the plain
        algorithm (``tests/netsim/dijkstra_reference.py``).
        """
        distances = {src: 0.0}
        frontier: list[tuple[float, str]] = [(0.0, src)]
        visited: set[str] = set()
        unreached = float("inf")
        all_edges = view.edges
        heappop, heappush = heapq.heappop, heapq.heappush
        while frontier:
            dist, node = heappop(frontier)
            if node in visited:
                continue
            visited.add(node)
            edges = all_edges.get(node)
            if edges is None:
                edges = self._edges(view, node)
            for peer, base, extra, _, _ in edges.values():
                candidate = dist + base + HOP_COST_S + extra
                if candidate < distances.get(peer, unreached):
                    distances[peer] = candidate
                    peer_edges = all_edges.get(peer)
                    if peer_edges is None:
                        peer_edges = self._edges(view, peer)
                    if len(peer_edges) > 1:
                        heappush(frontier, (candidate, peer))
        return distances
