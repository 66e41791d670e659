"""The parent commit's BGP decision/export code and unicast path code,
kept verbatim as the oracle for ``test_reference_equivalence.py``.

``Route``, ``PeerChannel`` and ``BGPSpeaker`` are
``src/repro/netsim/bgp.py`` as it stood before the per-session record,
the incremental decision process and the export pass;
:class:`ReferenceNetwork` carries ``Network``'s per-link probe helpers,
``send``, ``_deliver_unicast``, ``unicast_latency`` and ``_dijkstra``
from before the derived link view, ``set_fib`` / ``_apply_fib`` from
before a network without a FIB delay programmed its FIBs in place, and
``register_local_delivery`` from before a prefix's change dropped that
prefix's cached routes alone (both flush the whole route cache).
Nothing here is to be "improved": it is the definition of the behaviour
the faster code must reproduce bit for bit. The only edits:
``unicast_latency`` recomputes on every call (so a view that outlives a
link change is caught too), and ``_deliver_unicast`` schedules with
``call_later``, the loop's one scheduling primitive.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable

from repro.netsim.bgp import LOCAL, LOCAL_PREF, LOCAL_PREF_ORIGIN
from repro.netsim.network import HOP_COST_S, LocalDeliveryHandler, Network
from repro.netsim.packet import Datagram
from repro.netsim.topology import LinkRelation, NodeKind, link_key


@dataclass(frozen=True, slots=True)
class Route:
    """A candidate path for one prefix as stored in a router's RIB."""

    prefix: str
    as_path: tuple[int, ...]
    next_hop: str          # peer router id, or LOCAL for origination
    local_pref: int
    med: int

    def preference_key(self) -> tuple:
        """Sort key: larger is better."""
        return (self.local_pref, -len(self.as_path), -self.med, self.next_hop)


class PeerChannel:
    """Outbound update scheduling toward one peer, with MRAI batching.

    A channel with ``mrai == 0`` transmits as soon as an update is
    queued. A nonzero MRAI models a router that batches outbound
    updates: queued updates wait for the next batch boundary (a random
    phase within the MRAI window), and at most one batch leaves per
    MRAI interval. Batching is what gives BGP withdrawal its
    convergence tail — every stale alternative path must clear, so the
    *slowest* router on any alternative bounds the blackhole window —
    while new advertisements stay fast because the *first* valid path
    to arrive already restores service.
    """

    def __init__(self, speaker: "BGPSpeaker", peer_id: str,
                 mrai: float) -> None:
        self._speaker = speaker
        self.peer_id = peer_id
        self.mrai = mrai
        self._pending: set[str] = set()
        self._timer_running = False

    def reset(self) -> None:
        """Drop queued updates (session teardown)."""
        self._pending.clear()

    def schedule(self, prefix: str) -> None:
        """Queue an update for ``prefix``; flush per the batching policy."""
        self._pending.add(prefix)
        if self._timer_running:
            return
        if self.mrai <= 0:
            self._flush()
            return
        # First batch after an idle period leaves quickly (update
        # generation delay); once the line is busy, subsequent batches
        # wait a full MRAI interval. Withdrawal-driven path hunting
        # therefore pays full intervals round after round, while a fresh
        # advertisement crosses each slow router in a fraction of one.
        phase = self._speaker.rng.uniform(0.1, 0.6) * self.mrai
        self._timer_running = True
        self._speaker.loop.call_later(phase, self._timer_expired)

    def _flush(self) -> None:
        prefixes, self._pending = self._pending, set()
        for prefix in sorted(prefixes):
            self._speaker.send_update(self.peer_id, prefix)

    def _timer_expired(self) -> None:
        self._timer_running = False
        if self._pending:
            self._flush()
            if self.mrai > 0:
                # Hold the line busy for a full interval after a batch.
                self._timer_running = True
                self._speaker.loop.call_later(self.mrai,
                                              self._timer_expired)


class BGPSpeaker:
    """The BGP process of one router."""

    def __init__(self, network: "Network", node_id: str, asn: int,
                 rng: random.Random, *, mrai: float = 0.0,
                 processing_delay: tuple[float, float] = (0.01, 0.10)) -> None:
        self.network = network
        self.loop = network.loop
        self.node_id = node_id
        self.asn = asn
        self.rng = rng
        self._rng = rng
        self._proc_lo, self._proc_hi = processing_delay
        #: adj-RIB-in: prefix -> peer -> Route
        self._rib_in: dict[str, dict[str, Route]] = {}
        #: locally originated routes
        self._local: dict[str, Route] = {}
        #: current best per prefix
        self._best: dict[str, Route] = {}
        #: adj-RIB-out: peer -> set of prefixes currently advertised to it
        self._rib_out: dict[str, set[str]] = {}
        self._channels: dict[str, PeerChannel] = {}
        self.updates_sent = 0
        self.updates_received = 0
        #: Per-(peer, prefix) export suppression — the knob anycast
        #: traffic engineering turns to withdraw from individual peering
        #: links (paper section 4.3.2).
        self._export_blocked: set[tuple[str, str]] = set()
        #: Peers whose session is down (link failure or session reset).
        self._sessions_down: set[str] = set()
        self._best_change_listeners: list[Callable[[str, Route | None], None]] = []
        for peer_id in network.topology.bgp_neighbors(node_id):
            self._channels[peer_id] = PeerChannel(self, peer_id, mrai)
            self._rib_out[peer_id] = set()

    # -- public control ---------------------------------------------------

    def originate(self, prefix: str, med: int = 0) -> None:
        """Inject a locally originated route and propagate it."""
        self._local[prefix] = Route(prefix, (), LOCAL, LOCAL_PREF_ORIGIN, med)
        self._reselect(prefix)

    def withdraw_origin(self, prefix: str) -> None:
        """Remove a locally originated route and propagate the change."""
        if self._local.pop(prefix, None) is not None:
            self._reselect(prefix, churn=True)

    def best_route(self, prefix: str) -> Route | None:
        return self._best.get(prefix)

    def set_export_blocked(self, peer_id: str, prefix: str,
                           blocked: bool) -> None:
        """Suppress (or restore) advertising ``prefix`` to one peer.

        This is the per-peering-link withdrawal of paper section 4.3.2:
        traffic from that peer shifts to whichever other PoP or link its
        BGP then prefers, without touching the other peers.
        """
        key = (peer_id, prefix)
        changed = (key in self._export_blocked) != blocked
        if blocked:
            self._export_blocked.add(key)
        else:
            self._export_blocked.discard(key)
        if changed and peer_id in self._channels:
            self._channels[peer_id].schedule(prefix)

    def export_blocked(self, peer_id: str, prefix: str) -> bool:
        return (peer_id, prefix) in self._export_blocked

    def on_best_change(self,
                       listener: Callable[[str, Route | None], None]) -> None:
        """Register a callback fired when the best route for a prefix moves."""
        self._best_change_listeners.append(listener)

    # -- session lifecycle --------------------------------------------------

    def session_is_up(self, peer_id: str) -> bool:
        return peer_id not in self._sessions_down

    def session_down(self, peer_id: str) -> None:
        """The session to ``peer_id`` dropped (link cut or reset).

        Every route learned over the session becomes invalid at once —
        the withdrawal burst and path hunting that follow are the real
        cost of a session failure, and the adj-RIB-out toward the peer
        is forgotten so re-establishment re-advertises from scratch.
        """
        if peer_id not in self._channels or peer_id in self._sessions_down:
            return
        self._sessions_down.add(peer_id)
        self._channels[peer_id].reset()
        self._rib_out[peer_id] = set()
        for prefix in list(self._rib_in):
            if self._rib_in[prefix].pop(peer_id, None) is not None:
                self._reselect(prefix, churn=True)

    def session_up(self, peer_id: str) -> None:
        """The session to ``peer_id`` re-established: re-advertise."""
        if peer_id not in self._channels \
                or peer_id not in self._sessions_down:
            return
        self._sessions_down.discard(peer_id)
        channel = self._channels[peer_id]
        for prefix in self._best:
            channel.schedule(prefix)

    # -- update plumbing ----------------------------------------------------

    def send_update(self, peer_id: str, prefix: str) -> None:
        """Evaluate export policy for (peer, prefix) and transmit."""
        if peer_id in self._sessions_down:
            return
        best = self._best.get(prefix)
        advertise = best is not None and self._exportable(best, peer_id)
        previously = prefix in self._rib_out[peer_id]
        if advertise:
            assert best is not None
            path = (self.asn,) + best.as_path
            self._rib_out[peer_id].add(prefix)
            self._transmit(peer_id, prefix, path, best.med)
        elif previously:
            self._rib_out[peer_id].discard(prefix)
            self._transmit(peer_id, prefix, None, 0)

    def _transmit(self, peer_id: str, prefix: str,
                  path: tuple[int, ...] | None, med: int) -> None:
        self.updates_sent += 1
        link = self.network.topology.link(self.node_id, peer_id)
        delay = (link.latency_ms / 1000.0
                 + self._rng.uniform(self._proc_lo, self._proc_hi))
        peer_speaker = self.network.speaker(peer_id)
        self.loop.call_later(delay, peer_speaker.receive_update,
                             self.node_id, prefix, path, med)

    def receive_update(self, from_peer: str, prefix: str,
                       path: tuple[int, ...] | None, med: int) -> None:
        """Handle an announce (path) or withdraw (path is None)."""
        if from_peer in self._sessions_down:
            # In-flight update from a session that dropped meanwhile.
            return
        self.updates_received += 1
        rib = self._rib_in.setdefault(prefix, {})
        if path is None or self.asn in path:
            # Withdraw, or loop-poisoned announce treated as one.
            if rib.pop(from_peer, None) is None and path is None:
                return
            self._reselect(prefix, churn=True)
        else:
            relation = self.network.topology.link(
                self.node_id, from_peer).relation_from(self.node_id)
            rib[from_peer] = Route(prefix, path, from_peer,
                                   LOCAL_PREF[relation], med)
            self._reselect(prefix)

    # -- decision process ---------------------------------------------------

    def _candidates(self, prefix: str) -> list[Route]:
        routes = list(self._rib_in.get(prefix, {}).values())
        local = self._local.get(prefix)
        if local is not None:
            routes.append(local)
        return routes

    def _reselect(self, prefix: str, *, churn: bool = False) -> None:
        """Re-run the decision process.

        ``churn`` marks withdrawal-driven reselection: the RIB->FIB sync
        for such changes pays the router's FIB programming delay (real
        routers back up under withdrawal/path-hunting bursts), while a
        plain announcement programs quickly.
        """
        candidates = self._candidates(prefix)
        new_best = (max(candidates, key=Route.preference_key)
                    if candidates else None)
        old_best = self._best.get(prefix)
        if new_best == old_best:
            return
        if new_best is None:
            del self._best[prefix]
        else:
            self._best[prefix] = new_best
        next_hop = None if new_best is None else new_best.next_hop
        self.network.set_fib(self.node_id, prefix, next_hop, churn=churn)
        for listener in self._best_change_listeners:
            listener(prefix, new_best)
        for peer_id, channel in self._channels.items():
            if new_best is not None and peer_id == new_best.next_hop:
                # Split horizon toward the route's source; retract anything
                # we previously advertised to it.
                if prefix in self._rib_out[peer_id]:
                    channel.schedule(prefix)
                continue
            channel.schedule(prefix)

    def _exportable(self, route: Route, peer_id: str) -> bool:
        """Gao-Rexford export rule plus per-peer suppression."""
        if (peer_id, route.prefix) in self._export_blocked:
            return False
        if peer_id == route.next_hop:
            return False
        if route.next_hop == LOCAL:
            return True
        learned_relation = self.network.topology.link(
            self.node_id, route.next_hop).relation_from(self.node_id)
        if learned_relation == LinkRelation.CUSTOMER:
            return True
        # Peer/provider routes go to customers only.
        out_relation = self.network.topology.link(
            self.node_id, peer_id).relation_from(self.node_id)
        return out_relation == LinkRelation.CUSTOMER


class ReferenceNetwork(Network):
    """``Network`` with the parent's speakers and unicast path code."""

    def build_speakers(self, *, mrai_for: Callable[[str], float] | None = None,
                       processing_delay: tuple[float, float] = (0.01, 0.10),
                       ) -> None:
        for node in self.topology.routers():
            mrai = mrai_for(node.node_id) if mrai_for else 0.0
            self._speakers[node.node_id] = BGPSpeaker(
                self, node.node_id, node.asn, self.rng, mrai=mrai,
                processing_delay=processing_delay)

    def set_fib(self, router_id: str, prefix: str,
                next_hop: str | None, *, churn: bool = False) -> None:
        """Install or remove the FIB entry for (router, prefix).

        ``churn`` marks withdrawal-driven changes: only those pay the
        router's FIB programming delay (RIB->FIB sync backs up under
        update bursts), applied such that out-of-order completions are
        dropped and the newest decision always wins.
        """
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
        table = self._fib.setdefault(router_id, {})
        if next_hop is None:
            if table.pop(prefix, None) is not None:
                self._bump_route_epoch()
        elif table.get(prefix) != next_hop:
            table[prefix] = next_hop
            self._bump_route_epoch()

    def register_local_delivery(self, router_id: str, prefix: str,
                                handler: LocalDeliveryHandler) -> None:
        """Route packets for ``prefix`` that terminate at ``router_id``."""
        self._local_delivery[(router_id, prefix)] = handler
        self._bump_route_epoch()

    def link_is_up(self, a: str, b: str) -> bool:
        state = self._link_state.get(link_key(a, b))
        return state.up if state else True

    def _link_lossy_drop(self, a: str, b: str) -> bool:
        """Whether a degraded link eats this datagram."""
        state = self._link_state.get(link_key(a, b))
        if state is None or state.loss <= 0.0:
            return False
        return self.rng.random() < state.loss

    def _link_extra_delay(self, a: str, b: str) -> float:
        state = self._link_state.get(link_key(a, b))
        if state is None:
            return 0.0
        return state.extra_latency_ms / 1000.0

    def send(self, dgram: Datagram) -> None:
        """Inject a datagram from its source host into the network."""
        src_node = self.topology.node(dgram.src)
        if src_node.kind == NodeKind.HOST:
            first_router = self.topology.attachment_router(dgram.src)
            access = self.topology.link(dgram.src, first_router)
            if not self.link_is_up(dgram.src, first_router):
                self.stats.dropped_unreachable += 1
                return
            if self._link_lossy_drop(dgram.src, first_router):
                self.stats.dropped_loss += 1
                return
            delay = (access.latency_ms / 1000.0
                     + self._link_extra_delay(dgram.src, first_router))
        else:
            first_router = dgram.src
            delay = 0.0
        if dgram.dst in self._endpoints:
            self._deliver_unicast(dgram)
            return
        self.loop.call_later(delay, self._forward, first_router, dgram)

    def _deliver_unicast(self, dgram: Datagram) -> None:
        latency = self.unicast_latency(dgram.src, dgram.dst)
        if latency is None:
            self.stats.dropped_unreachable += 1
            return
        if self.topology.node(dgram.dst).kind == NodeKind.HOST:
            # A degraded access link loses packets in both directions.
            last_router = self.topology.attachment_router(dgram.dst)
            if self._link_lossy_drop(dgram.dst, last_router):
                self.stats.dropped_loss += 1
                return
        endpoint = self._endpoints[dgram.dst]
        self.stats.delivered += 1
        self._trace_delivery(dgram, self.loop.now + latency,
                             len(dgram.hops))
        self.loop.call_later(latency, endpoint.handle_datagram, dgram)

    def unicast_latency(self, src: str, dst: str) -> float | None:
        """One-way latency along the shortest live path, or None."""
        return self._dijkstra(src).get(dst)

    def _dijkstra(self, src: str) -> dict[str, float]:
        distances = {src: 0.0}
        frontier: list[tuple[float, str]] = [(0.0, src)]
        visited: set[str] = set()
        while frontier:
            dist, node = heapq.heappop(frontier)
            if node in visited:
                continue
            visited.add(node)
            for neighbor in self.topology.neighbors(node):
                if not self.link_is_up(node, neighbor):
                    continue
                link = self.topology.link(node, neighbor)
                candidate = (dist + link.latency_ms / 1000.0 + HOP_COST_S
                             + self._link_extra_delay(node, neighbor))
                if candidate < distances.get(neighbor, float("inf")):
                    distances[neighbor] = candidate
                    heapq.heappush(frontier, (candidate, neighbor))
        return distances
