"""Path-vector BGP with Gao-Rexford policy, MRAI batching, and withdrawals.

This module provides the convergence dynamics the anycast failover
experiment (paper section 4.1) depends on:

* New advertisements propagate quickly — the first valid path a router
  learns is installed immediately, so application-layer failover completes
  long before full BGP convergence (the paper's key observation).
* Withdrawals trigger *path hunting*: routers fall back to stale
  alternatives learned from neighbors that have not yet converged, and
  MRAI (min route advertisement interval) timers on a fraction of routers
  stretch the tail of convergence to tens of seconds. While tables
  diverge, forwarding loops form and packets die by IP TTL — producing
  the timeout tail in Figure 8.

Routes follow Gao-Rexford export rules (customer routes to everyone;
peer/provider routes to customers only) with local-pref customer > peer >
provider, which is also what confines an anycast catchment topologically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .topology import LinkRelation

if TYPE_CHECKING:
    from .network import Network

#: FIB next-hop sentinel meaning "delivered locally at this router".
LOCAL = "<local>"

#: Seconds a router spends on an update before it sends its own.
MIN_PROCESSING, MAX_PROCESSING = 0.01, 0.10
LOCAL_PREF_ORIGIN = 400
LOCAL_PREF = {
    LinkRelation.CUSTOMER: 300,
    LinkRelation.PEER: 200,
    LinkRelation.PROVIDER: 100,
}


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


class PeerSession:
    """One BGP session as seen from its speaker: the link's static facts
    (resolved once; links never change relation or base latency), the
    adj-RIB-out, and outbound update scheduling with MRAI batching.

    A session with ``mrai == 0`` transmits as soon as an update is
    queued. A nonzero MRAI models a router that batches outbound
    updates: queued updates wait for the next batch boundary (a random
    phase within the MRAI window), and at most one batch leaves per
    MRAI interval. Batching is what gives BGP withdrawal its
    convergence tail — every stale alternative path must clear, so the
    *slowest* router on any alternative bounds the blackhole window —
    while new advertisements stay fast because the *first* valid path
    to arrive already restores service.
    """

    __slots__ = ("_speaker", "peer_id", "mrai", "relation", "local_pref",
                 "latency_s", "peer", "rib_out", "down", "pending",
                 "_timer_running")

    def __init__(self, speaker: "BGPSpeaker", peer_id: str,
                 mrai: float) -> None:
        self._speaker = speaker
        self.peer_id = peer_id
        self.mrai = mrai
        link = speaker.network.topology.link(speaker.node_id, peer_id)
        #: What the peer is to this speaker (customer, peer, provider).
        self.relation = link.relation_from(speaker.node_id)
        self.local_pref = LOCAL_PREF[self.relation]
        self.latency_s = link.latency_ms / 1000.0
        #: The peer's speaker; it may not exist yet, so first use finds it.
        self.peer: BGPSpeaker | None = None
        #: adj-RIB-out: prefixes currently advertised to the peer.
        self.rib_out: set[str] = set()
        #: Session dropped (link failure or session reset).
        self.down = False
        self.pending: set[str] = set()
        self._timer_running = False

    def schedule(self, prefix: str) -> None:
        """Queue an update for ``prefix``; flush per the batching policy."""
        if self.mrai <= 0:
            # Unbatched: the queue would only ever hold this one update.
            self._speaker.send_update(self.peer_id, prefix)
            return
        self.pending.add(prefix)
        if self._timer_running:
            return
        # First batch after an idle period leaves quickly (update
        # generation delay); once the line is busy, subsequent batches
        # wait a full MRAI interval. Withdrawal-driven path hunting
        # therefore pays full intervals round after round, while a fresh
        # advertisement crosses each slow router in a fraction of one.
        phase = self._speaker.rng.uniform(0.1, 0.6) * self.mrai
        self._timer_running = True
        self._speaker.loop.call_later(phase, self._timer_expired)

    def _timer_expired(self) -> None:
        self._timer_running = False
        if self.pending:
            prefixes, self.pending = self.pending, set()
            for prefix in sorted(prefixes):
                self._speaker.send_update(self.peer_id, prefix)
            # Hold the line busy for a full interval after a batch.
            self._timer_running = True
            self._speaker.loop.call_later(self.mrai, self._timer_expired)


class BGPSpeaker:
    """The BGP process of one router."""

    def __init__(self, network: "Network", node_id: str, asn: int,
                 rng: random.Random, *, mrai: float = 0.0) -> None:
        self.network = network
        self.loop = network.loop
        self.node_id = node_id
        self.asn = asn
        self.rng = rng
        #: adj-RIB-in: prefix -> peer -> Route
        self._rib_in: dict[str, dict[str, Route]] = {}
        #: locally originated routes
        self._local: dict[str, Route] = {}
        #: current best per prefix
        self._best: dict[str, Route] = {}
        #: peer -> the session toward it, in ``bgp_neighbors`` order
        self._sessions: dict[str, PeerSession] = {
            peer_id: PeerSession(self, peer_id, mrai)
            for peer_id in network.topology.bgp_neighbors(node_id)}
        self.updates_sent = 0
        self.updates_received = 0
        #: Per-(peer, prefix) export suppression — the knob anycast
        #: traffic engineering turns to withdraw from individual peering
        #: links (paper section 4.3.2).
        self._export_blocked: set[tuple[str, str]] = set()

    # -- public control ---------------------------------------------------

    def originate(self, prefix: str, med: int = 0) -> None:
        """Inject a locally originated route and propagate it."""
        route = self._local[prefix] = Route(prefix, (), LOCAL,
                                            LOCAL_PREF_ORIGIN, med)
        self._decide(prefix, LOCAL, route)

    def withdraw_origin(self, prefix: str) -> None:
        """Remove a locally originated route and propagate the change."""
        if self._local.pop(prefix, None) is not None:
            self._decide(prefix, LOCAL, None)

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
        if changed and peer_id in self._sessions:
            self._sessions[peer_id].schedule(prefix)

    def export_blocked(self, peer_id: str, prefix: str) -> bool:
        return (peer_id, prefix) in self._export_blocked

    # -- session lifecycle --------------------------------------------------

    def session_is_up(self, peer_id: str) -> bool:
        session = self._sessions.get(peer_id)
        return session is None or not session.down

    def session_down(self, peer_id: str) -> None:
        """The session to ``peer_id`` dropped (link cut or reset).

        Every route learned over the session becomes invalid at once —
        the withdrawal burst and path hunting that follow are the real
        cost of a session failure, and the adj-RIB-out toward the peer
        is forgotten so re-establishment re-advertises from scratch.
        """
        session = self._sessions.get(peer_id)
        if session is None or session.down:
            return
        session.down = True
        session.pending.clear()
        session.rib_out.clear()
        for prefix in list(self._rib_in):
            if self._rib_in[prefix].pop(peer_id, None) is not None:
                self._decide(prefix, peer_id, None)

    def session_up(self, peer_id: str) -> None:
        """The session to ``peer_id`` re-established: re-advertise."""
        session = self._sessions.get(peer_id)
        if session is None or not session.down:
            return
        session.down = False
        for prefix in self._best:
            session.schedule(prefix)

    # -- update plumbing ----------------------------------------------------

    def send_update(self, peer_id: str, prefix: str) -> None:
        """Evaluate export policy for (peer, prefix) and transmit."""
        session = self._sessions[peer_id]
        if session.down:
            return
        best = self._best.get(prefix)
        if best is not None and self._exportable(best, session):
            session.rib_out.add(prefix)
            path, med = (self.asn,) + best.as_path, best.med
        elif prefix in session.rib_out:
            session.rib_out.discard(prefix)
            path, med = None, 0
        else:
            return
        self.updates_sent += 1
        if session.peer is None:
            session.peer = self.network.speaker(peer_id)
        delay = (session.latency_s
                 + self.rng.uniform(MIN_PROCESSING, MAX_PROCESSING))
        self.loop.call_later(delay, session.peer.receive_update,
                             self.node_id, prefix, path, med)

    def receive_update(self, from_peer: str, prefix: str,
                       path: tuple[int, ...] | None, med: int) -> None:
        """Handle an announce (path) or withdraw (path is None)."""
        session = self._sessions[from_peer]
        if session.down:
            # In-flight update from a session that dropped meanwhile.
            return
        self.updates_received += 1
        rib = self._rib_in.setdefault(prefix, {})
        if path is None or self.asn in path:
            # Withdraw, or loop-poisoned announce treated as one.
            if rib.pop(from_peer, None) is not None:
                self._decide(prefix, from_peer, None)
        else:
            route = rib[from_peer] = Route(prefix, path, from_peer,
                                           session.local_pref, med)
            self._decide(prefix, from_peer, route)

    # -- decision process ---------------------------------------------------

    def _decide(self, prefix: str, source: str,
                route: Route | None) -> None:
        """Re-run the decision process after the candidate of ``source``
        (a peer, or LOCAL) for ``prefix`` became ``route``, None if gone.

        The installed best is the maximum of the candidates, so another
        source's route either beats it or changes nothing; only when the
        best's own source moved is every candidate in play again. A
        removal is withdrawal-driven churn: its RIB->FIB sync pays the
        router's FIB programming delay (real routers back up under
        withdrawal/path-hunting bursts); an announcement programs quickly.
        """
        old_best = self._best.get(prefix)
        if old_best is not None and old_best.next_hop == source:
            candidates = list(self._rib_in.get(prefix, {}).values())
            local = self._local.get(prefix)
            if local is not None:
                candidates.append(local)
            new_best = (max(candidates, key=Route.preference_key)
                        if candidates else None)
            if new_best == old_best:
                return
        elif route is not None and (
                old_best is None
                or route.preference_key() > old_best.preference_key()):
            new_best = route
        else:
            return
        if new_best is None:
            del self._best[prefix]
        else:
            self._best[prefix] = new_best
        next_hop = None if new_best is None else new_best.next_hop
        self.network.set_fib(self.node_id, prefix, next_hop,
                             churn=route is None)
        for peer_id, session in self._sessions.items():
            # Split horizon toward the route's source: only retract
            # what we previously advertised to it.
            if peer_id != next_hop or prefix in session.rib_out:
                session.schedule(prefix)

    def _exportable(self, route: Route, session: PeerSession) -> bool:
        """Gao-Rexford export rule plus per-peer suppression."""
        next_hop = route.next_hop
        if next_hop == session.peer_id:
            return False
        if (session.peer_id, route.prefix) in self._export_blocked:
            return False
        # Customer (and own) routes go to everyone; peer/provider
        # routes go to customers only.
        return (next_hop == LOCAL
                or session.relation is LinkRelation.CUSTOMER
                or self._sessions[next_hop].relation is LinkRelation.CUSTOMER)
