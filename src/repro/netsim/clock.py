"""Deterministic discrete-event simulation engine.

A single :class:`EventLoop` is the source of time for every simulated
component (routers, nameservers, resolvers, monitoring agents). Events at
equal timestamps fire in scheduling order, which keeps runs bit-for-bit
reproducible given the same seed.

The heap stores plain list entries ``[time, seq, action, args, status]``
rather than objects: entry comparison never goes past ``seq`` (which is
unique), actions are bound methods or callables invoked with pre-bound
``args`` so hot callers schedule without allocating a closure, and
cancellation just flips ``status`` in place. Cancelled entries are
dropped lazily — on pop, or in bulk once they outnumber the live ones —
while a live counter keeps :attr:`EventLoop.pending` O(1).
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..telemetry import state as _telemetry

#: ``status`` slot values for a heap entry.
_PENDING = 0
_CANCELLED = 1
_FIRED = 2

_TIME = 0
_SEQ = 1
_ACTION = 2
_ARGS = 3
_STATUS = 4

#: Compact the heap when at least this many cancelled entries linger
#: *and* they outnumber the live ones (amortized O(1) per cancellation).
_COMPACT_MIN = 64

#: Sentinel marking a coalesced-batch member slot as consumed (run or
#: cancelled); never a valid member argument.
_TOMB = object()


class BatchHandle:
    """Handle for one member of a coalesced heap entry.

    Supports the same ``cancel()`` contract as :class:`EventHandle`.
    ``cancelled`` reads True once the slot is tombstoned, which happens
    both on cancellation and after the member has run — callers that
    need to distinguish must track execution themselves (the network
    layer only cancels members that are still in flight).
    """

    __slots__ = ("_entry", "_members", "_live", "_index", "_loop")

    def __init__(self, entry: list, members: list, live: list,
                 index: int, loop: "EventLoop") -> None:
        self._entry = entry
        self._members = members
        self._live = live
        self._index = index
        self._loop = loop

    def cancel(self) -> None:
        """Prevent this member from firing; safe to call repeatedly."""
        members = self._members
        index = self._index
        if members[index] is _TOMB:
            return
        members[index] = _TOMB
        self._live[0] -= 1
        loop = self._loop
        loop._alive -= 1
        entry = self._entry
        if entry[_STATUS] == _PENDING and self._live[0] == 0:
            entry[_STATUS] = _CANCELLED
            entry[_ACTION] = entry[_ARGS] = None
            loop._entry_dead()

    @property
    def cancelled(self) -> bool:
        return self._members[self._index] is _TOMB

    @property
    def time(self) -> float:
        return self._entry[_TIME]


class EventHandle:
    """Handle returned by :meth:`EventLoop.call_at`; supports cancellation."""

    __slots__ = ("_entry", "_loop")

    def __init__(self, entry: list, loop: "EventLoop") -> None:
        self._entry = entry
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        entry = self._entry
        if entry[_STATUS] == _PENDING:
            entry[_STATUS] = _CANCELLED
            entry[_ACTION] = entry[_ARGS] = None
            self._loop._cancelled(entry)
        elif entry[_STATUS] == _FIRED:
            # Matches the historical semantics: cancelling after the
            # event fired is a no-op but the handle reads as cancelled.
            entry[_STATUS] = _CANCELLED

    @property
    def cancelled(self) -> bool:
        return self._entry[_STATUS] == _CANCELLED

    @property
    def time(self) -> float:
        return self._entry[_TIME]


class EventLoop:
    """A priority-queue event loop over simulated seconds."""

    def __init__(self) -> None:
        #: Simulation time in seconds; an attribute only the loop writes.
        self.now = 0.0
        self._queue: list[list] = []
        self._seq = 0
        #: ``seq`` of the running entry, for :meth:`rewind`.
        self._running = 0
        self._processed = 0
        self._alive = 0
        self._dead = 0
        #: The most recently created coalesced entry (see
        #: :meth:`call_at_coalesced`); stale references are harmless
        #: because eligibility re-checks seq/status/time on every call.
        self._last_batch: list | None = None
        # A new loop is a new simulated world: rebind any active
        # telemetry session's clock and start a fresh epoch. This is the
        # only clock instrumentation — per-event hooks would tax the
        # hot loop.
        _t = _telemetry.ACTIVE
        if _t is not None:
            _t.attach_loop(self)

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending(self) -> int:
        """Live (uncancelled) scheduled events — O(1)."""
        return self._alive

    def call_at(self, when: float, action: Callable[..., None],
                *args) -> EventHandle:
        """Schedule ``action(*args)`` at absolute time ``when`` (>= now).

        Passing ``args`` here instead of closing over them keeps hot
        schedulers (per-hop forwarding, BGP update delivery) free of
        per-call closure allocation.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} < now {self.now}")
        self._seq = seq = self._seq + 1
        entry = [when, seq, action, args, _PENDING]
        heapq.heappush(self._queue, entry)
        self._alive += 1
        return EventHandle(entry, self)

    def call_later(self, delay: float, action: Callable[..., None],
                   *args) -> EventHandle:
        """Schedule ``action(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined call_at body (minus the when >= now check, which a
        # non-negative delay guarantees): this is the hottest scheduling
        # entry point, called once or more per simulated packet.
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, action, args, _PENDING]
        heapq.heappush(self._queue, entry)
        self._alive += 1
        return EventHandle(entry, self)

    def rewind(self, handle: EventHandle, when: float,
               action: Callable[..., None], *args) -> bool:
        """Replace the pending event behind ``handle`` by ``action(*args)``
        at the earlier ``when``, in the same place in scheduling order (as
        if set for ``when`` originally). False once that place is past."""
        seq = handle._entry[_SEQ]
        if when < self.now or (when == self.now and seq <= self._running):
            return False
        handle.cancel()
        heapq.heappush(self._queue, [when, seq, action, args, _PENDING])
        self._alive += 1
        return True

    def _cancelled(self, entry: list) -> None:
        """Bookkeeping for a cancellation; compacts the heap lazily."""
        self._alive -= 1
        self._entry_dead()

    def _entry_dead(self) -> None:
        """One heap entry became garbage; compact lazily."""
        self._dead += 1
        if self._dead >= _COMPACT_MIN and self._dead > self._alive:
            self._queue = [e for e in self._queue
                           if e[_STATUS] == _PENDING]
            heapq.heapify(self._queue)
            self._dead = 0

    def call_at_coalesced(self, when: float, action: Callable[..., None],
                          arg) -> BatchHandle:
        """Schedule ``action(arg)``, coalescing consecutive same-time
        schedules of the same action into one heap entry.

        Coalescing is only ordering-safe for *consecutively scheduled*
        events: same-time events fire in scheduling order, so a batch
        may absorb a new member only while its entry is still the most
        recently scheduled one (``seq`` unchanged) and still pending.
        Under that rule one heap entry carries an entire same-tick burst
        (e.g. a flood's deliveries on one link) and the firing order is
        identical to individual ``call_at`` calls. ``pending`` and
        ``events_processed`` count logical members, not heap entries.
        """
        last = self._last_batch
        if (last is not None and last[_SEQ] == self._seq
                and last[_STATUS] == _PENDING and last[_TIME] == when):
            args = last[_ARGS]
            if args[0] == action:
                members = args[1]
                live = args[2]
                members.append(arg)
                live[0] += 1
                self._alive += 1
                return BatchHandle(last, members, live,
                                   len(members) - 1, self)
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} < now {self.now}")
        members = [arg]
        live = [1]
        self._seq = seq = self._seq + 1
        entry = [when, seq, self._run_batch, (action, members, live),
                 _PENDING]
        heapq.heappush(self._queue, entry)
        self._alive += 1
        self._last_batch = entry
        return BatchHandle(entry, members, live, 0, self)

    def call_later_coalesced(self, delay: float,
                             action: Callable[..., None],
                             arg) -> BatchHandle:
        """Coalescing variant of :meth:`call_later`."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.call_at_coalesced(self.now + delay, action, arg)

    def _run_batch(self, action: Callable[..., None], members: list,
                   live: list) -> None:
        """Fire a coalesced entry: run live members in append order.

        The pop loop already accounted one processed event for the
        entry; every additional live member is accounted here so the
        counters match unbatched scheduling exactly. Each slot is
        tombstoned *before* its action runs: cancelling an
        already-started member is a no-op, while cancelling a
        later member mid-batch still prevents it from running.
        """
        first = True
        for i in range(len(members)):
            arg = members[i]
            if arg is _TOMB:
                continue
            members[i] = _TOMB
            live[0] -= 1
            if first:
                first = False
            else:
                self._alive -= 1
                self._processed += 1
            action(arg)

    def run_until(self, deadline: float) -> None:
        """Process events with time <= deadline, then advance to deadline."""
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][_TIME] <= deadline:
            entry = pop(queue)
            if entry[_STATUS]:
                self._dead -= 1
                continue
            entry[_STATUS] = _FIRED
            self._alive -= 1
            self.now = entry[_TIME]
            self._running = entry[_SEQ]
            self._processed += 1
            action = entry[_ACTION]
            args = entry[_ARGS]
            entry[_ACTION] = entry[_ARGS] = None
            action(*args)
            # Compaction replaces the queue list; re-bind.
            queue = self._queue
        if deadline > self.now:
            self.now = deadline
        self._running = self._seq       # everything due so far has run

    def run(self, max_events: int | None = None) -> None:
        """Process events until the queue drains (or ``max_events``)."""
        queue = self._queue
        pop = heapq.heappop
        count = 0
        while queue:
            if max_events is not None and count >= max_events:
                return
            entry = pop(queue)
            if entry[_STATUS]:
                self._dead -= 1
                continue
            entry[_STATUS] = _FIRED
            self._alive -= 1
            self.now = entry[_TIME]
            self._running = entry[_SEQ]
            self._processed += 1
            action = entry[_ACTION]
            args = entry[_ARGS]
            entry[_ACTION] = entry[_ARGS] = None
            action(*args)
            queue = self._queue
            count += 1


class PeriodicTask:
    """Re-arms an action at a fixed period until cancelled.

    Used for monitoring-agent health probes, vantage-point query trains,
    and metadata heartbeat timers.
    """

    def __init__(self, loop: EventLoop, period: float,
                 action: Callable[[], None], *, start_delay: float = 0.0) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self._loop = loop
        self._period = period
        self._action = action
        self._stopped = False
        self._handle = loop.call_later(start_delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._action()
        if not self._stopped:
            self._handle = self._loop.call_later(self._period, self._fire)

    def stop(self) -> None:
        """Stop re-arming; a pending firing is cancelled."""
        self._stopped = True
        self._handle.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
