"""Deterministic discrete-event simulation engine.

A single :class:`EventLoop` is the source of time for every simulated
component (routers, nameservers, resolvers, monitoring agents). Events at
equal timestamps fire in scheduling order, which keeps runs bit-for-bit
reproducible given the same seed.

Each scheduled event is one object: a plain list
``[time, seq, action, args, status]`` that is both the heap entry and the
handle ``call_at`` returns (:data:`EventHandle`). Entry comparison never
goes past ``seq`` (which is unique), actions are bound methods or
callables invoked with pre-bound ``args`` so hot callers schedule without
allocating a closure, and :meth:`EventLoop.cancel` just flips ``status``
in place. Cancelled entries are dropped lazily — on pop, or in bulk once
they outnumber the live ones — while a live counter keeps
:attr:`EventLoop.pending` O(1). A list subclass with ``cancel`` as a
method would cost more per event than the old list-plus-wrapper pair:
CPython builds and frees subclass instances without the list fast paths.
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

#: A scheduled event: its heap entry, returned by :meth:`EventLoop.call_at`
#: and :meth:`EventLoop.call_later`; cancel it with :meth:`EventLoop.cancel`.
EventHandle = list


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
        return entry

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
        return entry

    def rewind(self, handle: EventHandle, when: float,
               action: Callable[..., None], *args) -> bool:
        """Replace the pending event behind ``handle`` by ``action(*args)``
        at the earlier ``when``, in the same place in scheduling order (as
        if set for ``when`` originally). False once that place is past."""
        seq = handle[_SEQ]
        if when < self.now or (when == self.now and seq <= self._running):
            return False
        self.cancel(handle)
        heapq.heappush(self._queue, [when, seq, action, args, _PENDING])
        self._alive += 1
        return True

    def cancel(self, handle: EventHandle) -> None:
        """Prevent the event behind this loop's ``handle`` from firing;
        safe to call more than once. Compacts the heap lazily."""
        status = handle[_STATUS]
        if status == _PENDING:
            handle[_STATUS] = _CANCELLED
            handle[_ACTION] = handle[_ARGS] = None
            self._alive -= 1
            self._dead += 1
            if self._dead >= _COMPACT_MIN and self._dead > self._alive:
                self._queue = [e for e in self._queue
                               if e[_STATUS] == _PENDING]
                heapq.heapify(self._queue)
                self._dead = 0
        elif status == _FIRED:
            # Matches the historical semantics: cancelling after the
            # event fired is a no-op but the handle reads as cancelled.
            handle[_STATUS] = _CANCELLED

    @staticmethod
    def cancelled(handle: EventHandle) -> bool:
        """Whether ``handle`` was cancelled (before or after it fired)."""
        return handle[_STATUS] == _CANCELLED

    # Not a second path: bench/tracing.py binds ``call_at_coalesced`` by
    # name, and bench/ was closed to the PR that retired coalescing.
    # Nothing under src/ may call these; the next ``benchmark`` PR deletes
    # them together with the two lines in bench/tracing.py.
    call_at_coalesced = call_at
    call_later_coalesced = call_later

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
        self._loop.cancel(self._handle)

    @property
    def stopped(self) -> bool:
        return self._stopped
