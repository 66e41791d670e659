"""Penalty queues and the work-conserving service discipline.

Queries are read in increasing penalty order: a higher-penalty queue is
only served when every lower one is empty. Starvation is possible — and
intended — in all queues except the lowest-penalty one, which by
construction is always served first (paper section 4.3.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from ..filters.scoring import QueuePolicy
from ..telemetry import state as _telemetry

T = TypeVar("T")


@dataclass(slots=True)
class QueueStats:
    """Counters for one run of the queue runtime."""

    enqueued_per_queue: list[int] = field(default_factory=list)
    served_per_queue: list[int] = field(default_factory=list)
    discarded_s_max: int = 0
    dropped_full: int = 0


class PenaltyQueueRuntime(Generic[T]):
    """Bounded FIFO queues ordered by penalty score band."""

    def __init__(self, policy: QueuePolicy,
                 max_depth_per_queue: int = 1000,
                 owner: str = "") -> None:
        self.policy = policy
        self.max_depth = max_depth_per_queue
        #: Telemetry label (typically the owning machine's id).
        self.owner = owner
        self._queues: list[deque[T]] = [deque()
                                        for _ in range(policy.queue_count)]
        self._depth = 0     # items queued, over all queues
        self.stats = QueueStats(
            enqueued_per_queue=[0] * policy.queue_count,
            served_per_queue=[0] * policy.queue_count,
        )

    def enqueue(self, item: T, score: float) -> bool:
        """Place ``item`` by score; False if discarded or queue full."""
        index = self.policy.queue_for(score)
        if index is None:
            self.stats.discarded_s_max += 1
            return False
        queue = self._queues[index]
        if len(queue) >= self.max_depth:
            self.stats.dropped_full += 1
            return False
        queue.append(item)
        self._depth += 1
        self.stats.enqueued_per_queue[index] += 1
        _telemetry.record("penalty_enqueued_total", self.owner, index)
        _telemetry.record("penalty_queue_depth", self.owner,
                          value=float(self._depth))
        return True

    def pop_next(self) -> tuple[int, T] | None:
        """The next item in increasing penalty order, or None if all empty."""
        for index, queue in enumerate(self._queues):
            if queue:
                self.stats.served_per_queue[index] += 1
                item = queue.popleft()
                self._depth -= 1
                _telemetry.record("penalty_queue_depth", self.owner,
                                  value=float(self._depth))
                return index, item
        return None

    def depth(self, index: int) -> int:
        return len(self._queues[index])

    def total_depth(self) -> int:
        return self._depth

    def clear(self) -> int:
        """Drop everything queued (machine crash); returns the count lost."""
        lost = self._depth
        for queue in self._queues:
            queue.clear()
        self._depth = 0
        return lost

    def __bool__(self) -> bool:
        return self._depth > 0
