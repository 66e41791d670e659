"""Host time, corrected for how fast the host is running right now.

The 2-core sandbox this benchmark runs in slows by 1.3-2x for seconds
to minutes at a time, and CPU time slows with it (it is the host, not
the scheduler), so a raw time cannot resolve a 10% change between two
commits. Every timed piece is therefore bracketed by a fixed
calibration loop and scaled by ``CAL_REF_S / (what the loop took beside
it)``: the result is the seconds the piece would have taken on the
reference host running uncontended. Raw seconds are reported beside the
corrected ones.

How much a neighbour slows code depends on what the code does, so the
loop mixes three kinds of work — interpreter-bound arithmetic, loads
that miss the core's cache, and method calls updating attributes and
dicts across a few thousand objects. Tried singly beside the four
workloads, each kind corrected some workloads well and others badly
(run-to-run spread of one run's total 2-8%); the mix held all four at
2-4%. It allocates nothing the garbage collector tracks, so it does not
move the program's collections.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

#: The calibration loop's time on the uncontended reference host (the
#: 2-core sandbox, CPython 3.11). A constant, not a per-run minimum: a
#: run that is slow from start to finish must be corrected too.
CAL_REF_S = 0.0063

#: Larger than the core's 4 MiB L2, so the strided loads miss it.
_TABLE_ENTRIES = 1_500_000


class _Cell:
    __slots__ = ("hits", "level", "seen")

    def __init__(self) -> None:
        self.hits = 0
        self.level = 1.5
        self.seen: dict[str, int] = {}

    def bump(self, key: str, value: int) -> int:
        self.hits += 1
        self.level = self.level * 0.999 + value
        seen = self.seen
        seen[key] = seen.get(key, 0) + 1
        return self.hits


class HostClock:
    """Times pieces of work in reference-host seconds."""

    def __init__(self) -> None:
        #: Host seconds spent in the calibration loop itself.
        self.calibration_s = 0.0
        self._counts: dict[int, int] = {}
        self._small = list(range(256))
        self._table = array("i", range(_TABLE_ENTRIES))
        self._cells = [_Cell() for _ in range(5_000)]
        self._keys = [f"k{i}" for i in range(1024)]
        self._index = 1
        self._before = 0.0

    def _loop(self) -> int:
        total = 0
        counts, small = self._counts, self._small
        for i in range(12_000):                     # interpreter-bound
            key = i & 255
            counts[key] = counts.get(key, 0) + small[key]
            total += (i * 7) % 13 + len(str(i))
        table, index = self._table, self._index
        for _ in range(12_000):                     # loads that miss L2
            index = (index * 1_103_515_245 + 12_345) % _TABLE_ENTRIES
            total += table[index]
        self._index = index
        cells, keys = self._cells, self._keys
        n_cells = len(cells)
        for i in range(6_000):                      # object work
            total += cells[(i * 7919) % n_cells].bump(keys[i & 1023], i)
        return total

    def _calibrate(self) -> float:
        started = time.perf_counter()
        self._loop()
        elapsed = time.perf_counter() - started
        self.calibration_s += elapsed
        return elapsed

    def mark(self) -> None:
        """Calibrate just before a timed piece."""
        self._before = self._calibrate()

    def correct(self, seconds: float) -> float:
        """Calibrate just after a piece that took ``seconds`` since the
        last :meth:`mark` (or ``correct``); returns it corrected."""
        after = self._calibrate()
        corrected = seconds * 2.0 * CAL_REF_S / (self._before + after)
        self._before = after
        return corrected

    @contextmanager
    def timed(self, parts: dict[str, list[float]], key: str):
        """Add the block to ``parts[key]`` as [corrected, raw] seconds."""
        self.mark()
        started = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - started
            entry = parts.setdefault(key, [0.0, 0.0])
            entry[0] += self.correct(raw)
            entry[1] += raw
