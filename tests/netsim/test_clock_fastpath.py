"""The event loop's slim heap entries: counters, compaction, varargs."""

import pytest

from repro.netsim.clock import EventLoop


class TestPendingCounter:
    def test_pending_tracks_schedule_and_fire(self):
        loop = EventLoop()
        handles = [loop.call_at(float(i + 1), int) for i in range(10)]
        assert loop.pending == 10
        loop.cancel(handles[3])
        assert loop.pending == 9
        loop.run_until(5.0)
        assert loop.pending == 5  # events at t=6..10 remain
        loop.run()
        assert loop.pending == 0

    def test_pending_is_o1_not_a_scan(self):
        # The counter must not degrade with queue size: compare the
        # attribute's value, which a scan could get wrong after lazy
        # compaction removed cancelled entries from the heap.
        loop = EventLoop()
        handles = [loop.call_at(float(i + 1), int) for i in range(500)]
        for h in handles[::2]:
            loop.cancel(h)
        assert loop.pending == 250
        assert loop.pending == len(
            [e for e in loop._queue if e[4] == 0])

    def test_double_cancel_counts_once(self):
        loop = EventLoop()
        h = loop.call_at(1.0, int)
        other = loop.call_at(2.0, int)
        loop.cancel(h)
        loop.cancel(h)
        assert loop.pending == 1
        loop.run()
        assert not loop.cancelled(other)


class TestLazyCompaction:
    def test_cancelled_entries_are_purged_in_bulk(self):
        loop = EventLoop()
        handles = [loop.call_at(float(i + 1), int) for i in range(200)]
        # Cancel enough that dead (>=64) outnumbers alive: compaction
        # must shrink the physical heap while preserving live entries.
        for h in handles[:150]:
            loop.cancel(h)
        assert loop.pending == 50
        # Compaction fired once dead outnumbered alive (at the 101st
        # cancellation), purging every entry cancelled up to then.
        assert len(loop._queue) < 150
        loop.run()
        assert loop.events_processed == 200 - 150

    def test_firing_order_survives_compaction(self):
        loop = EventLoop()
        fired = []
        keep = []
        for i in range(200):
            handle = loop.call_at(float(i + 1), fired.append, i)
            if i % 4:
                loop.cancel(handle)
            else:
                keep.append(i)
        loop.run()
        assert fired == keep

    def test_small_cancel_counts_do_not_compact(self):
        loop = EventLoop()
        handles = [loop.call_at(float(i + 1), int) for i in range(10)]
        loop.cancel(handles[0])
        # Below the compaction threshold the dead entry lingers in the
        # heap (dropped on pop), but pending is already correct.
        assert len(loop._queue) == 10
        assert loop.pending == 9


class TestHandleSemantics:
    def test_cancel_after_fire_reads_cancelled(self):
        # Historical contract: cancelling a handle whose event already
        # ran is a no-op for execution but the handle reads cancelled.
        loop = EventLoop()
        fired = []
        h = loop.call_at(1.0, fired.append, "x")
        loop.run()
        assert fired == ["x"]
        assert not loop.cancelled(h)
        loop.cancel(h)
        assert loop.cancelled(h)
        assert loop.pending == 0  # no double-decrement


class TestVarargsScheduling:
    def test_call_at_passes_bound_args(self):
        loop = EventLoop()
        got = []
        loop.call_at(1.0, lambda *a: got.append(a), 1, "two", None)
        loop.run()
        assert got == [(1, "two", None)]

    def test_call_later_passes_bound_args(self):
        loop = EventLoop()
        got = []
        loop.call_later(0.5, got.append, 42)
        loop.run()
        assert got == [42]

    def test_rejects_past_and_negative(self):
        loop = EventLoop()
        loop.call_at(5.0, int)
        loop.run()
        with pytest.raises(ValueError):
            loop.call_at(4.0, int)
        with pytest.raises(ValueError):
            loop.call_later(-0.1, int)
