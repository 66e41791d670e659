"""Coalesced scheduling: one heap entry per same-tick burst,
observably identical to individual ``call_at`` calls.

The network layer batches same-tick, same-link deliveries through
``call_later_coalesced``; these tests pin the contract that makes the
optimization invisible — firing order, ``pending`` /
``events_processed`` accounting, and cancellation semantics all match
unbatched scheduling.
"""

import random

import pytest

from repro.netsim.clock import EventLoop


class TestCoalescing:
    def test_consecutive_same_tick_share_one_heap_entry(self):
        loop = EventLoop()
        out = []
        h1 = loop.call_later_coalesced(1.0, out.append, "a")
        h2 = loop.call_later_coalesced(1.0, out.append, "b")
        h3 = loop.call_later_coalesced(1.0, out.append, "c")
        assert h1._entry is h2._entry is h3._entry
        assert loop.pending == 3            # logical members, not entries
        loop.run_until(2.0)
        assert out == ["a", "b", "c"]
        assert loop.pending == 0
        assert loop.events_processed == 3   # matches unbatched accounting

    def test_interleaved_schedule_breaks_the_batch(self):
        """A batch may only absorb while its entry is the most recently
        scheduled one — anything scheduled in between could legally fire
        between the members, so coalescing across it would reorder."""
        loop = EventLoop()
        out = []
        h1 = loop.call_later_coalesced(1.0, out.append, "a")
        loop.call_later(1.0, out.append, "x")     # same tick, other action
        h2 = loop.call_later_coalesced(1.0, out.append, "b")
        assert h1._entry is not h2._entry
        loop.run_until(2.0)
        assert out == ["a", "x", "b"]             # scheduling order preserved

    def test_different_time_or_action_never_coalesces(self):
        loop = EventLoop()
        out, other = [], []
        h1 = loop.call_later_coalesced(1.0, out.append, "a")
        h2 = loop.call_later_coalesced(2.0, out.append, "b")
        assert h1._entry is not h2._entry
        h3 = loop.call_later_coalesced(2.0, other.append, "c")
        assert h2._entry is not h3._entry
        loop.run_until(3.0)
        assert out == ["a", "b"] and other == ["c"]

    def test_firing_order_matches_unbatched(self):
        """Mixed coalesced/plain schedules fire in global scheduling
        order at equal timestamps."""
        batched, plain = EventLoop(), EventLoop()
        out_b, out_p = [], []
        for loop, out, coalesce in ((batched, out_b, True),
                                    (plain, out_p, False)):
            sched = (loop.call_later_coalesced if coalesce
                     else lambda d, a, x: loop.call_later(d, a, x))
            sched(1.0, out.append, 1)
            sched(1.0, out.append, 2)
            loop.call_later(1.0, out.append, 3)
            sched(1.0, out.append, 4)
            loop.run_until(2.0)
        assert out_b == out_p == [1, 2, 3, 4]
        assert batched.events_processed == plain.events_processed == 4

    @pytest.mark.parametrize("seed", range(20))
    def test_random_schedules_match_plain_call_at(self, seed):
        """The oracle ``Network`` used to carry as a switch: the same
        seeded schedule — same-tick bursts, interleaved actions, members
        cancelled before the run, callbacks that schedule more — through
        ``call_at_coalesced`` and through plain ``call_at``."""

        def run(coalesced: bool):
            rng = random.Random(seed)
            loop = EventLoop()
            fired = []
            schedule = loop.call_at_coalesced if coalesced else loop.call_at

            def sink(tag):
                def action(arg):
                    fired.append((loop.now, tag, arg))
                    if rng.random() < 0.2:
                        # A delivery that causes another, now or later.
                        schedule(loop.now + rng.choice((0.0, 0.5)),
                                 rng.choice(sinks), -arg)
                return action

            sinks = [sink(tag) for tag in "abc"]
            handles = [schedule(rng.randrange(1, 6) / 2.0,
                                rng.choice(sinks[:rng.choice((1, 3))]), i)
                       for i in range(200)]
            for handle in rng.sample(handles, 30):
                handle.cancel()
            pending = loop.pending
            loop.run()
            return fired, pending, loop.pending, loop.events_processed

        assert run(True) == run(False)


class TestBatchCancellation:
    def test_cancel_member_before_batch_runs(self):
        loop = EventLoop()
        out = []
        loop.call_later_coalesced(1.0, out.append, "a")
        victim = loop.call_later_coalesced(1.0, out.append, "b")
        loop.call_later_coalesced(1.0, out.append, "c")
        victim.cancel()
        assert victim.cancelled
        assert loop.pending == 2
        loop.run_until(2.0)
        assert out == ["a", "c"]
        assert loop.events_processed == 2

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        out = []
        loop.call_later_coalesced(1.0, out.append, "a")
        victim = loop.call_later_coalesced(1.0, out.append, "b")
        victim.cancel()
        victim.cancel()
        assert loop.pending == 1
        loop.run_until(2.0)
        assert out == ["a"]

    def test_cancelling_every_member_cancels_the_entry(self):
        loop = EventLoop()
        out = []
        h1 = loop.call_later_coalesced(1.0, out.append, "a")
        h2 = loop.call_later_coalesced(1.0, out.append, "b")
        h1.cancel()
        h2.cancel()
        assert loop.pending == 0
        loop.run_until(2.0)
        assert out == []
        assert loop.events_processed == 0

    def test_mid_batch_cancel_of_later_member(self):
        """A member's action may cancel a member later in the same
        batch; the later member must not run."""
        loop = EventLoop()
        out = []
        handles = {}
        def first(tag):
            out.append(tag)
            handles["b"].cancel()
        loop.call_later_coalesced(1.0, first, "a")
        handles["b"] = loop.call_later_coalesced(1.0, first, "b")
        loop.run_until(2.0)
        assert out == ["a"]

    def test_handle_reads_cancelled_after_run(self):
        # Documented quirk shared with EventHandle semantics: a consumed
        # slot is tombstoned, so .cancelled reads True once it has run.
        loop = EventLoop()
        h = loop.call_later_coalesced(1.0, lambda _: None, "a")
        loop.run_until(2.0)
        assert h.cancelled

    def test_stale_batch_reference_is_not_reused_after_fire(self):
        loop = EventLoop()
        out = []
        loop.call_later_coalesced(1.0, out.append, "a")
        loop.run_until(2.0)
        # Same action and an equal absolute time in the past must not
        # resurrect the fired entry.
        h = loop.call_later_coalesced(0.5, out.append, "b")
        loop.run_until(3.0)
        assert out == ["a", "b"]
        assert h.time == pytest.approx(2.5)


class TestValidation:
    def test_negative_delay_raises(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.call_later_coalesced(-0.1, lambda _: None, "a")

    def test_past_time_raises(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.call_at_coalesced(1.0, lambda _: None, "a")
