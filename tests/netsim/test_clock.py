"""Tests for the discrete-event engine."""

import pytest

from repro.netsim import EventLoop, PeriodicTask


class TestEventLoop:
    def test_ordering(self):
        loop = EventLoop()
        fired = []
        loop.call_at(2.0, lambda: fired.append("b"))
        loop.call_at(1.0, lambda: fired.append("a"))
        loop.call_at(3.0, lambda: fired.append("c"))
        loop.run()
        assert fired == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_equal_times_fire_in_schedule_order(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.call_at(1.0, lambda i=i: fired.append(i))
        loop.run()
        assert fired == list(range(10))

    def test_call_later(self):
        loop = EventLoop()
        seen = []
        loop.call_later(5.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [5.0]

    def test_run_until_stops_and_advances(self):
        loop = EventLoop()
        fired = []
        loop.call_at(1.0, lambda: fired.append(1))
        loop.call_at(10.0, lambda: fired.append(10))
        loop.run_until(5.0)
        assert fired == [1]
        assert loop.now == 5.0
        loop.run_until(20.0)
        assert fired == [1, 10]

    def test_cancel(self):
        loop = EventLoop()
        fired = []
        handle = loop.call_at(1.0, lambda: fired.append(1))
        handle.cancel()
        # An event may cancel a later event of its own instant.
        loop.call_at(2.0, lambda: later.cancel())
        later = loop.call_at(2.0, lambda: fired.append(2))
        loop.run()
        assert fired == []
        assert handle.cancelled and later.cancelled
        assert loop.events_processed == 1

    def test_past_scheduling_rejected(self):
        loop = EventLoop()
        loop.call_at(5.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.call_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            loop.call_later(-1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        loop = EventLoop()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                loop.call_later(1.0, lambda: chain(n + 1))

        loop.call_at(0.0, lambda: chain(0))
        loop.run()
        assert fired == [0, 1, 2, 3]
        assert loop.now == 3.0


class TestRewind:
    """``rewind`` moves a pending event earlier, to where it would have
    fired had it been scheduled for that time in the first place."""

    def test_keeps_its_place_among_events_of_one_instant(self):
        loop = EventLoop()
        fired = []
        loop.call_at(1.0, fired.append, "a")
        late = loop.call_at(9.0, fired.append, "late")
        loop.call_at(1.0, fired.append, "c")
        assert loop.rewind(late, 1.0, fired.append, "b")
        assert late.cancelled and loop.pending == 3
        loop.run()
        assert fired == ["a", "b", "c"]
        assert loop.events_processed == 3

    def test_a_place_behind_the_running_event_is_gone(self):
        loop = EventLoop()
        fired = []
        late = loop.call_at(9.0, fired.append, "late")

        def strike():
            fired.append(loop.rewind(late, 1.0, fired.append, "rewound"))

        loop.call_at(1.0, strike)       # scheduled after ``late``
        loop.run()
        assert fired == [False, "late"]

    def test_time_already_passed_or_fully_run(self):
        loop = EventLoop()
        fired = []
        late = loop.call_at(9.0, fired.append, "late")
        loop.run_until(2.0)
        assert not loop.rewind(late, 1.0, fired.append, "rewound")
        # Everything due at t=2 has run, the event's place included.
        assert not loop.rewind(late, 2.0, fired.append, "rewound")
        assert loop.rewind(late, 2.5, fired.append, "rewound")
        fresh = loop.call_at(9.0, fired.append, "fresh")
        assert loop.rewind(fresh, 2.0, fired.append, "fresh, now")
        loop.run()
        assert fired == ["fresh, now", "rewound"]


class TestPeriodicTask:
    def test_fires_at_period(self):
        loop = EventLoop()
        times = []
        task = PeriodicTask(loop, 2.0, lambda: times.append(loop.now))
        loop.run_until(7.0)
        assert times == [0.0, 2.0, 4.0, 6.0]
        task.stop()
        loop.run_until(20.0)
        assert len(times) == 4

    def test_start_delay(self):
        loop = EventLoop()
        times = []
        PeriodicTask(loop, 5.0, lambda: times.append(loop.now),
                     start_delay=1.0)
        loop.run_until(11.5)
        assert times == [1.0, 6.0, 11.0]

    def test_stop_inside_action(self):
        loop = EventLoop()
        count = [0]

        def action():
            count[0] += 1
            if count[0] == 2:
                task.stop()

        task = PeriodicTask(loop, 1.0, action)
        loop.run_until(10.0)
        assert count[0] == 2

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicTask(EventLoop(), 0.0, lambda: None)
