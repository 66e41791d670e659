"""Tests for the declarative fault model: schedules and campaigns."""

import random

import pytest

from repro.chaos import Campaign, FaultKind, FaultSpec, Schedule


def rng():
    return random.Random(0)


class TestSchedule:
    def test_once(self):
        s = Schedule.once(10.0, 5.0)
        assert s.windows(rng()) == [(10.0, 15.0)]

    def test_periodic(self):
        s = Schedule.periodic(10.0, period=10.0, duration=4.0, count=3)
        assert s.windows(rng()) == [(10.0, 14.0), (20.0, 24.0),
                                    (30.0, 34.0)]

    def test_periodic_requires_clear_before_refire(self):
        with pytest.raises(ValueError):
            Schedule.periodic(0.0, period=5.0, duration=5.0, count=2)

    def test_random_is_seed_deterministic(self):
        s = Schedule.random(0.0, window=100.0, duration=2.0, count=5)
        assert s.windows(random.Random(9)) == s.windows(random.Random(9))
        assert s.windows(random.Random(9)) != s.windows(random.Random(10))

    def test_random_windows_sorted_and_bounded(self):
        s = Schedule.random(50.0, window=30.0, duration=1.0, count=8)
        windows = s.windows(rng())
        starts = [w[0] for w in windows]
        assert starts == sorted(starts)
        assert all(50.0 <= start < 80.0 for start in starts)

    def test_random_requires_positive_window(self):
        with pytest.raises(ValueError):
            Schedule.random(0.0, window=0.0, duration=1.0, count=1)

    def test_overlapping_windows_merge(self):
        # Random draws can overlap; the expansion must never produce
        # inject-while-injected sequences.
        s = Schedule.random(0.0, window=5.0, duration=10.0, count=4)
        windows = s.windows(rng())
        for (_, end), (start, _) in zip(windows, windows[1:]):
            assert start > end


class TestCampaign:
    def spec(self, schedule, kind=FaultKind.LINK_FLAP, target="pop-0"):
        return FaultSpec(kind, target, schedule)

    def test_timeline_sorted_with_clears_first_on_ties(self):
        c = Campaign("t", duration=100.0)
        c.add(self.spec(Schedule.once(10.0, 10.0)))
        c.add(self.spec(Schedule.once(20.0, 10.0), target="pop-1"))
        edges = c.timeline()
        times = [t for t, _, _ in edges]
        assert times == sorted(times)
        at_20 = [(action, s.target) for t, action, s in edges if t == 20.0]
        # pop-0 clears before pop-1 injects at the shared instant.
        assert at_20 == [("clear", "pop-0"), ("inject", "pop-1")]

    def test_timeline_clamps_to_duration(self):
        c = Campaign("t", duration=25.0)
        c.add(self.spec(Schedule.once(20.0, 50.0)))
        c.add(self.spec(Schedule.once(30.0, 5.0), target="pop-1"))
        edges = c.timeline()
        # The second fault starts past the end: dropped entirely.
        assert all(s.target == "pop-0" for _, _, s in edges)
        assert edges[-1] == (25.0, "clear", c.faults[0])

    def test_every_inject_has_a_clear(self):
        c = Campaign("t", duration=60.0, seed=4)
        c.add(self.spec(Schedule.random(0.0, window=55.0, duration=20.0,
                                        count=4)))
        edges = c.timeline()
        injects = sum(1 for _, action, _ in edges if action == "inject")
        clears = sum(1 for _, action, _ in edges if action == "clear")
        assert injects == clears > 0

    def test_timeline_is_pure_function_of_seed(self):
        def build(seed):
            c = Campaign("t", duration=60.0, seed=seed)
            c.add(self.spec(Schedule.random(0.0, window=50.0,
                                            duration=3.0, count=3)))
            return [(t, a) for t, a, _ in c.timeline()]

        assert build(5) == build(5)
        assert build(5) != build(6)

    def test_describe(self):
        spec = FaultSpec(FaultKind.SLOW_IO, "pop-3-m1",
                         Schedule.once(0.0, 1.0), note="disk brownout")
        assert "slow_io@pop-3-m1" in spec.describe()
        assert "disk brownout" in spec.describe()
