"""Alert pipeline: hysteresis (no flapping), gap windows, queries."""

import pytest

from repro.telemetry.alerts import (
    AlertManager,
    AlertSeverity,
    GaugeDetector,
    RateDetector,
    RatioDetector,
)


def _managed(detector, key="feed"):
    manager = AlertManager()
    manager.add(detector, key)
    return manager


class TestHysteresis:
    def test_sawtooth_across_threshold_does_not_flap(self):
        """Peak oscillating between raise and band: one alert, no churn.

        Threshold 10, clear floor 8 (default 0.8x): a sawtooth of 11 /
        9 / 11 / 9 ... crosses the raise threshold every other window
        but never drops below the clear floor, so the alert must raise
        exactly once and never clear.
        """
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        manager = _managed(det)
        for i in range(20):
            manager.observe("feed", i + 0.5, 11.0 if i % 2 == 0 else 9.0)
        manager.finalize(20.0)
        assert len(manager.alerts) == 1
        assert manager.alerts[0].active
        assert det.firing

    def test_clears_only_below_clear_threshold(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        manager = _managed(det)
        values = [12.0, 12.0,          # raise
                  9.0, 9.0, 9.0, 9.0,  # band (8..10): still firing
                  5.0, 9.0,            # a calm window alone: still firing
                  5.0, 5.0,            # two calm windows: clear
                  12.0]                # fresh breach: raise again
        for i, value in enumerate(values):
            manager.observe("feed", i + 0.5, value)
        manager.finalize(float(len(values)))
        assert [a.active for a in manager.alerts] == [False, True]
        first = manager.alerts[0]
        assert first.raised_at == 1.0
        assert first.cleared_at == 10.0

    def test_for_windows_debounces_single_spike(self):
        det = RateDetector("qps", window=1.0, threshold=100.0,
                           for_windows=2)
        manager = _managed(det)
        # One hot window surrounded by quiet ones: no alert.
        for i in range(150):
            manager.observe("feed", 3.0 + i * 0.005, 1.0)
        manager.finalize(10.0)
        assert manager.alerts == []
        # Two consecutive hot windows: alert.
        for i in range(300):
            manager.observe("feed", 11.0 + i * 0.006, 1.0)
        manager.finalize(20.0)
        assert len(manager.alerts) == 1

    def test_band_resets_breach_streak(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0,
                            for_windows=2)
        manager = _managed(det)
        # breach, band, breach, band...: streak never reaches 2.
        for i, value in enumerate([11.0, 9.0, 11.0, 9.0, 11.0, 9.0]):
            manager.observe("feed", i + 0.5, value)
        manager.finalize(6.0)
        assert manager.alerts == []


class TestWindows:
    def test_silent_gap_clears_rate_alert(self):
        """A stream going quiet must clear a rate alert, not freeze it."""
        det = RateDetector("qps", window=1.0, threshold=5.0)
        manager = _managed(det)
        for i in range(10):
            manager.observe("feed", 0.0 + i * 0.05, 1.0)  # 10/s: breach
        # Next observation lands 6 windows later: the gap windows are
        # judged as zero and the alert clears.
        manager.observe("feed", 7.5, 1.0)
        assert len(manager.alerts) == 1
        assert not manager.alerts[0].active

    def test_ratio_min_count_guards_idle_windows(self):
        det = RatioDetector("nxd", window=1.0, threshold=0.3,
                            min_count=10)
        manager = _managed(det)
        manager.observe("feed", 0.5, 1.0)  # 1 hit alone: not judged 100%
        manager.finalize(2.0)
        assert manager.alerts == []

    def test_finalize_flushes_trailing_window(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        manager = _managed(det)
        manager.observe("feed", 0.5, 50.0)
        assert manager.alerts == []       # window still open
        manager.finalize(1.0)
        assert len(manager.alerts) == 1


class TestManager:
    def test_feed_routing_and_unknown_keys(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        manager = _managed(det, "queue_depth")
        manager.observe("other_feed", 0.5, 99.0)  # ignored
        manager.finalize(1.0)
        assert manager.alerts == []

    def test_add_requires_feed_key(self):
        manager = AlertManager()
        with pytest.raises(ValueError):
            manager.add(GaugeDetector("d", window=1.0, threshold=1.0))

    def test_first_raise_after(self):
        manager = AlertManager()
        manager.add(GaugeDetector("a", window=1.0, threshold=10.0), "x")
        manager.add(GaugeDetector("b", window=1.0, threshold=10.0,
                                  severity=AlertSeverity.CRITICAL), "y")
        manager.observe("x", 0.5, 20.0)
        manager.observe("y", 3.5, 20.0)
        manager.finalize(5.0)
        assert manager.first_raise_after(0.0).name == "a"
        assert manager.first_raise_after(0.0, name="b").raised_at == 4.0
        assert manager.first_raise_after(10.0) is None

    def test_callbacks_fire_on_raise_and_clear(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        manager = _managed(det)
        seen = []
        manager.on_raise.append(lambda a: seen.append(("raise", a.name)))
        manager.on_clear.append(lambda a: seen.append(("clear", a.name)))
        for i, value in enumerate([20.0, 1.0, 1.0]):
            manager.observe("feed", i + 0.5, value)
        manager.finalize(3.0)
        assert seen == [("raise", "depth"), ("clear", "depth")]

    def test_reset_epoch_restarts_windows(self):
        det = RateDetector("qps", window=1.0, threshold=5.0)
        manager = _managed(det)
        for i in range(10):
            manager.observe("feed", 100.0 + i * 0.05, 1.0)
        manager.reset_epoch(2)
        # New epoch's clock restarts at zero; old partial window must
        # not leak into the new world's first window.
        manager.observe("feed", 0.5, 1.0)
        manager.finalize(1.0)
        assert manager.alerts == []
