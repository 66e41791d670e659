"""Alert pipeline: hysteresis (no flapping), gap windows, queries.

Every observation is a ``Telemetry.record`` of a real metric row, made
from a real event loop attached to the session, so a detector sees
exactly what a subscribed site would hand it.
"""

import pytest

from repro.dnscore import RCode
from repro.netsim import EventLoop
from repro.telemetry import Telemetry
from repro.telemetry.alerts import (
    AlertSeverity,
    GaugeDetector,
    RateDetector,
    RatioDetector,
)

DEPTH = ("penalty_queue_depth", ("m1",))
RECEIVED = ("queries_received_total", ("m1",))


def _managed(detector, row=DEPTH[0], hit=None):
    """A session whose one detector subscribes to ``row``, on a loop."""
    telemetry = Telemetry()
    telemetry.alerts.add(detector, row, hit)
    telemetry.attach_loop(EventLoop())
    return telemetry


def _record(telemetry, points, series=DEPTH):
    """Record ``(time, value)`` points on ``series`` from the attached
    loop, then run it to the last one."""
    loop = telemetry._loop
    for at, value in points:
        loop.call_at(at, telemetry.record, *series, value)
    loop.run_until(points[-1][0])


class TestHysteresis:
    def test_sawtooth_across_threshold_does_not_flap(self):
        """Peak oscillating between raise and band: one alert, no churn.

        Threshold 10, clear floor 8 (default 0.8x): a sawtooth of 11 /
        9 / 11 / 9 ... crosses the raise threshold every other window
        but never drops below the clear floor, so the alert must raise
        exactly once and never clear.
        """
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        telemetry = _managed(det)
        _record(telemetry, [(i + 0.5, 11.0 if i % 2 == 0 else 9.0)
                            for i in range(20)])
        telemetry.alerts.finalize(20.0)
        assert len(telemetry.alerts.alerts) == 1
        assert telemetry.alerts.alerts[0].active
        assert det.firing

    def test_clears_only_below_clear_threshold(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        telemetry = _managed(det)
        values = [12.0, 12.0,          # raise
                  9.0, 9.0, 9.0, 9.0,  # band (8..10): still firing
                  5.0, 9.0,            # a calm window alone: still firing
                  5.0, 5.0,            # two calm windows: clear
                  12.0]                # fresh breach: raise again
        _record(telemetry, [(i + 0.5, value)
                            for i, value in enumerate(values)])
        telemetry.alerts.finalize(float(len(values)))
        alerts = telemetry.alerts.alerts
        assert [a.active for a in alerts] == [False, True]
        assert alerts[0].raised_at == 1.0
        assert alerts[0].cleared_at == 10.0

    def test_for_windows_debounces_single_spike(self):
        det = RateDetector("qps", window=1.0, threshold=100.0,
                           for_windows=2)
        telemetry = _managed(det, RECEIVED[0])
        # One hot window surrounded by quiet ones: no alert.
        _record(telemetry, [(3.0 + i * 0.005, 1.0) for i in range(150)],
                RECEIVED)
        telemetry.alerts.finalize(10.0)
        assert telemetry.alerts.alerts == []
        # Two consecutive hot windows: alert.
        _record(telemetry, [(11.0 + i * 0.006, 1.0) for i in range(300)],
                RECEIVED)
        telemetry.alerts.finalize(20.0)
        assert len(telemetry.alerts.alerts) == 1

    def test_band_resets_breach_streak(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0,
                            for_windows=2)
        telemetry = _managed(det)
        # breach, band, breach, band...: streak never reaches 2.
        _record(telemetry, [(i + 0.5, value) for i, value
                            in enumerate([11.0, 9.0, 11.0, 9.0, 11.0, 9.0])])
        telemetry.alerts.finalize(6.0)
        assert telemetry.alerts.alerts == []


class TestWindows:
    def test_silent_gap_clears_rate_alert(self):
        """A stream going quiet must clear a rate alert, not freeze it."""
        det = RateDetector("qps", window=1.0, threshold=5.0)
        telemetry = _managed(det, RECEIVED[0])
        # 10/s: breach. The next observation lands 6 windows later: the
        # gap windows are judged as zero and the alert clears.
        _record(telemetry, [(i * 0.05, 1.0) for i in range(10)]
                + [(7.5, 1.0)], RECEIVED)
        assert len(telemetry.alerts.alerts) == 1
        assert not telemetry.alerts.alerts[0].active

    def test_ratio_min_count_guards_idle_windows(self):
        det = RatioDetector("nxd", window=1.0, threshold=0.3,
                            min_count=10)
        telemetry = _managed(det, "queries_answered_total", "rcode=NXDOMAIN")
        # 1 hit alone: not judged 100%.
        _record(telemetry, [(0.5, 1.0)],
                ("queries_answered_total", ("m1", RCode.NXDOMAIN)))
        telemetry.alerts.finalize(2.0)
        assert telemetry.alerts.alerts == []

    def test_finalize_flushes_trailing_window(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        telemetry = _managed(det)
        _record(telemetry, [(0.5, 50.0)])
        assert telemetry.alerts.alerts == []       # window still open
        telemetry.alerts.finalize(1.0)
        assert len(telemetry.alerts.alerts) == 1


class TestManager:
    def test_a_detector_sees_only_its_row(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        telemetry = _managed(det)
        _record(telemetry, [(0.5, 99.0)], ("defense_ladder_rung", ("d",)))
        telemetry.alerts.finalize(1.0)
        assert telemetry.alerts.alerts == []
        assert det._current is None

    @pytest.mark.parametrize("row, hit, named", [
        ("qps", None, "'qps'"),
        ("queries_recieved_total", None, "'queries_recieved_total'"),
        ("queries_answered_total", "rcod=NXDOMAIN", "'rcod'"),
        ("queries_answered_total", "NXDOMAIN", "'NXDOMAIN'"),
        ("probe_seconds", "outcome=failed", "'outcome'"),
    ])
    def test_a_row_or_hit_label_the_table_lacks_raises_at_add(self, row, hit,
                                                               named):
        telemetry = Telemetry()
        with pytest.raises(ValueError, match=named):
            telemetry.alerts.add(
                GaugeDetector("d", window=1.0, threshold=1.0), row, hit)
        assert telemetry.alerts.detectors() == []

    def test_first_raise_after(self):
        telemetry = _managed(GaugeDetector("a", window=1.0, threshold=10.0))
        telemetry.alerts.add(GaugeDetector(
            "b", window=1.0, threshold=10.0,
            severity=AlertSeverity.CRITICAL), "gray_verdict_state")
        _record(telemetry, [(0.5, 20.0)])
        _record(telemetry, [(3.5, 20.0)], ("gray_verdict_state", ("m1",)))
        alerts = telemetry.alerts
        alerts.finalize(5.0)
        assert alerts.first_raise_after(0.0).name == "a"
        assert alerts.first_raise_after(0.0, name="b").raised_at == 4.0
        assert alerts.first_raise_after(10.0) is None

    def test_callbacks_fire_on_raise_and_clear(self):
        det = GaugeDetector("depth", window=1.0, threshold=10.0)
        telemetry = _managed(det)
        seen = []
        alerts = telemetry.alerts
        alerts.on_raise.append(lambda a: seen.append(("raise", a.name)))
        alerts.on_clear.append(lambda a: seen.append(("clear", a.name)))
        _record(telemetry, [(i + 0.5, value)
                            for i, value in enumerate([20.0, 1.0, 1.0])])
        alerts.finalize(3.0)
        assert seen == [("raise", "depth"), ("clear", "depth")]

    def test_a_new_loop_restarts_windows(self):
        det = RateDetector("qps", window=1.0, threshold=5.0)
        telemetry = _managed(det, RECEIVED[0])
        _record(telemetry, [(100.0 + i * 0.05, 1.0) for i in range(10)],
                RECEIVED)
        # A new world's clock restarts at zero; the old partial window
        # must not leak into its first window.
        telemetry.attach_loop(EventLoop())
        _record(telemetry, [(0.5, 1.0)], RECEIVED)
        telemetry.alerts.finalize(1.0)
        assert telemetry.alerts.alerts == []
