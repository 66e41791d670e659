"""``Detector.observe`` no longer divides per observation: it compares
``now`` with the current window's end and looks at the window index
again only at or past it. The version it replaced is kept here, verbatim,
as the oracle, and drawn observation streams — times on exact multiples
of the window, silent gaps, ``finalize`` in mid-stream, epochs restarted
— must leave both with the same history, alerts, state and open window.

Also here: the packet-path hooks of ``Telemetry`` resolve their feeds
when the session is built, so detectors added afterwards must still be
fed, and ``has_feed`` must keep meaning "a detector consumes this key".
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import RCode
from repro.telemetry import Telemetry, standard_detectors
from repro.telemetry.alerts import (
    AlertManager,
    GaugeDetector,
    RateDetector,
    RatioDetector,
    _Window,
)

WINDOWS = (0.1, 1.0, 5.0)


def old_observe(self, now: float, value: float) -> None:
    index = int(now // self.window)
    current = self._current
    if current is None:
        self._current = current = _Window(index)
    elif index > current.index:
        self._close_through(index)
        current = self._current
        if current is None:
            self._current = current = _Window(index)
    current.count += 1
    current.total += value
    if value > current.peak:
        current.peak = value


def detectors(cls, window: float):
    """The detector under test and its oracle, each on its own manager."""
    kwargs = dict(window=window, threshold=2.0 if cls is not RatioDetector
                  else 0.5, for_windows=2)
    if cls is RatioDetector:
        kwargs["min_count"] = 2
    oracle_cls = type("Old" + cls.__name__, (cls,), {"observe": old_observe})
    pair = []
    for kind in (cls, oracle_cls):
        manager = AlertManager()
        pair.append((manager, manager.add(kind("d", **kwargs), "feed")))
    return pair


def observable(manager, detector):
    current = detector._current
    return (list(detector.history), manager.to_dict(), detector.state,
            None if current is None else
            (current.index, current.count, current.total, current.peak))


#: One step of a stream. Times are window multiples plus an offset that is
#: often exactly zero, so observations land on the boundary floats.
steps = st.lists(st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 3),
              st.sampled_from((0.0, 0.0, 0.25, 0.5, 0.999)),
              st.sampled_from((0.0, 1.0, 1.0, 3.0))),
    st.tuples(st.just("gap"), st.integers(2, 6)),
    st.tuples(st.just("finalize"), st.sampled_from((0.0, 0.5, 1.0))),
    st.tuples(st.just("epoch")),
), max_size=60)


@given(st.sampled_from((RateDetector, RatioDetector, GaugeDetector)),
       st.sampled_from(WINDOWS), steps)
@settings(max_examples=300, deadline=None)
def test_streams_leave_the_detector_as_the_old_observe_did(cls, window,
                                                            stream):
    pair = detectors(cls, window)
    k = 0           # window number sim time is in
    epoch = 1
    for step in stream:
        if step[0] == "observe":
            k += step[1]
            # Exactly k * window, or further into that window.
            now = k * window if step[2] == 0.0 else (k + step[2]) * window
            for manager, _ in pair:
                manager.observe("feed", now, step[3])
        elif step[0] == "gap":
            k += step[1]
        elif step[0] == "finalize":
            for manager, _ in pair:
                manager.finalize((k + step[1]) * window)
        else:
            k = 0
            epoch += 1
            for manager, _ in pair:
                manager.reset_epoch(epoch)
        assert observable(*pair[0]) == observable(*pair[1])
    for manager, _ in pair:
        manager.finalize((k + 3) * window)
    assert observable(*pair[0]) == observable(*pair[1])


def test_every_boundary_float_falls_in_the_window_the_division_names():
    """The float product ``(index + 1) * window`` is compared in place of
    ``now // window``: the floats on either side of it must agree."""
    for window in WINDOWS + (0.3, 1 / 3, 7.7):
        new, old = (d for _, d in detectors(RateDetector, window))
        for index in range(1, 3000):
            edge = index * window
            for now in (math.nextafter(edge, 0.0), edge,
                        math.nextafter(edge, math.inf)):
                new.observe(now, 1.0)
                old.observe(now, 1.0)
                assert new._current.index == old._current.index \
                    == int(now // window)
        assert list(new.history) == list(old.history)


class TestFeedsResolvedOnce:
    def test_detectors_added_after_the_session_is_built_are_fed(self):
        telemetry = Telemetry()
        assert not telemetry.alerts.has_feed("qps")
        standard_detectors(telemetry.alerts, qps_threshold=5.0)
        late = telemetry.alerts.add(
            RateDetector("late", window=1.0, threshold=5.0), "qps",
            "queue_depth")
        for i in range(40):
            telemetry.query_received("m1", 0.5 + i * 0.01)
            telemetry.query_answered("m1", RCode.NXDOMAIN, 0.5 + i * 0.01)
            telemetry.queue_enqueued("m1", 0, i, 0.5 + i * 0.01)
            telemetry.queue_served("m1", i, 0.5 + i * 0.01)
        telemetry.query_received("m1", 3.5)
        by_name = {d.name: d for d in telemetry.alerts.detectors()}
        assert by_name["qps-spike"].history[0] == (0.0, 40.0)
        assert late.history[0] == (0.0, 120.0)      # qps + both queue hooks
        assert by_name["nxdomain-ratio"]._current.total == 40.0
        assert by_name["servfail-ratio"]._current.total == 0.0
        assert by_name["queue-depth"]._current.peak == 39.0

    def test_has_feed_means_a_detector_consumes_the_key(self):
        telemetry = Telemetry()
        alerts = telemetry.alerts
        # The session resolved these keys; nobody consumes them yet.
        assert not any(alerts.has_feed(key) for key in
                       ("qps", "nxdomain", "servfail", "queue_depth"))
        telemetry.query_received("m1", 0.1)         # and nobody is fed
        alerts.add(GaugeDetector("g", window=1.0, threshold=1.0),
                   "queue_depth")
        assert alerts.has_feed("queue_depth")
        assert not alerts.has_feed("qps")
        assert not alerts.has_feed("never-named")
        assert alerts.feed("queue_depth") is alerts.feed("queue_depth")

    def test_a_new_epoch_restarts_windows_the_hooks_feed(self):
        telemetry = Telemetry()
        standard_detectors(telemetry.alerts)
        qps = telemetry.alerts.detectors()[0]
        telemetry.query_received("m1", 7.25)
        assert qps._current.index == 7
        telemetry.alerts.reset_epoch(2)
        telemetry.query_received("m1", 0.25)
        assert (qps._current.index, qps._current.count) == (0, 1.0)
        assert not qps.history
