"""``Detector.observe`` no longer divides per observation: it compares
``now`` with the current window's end and looks at the window index
again only at or past it. The version it replaced is kept here, verbatim,
as the oracle, and drawn observation streams — times on exact multiples
of the window, silent gaps, ``finalize`` in mid-stream, epochs restarted
— must leave both with the same history, alerts, state and open window.

Also here: ``Telemetry.record`` feeds a row's detectors, so detectors
added after the session is built must still be fed, each at the
attached loop's ``now``, and a row with detectors needs that loop.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import RCode
from repro.netsim import EventLoop
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
        pair.append((manager, manager.add(kind("d", **kwargs),
                                          "penalty_queue_depth")))
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
            for _, detector in pair:
                detector.observe(now, step[3])
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


def _at(telemetry, loop, at, *records):
    """Make each ``(row, labels, value)`` record at ``at`` on ``loop``."""
    for record in records:
        loop.call_at(at, telemetry.record, *record)


class TestRowsFeedTheirDetectors:
    def test_detectors_added_after_the_session_is_built_are_fed(self):
        telemetry = Telemetry()
        loop = EventLoop()
        telemetry.attach_loop(loop)
        standard_detectors(telemetry.alerts)
        late = telemetry.alerts.add(
            RateDetector("late", window=1.0, threshold=5.0),
            "penalty_queue_depth")
        for i in range(40):
            _at(telemetry, loop, 0.5 + i * 0.01,
                ("queries_received_total", ("m1",), 1.0),
                ("queries_answered_total", ("m1", RCode.NXDOMAIN), 1.0),
                ("penalty_enqueued_total", ("m1", 0), 1.0),
                ("penalty_queue_depth", ("m1",), float(i)),
                ("penalty_queue_depth", ("m1",), float(i)))
        _at(telemetry, loop, 3.5, ("queries_received_total", ("m1",), 1.0),
            ("penalty_queue_depth", ("m1",), 0.0))
        loop.run_until(3.5)
        by_name = {d.name: d for d in telemetry.alerts.detectors()}
        assert by_name["qps-spike"].history[0] == (0.0, 40.0)
        assert late.history[0] == (0.0, 80.0)   # enqueue and serve depths
        assert by_name["nxdomain-ratio"]._current.total == 40.0
        assert by_name["servfail-ratio"]._current.total == 0.0
        assert by_name["servfail-ratio"]._current.count == 40.0
        assert by_name["queue-depth"].history[0] == (0.0, 39.0)

    def test_a_row_with_detectors_needs_a_loop_and_one_without_does_not(
            self):
        telemetry = Telemetry()
        standard_detectors(telemetry.alerts)
        telemetry.record("queries_dropped_total", ("m1", "io"))
        with pytest.raises(RuntimeError, match="queries_received_total"):
            telemetry.record("queries_received_total", ("m1",))
        telemetry.attach_loop(EventLoop())
        telemetry.record("queries_received_total", ("m1",))
        assert telemetry.alerts.detectors()[0]._current.count == 1.0

    def test_a_new_loop_restarts_windows_the_rows_feed(self):
        telemetry = Telemetry()
        standard_detectors(telemetry.alerts)
        qps = telemetry.alerts.detectors()[0]
        loop = EventLoop()
        telemetry.attach_loop(loop)
        _at(telemetry, loop, 7.25, ("queries_received_total", ("m1",), 1.0))
        loop.run_until(7.25)
        assert qps._current.index == 7
        telemetry.attach_loop(EventLoop())
        telemetry.record("queries_received_total", ("m1",))
        assert (qps._current.index, qps._current.count) == (0, 1.0)
        assert not qps.history
