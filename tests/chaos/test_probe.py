"""Unit tests for the SLO probe: grading, windows, time-to-recovery.

Uses a scripted stand-in for the recursive resolver so outcomes are an
exact function of probe send time — no network, no platform.
"""

import pytest

from repro.chaos import SLOProbe
from repro.dnscore import RCode, RType
from repro.dnscore.rdata import A
from repro.dnscore.records import ResourceRecord, RRset
from repro.dnscore.rrtypes import RClass
from repro.netsim import EventLoop
from repro.resolver.resolver import ResolutionResult


def answer_rrset(qname):
    rrset = RRset(qname, RType.A)
    rrset.add(ResourceRecord(qname, RType.A, RClass.IN, 300,
                             A("203.0.113.9")))
    return rrset


class ScriptedResolver:
    """Answers each probe according to ``mode(sent_at)``.

    Modes: "ok" (fast NOERROR answer), "servfail" (fast SERVFAIL with
    two upstream timeouts), "slow" (NOERROR but far past the deadline).
    """

    def __init__(self, loop, mode=None, latency=0.05):
        self.loop = loop
        self.mode = mode or (lambda sent_at: "ok")
        self.latency = latency

    def resolve(self, qname, qtype, callback):
        sent = self.loop.now
        mode = self.mode(sent)
        delay = 5.0 if mode == "slow" else self.latency

        def finish():
            if mode == "servfail":
                result = ResolutionResult(qname, qtype, RCode.SERVFAIL,
                                          started_at=sent,
                                          finished_at=self.loop.now,
                                          timeouts=2)
            else:
                result = ResolutionResult(qname, qtype, RCode.NOERROR,
                                          chain=[(answer_rrset(qname), 300)],
                                          started_at=sent,
                                          finished_at=self.loop.now)
            callback(result)

        self.loop.call_later(delay, finish)


def run_probe(mode=None, until=20.0, period=0.5):
    loop = EventLoop()
    probe = SLOProbe(loop, ScriptedResolver(loop, mode), "probe.net",
                     period=period)
    probe.start()
    loop.run_until(until)
    probe.stop()
    loop.run_until(until + 6.0)
    return probe.report()


class TestGrading:
    def test_healthy_run_is_fully_available(self):
        report = run_probe()
        assert report.total_probes > 30
        assert report.overall_availability == 1.0
        assert report.worst_window_availability == 1.0
        assert report.total_servfails == 0
        assert report.total_timeouts == 0

    def test_servfails_counted_and_window_dips(self):
        report = run_probe(
            lambda t: "servfail" if 5.0 <= t < 10.0 else "ok")
        assert report.overall_availability < 1.0
        assert report.availability_between(5.0, 10.0) == 0.0
        assert report.availability_between(0.0, 5.0) == 1.0
        assert report.total_servfails == 10
        assert report.total_timeouts == 20
        # Exactly the window covering the outage goes dark.
        availabilities = [w.availability for w in report.windows]
        assert 0.0 in availabilities

    def test_slow_answers_violate_deadline_without_servfail(self):
        # NOERROR past the answer deadline: unavailable to the client,
        # but not an error-code failure.
        report = run_probe(
            lambda t: "slow" if 5.0 <= t < 8.0 else "ok", until=15.0)
        assert report.overall_availability < 1.0
        assert report.total_servfails == 0

    def test_mean_latency_tracks_answers(self):
        report = run_probe()
        graded = [w for w in report.windows if w.total]
        assert all(w.latency_sum / w.answered == pytest.approx(0.05)
                   for w in graded)


class TestWindows:
    def test_windows_tile_the_run(self):
        report = run_probe(until=12.0)
        assert [(w.start, w.end) for w in report.windows] == \
            [(0.0, 5.0), (5.0, 10.0), (10.0, 15.0)]
        assert report.total_probes == len(report.outcomes)

    def test_empty_report(self):
        loop = EventLoop()
        probe = SLOProbe(loop, ScriptedResolver(loop), "probe.net")
        report = probe.report()
        assert report.windows == []
        assert report.overall_availability == 1.0
        assert report.worst_window_availability == 1.0
        assert report.total_probes == 0

    def test_stop_halts_probing(self):
        loop = EventLoop()
        probe = SLOProbe(loop, ScriptedResolver(loop), "probe.net",
                         period=0.5)
        probe.start()
        loop.run_until(5.0)
        probe.stop()
        loop.run_until(6.0)          # drain in-flight callbacks
        count = len(probe.outcomes)
        loop.run_until(20.0)
        assert len(probe.outcomes) == count

    def test_invalid_cadence_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            SLOProbe(loop, ScriptedResolver(loop), "probe.net", period=0.0)


class TestTimeToRecovery:
    def outage_report(self):
        # Fail in [5, 15) except one lucky success at exactly t=8.
        return run_probe(
            lambda t: "ok" if t == 8.0 or not 5.0 <= t < 15.0
            else "servfail",
            until=25.0)

    def test_lucky_answer_in_failing_stretch_is_not_recovery(self):
        report = self.outage_report()
        # The t=8 success is followed by failures within stable_for:
        # recovery is the stable stretch starting at t=15.
        assert report.time_to_recovery(5.0) == pytest.approx(10.0)

    def test_recovery_at_clear_instant_is_zero(self):
        report = self.outage_report()
        assert report.time_to_recovery(15.0) == pytest.approx(0.0)

    def test_horizon_bounds_the_search(self):
        report = self.outage_report()
        assert report.time_to_recovery(5.0, until=12.0) is None

    def test_never_recovers_returns_none(self):
        report = run_probe(
            lambda t: "servfail" if t >= 5.0 else "ok", until=25.0)
        assert report.time_to_recovery(5.0) is None
