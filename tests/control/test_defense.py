"""Defense ladder: arming, escalation, hysteresis, unwind, guardrail.

The controller is driven end-to-end through a real event loop and the
real alert pipeline: a ``GaugeDetector`` subscribed to the
``penalty_queue_depth`` row, recorded from the loop, raises/clears
exactly like the scorecard's QPS detector, while
recording rungs log every engage/disengage with its timestamp. All
schedules (feed observations, traffic pumps) are installed up front, so
at equal times they run before the controller's later-scheduled ticks —
the timings asserted below are exact, not approximate. The detector
raises at the end of the first breached 1 s window and clears at the end
of the second calm one; the controller ticks every second from the
raise, engages after ``FOR_TICKS`` = 3 active ticks, soaks each rung
``SOAK_SECONDS`` = 6 and unwinds one rung per ``CLEAR_TICKS`` = 3 calm
ticks.
"""

import pytest

from repro.control.defense import (
    ATTACK_QPS_ALERT,
    DefenseController,
    DefenseRung,
)
from repro.netsim import EventLoop
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry import state as telemetry_state
from repro.telemetry.alerts import Alert, AlertSeverity, GaugeDetector


class RecordingRung(DefenseRung):
    """A rung that logs transitions instead of mutating anything."""

    def __init__(self, name, log, **kwargs):
        super().__init__(name, **kwargs)
        self.log = log

    def engage(self, now):
        self.log.append((now, self.name, "engage"))

    def disengage(self, now):
        self.log.append((now, self.name, "disengage"))


class FakeMachine:
    """Records degraded-mode transitions the controller pushes at it."""

    def __init__(self):
        self.modes = []

    def enter_degraded(self, rung_label):
        self.modes.append(("enter", rung_label))

    def exit_degraded(self):
        self.modes.append(("exit",))


def make_session(n_rungs=3, *, estimator=None, machines=(),
                 ladder=None, log=None):
    loop = EventLoop()
    telemetry = Telemetry(TelemetryConfig(arm_mitigations=True))
    telemetry.attach_loop(loop)
    telemetry.alerts.add(
        GaugeDetector("attack-qps", window=1.0, threshold=10.0),
        "penalty_queue_depth")
    if log is None:
        log = []
    if ladder is None:
        ladder = [RecordingRung(f"rung-{i}", log) for i in range(n_rungs)]
    controller = DefenseController(
        loop, ladder, estimator=estimator, machines=machines).arm(telemetry)
    return loop, telemetry, controller, log


def feed(loop, telemetry, value_fn, until, period=0.5):
    """Schedule a record of the detector's row every ``period`` seconds."""
    steps = int(round(until / period))
    for i in range(1, steps + 1):
        t = i * period
        loop.call_at(t, telemetry.record, "penalty_queue_depth", ("victim",),
                     value_fn(t))


def attack_between(start, end):
    """A feed that breaches the detector on [start, end)."""
    return lambda t: 50.0 if start <= t < end else 0.0


def engages(log):
    return [(t, rung) for t, rung, action in log if action == "engage"]


def disengages(log):
    return [(t, rung) for t, rung, action in log if action == "disengage"]


class TestArming:
    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            DefenseController(EventLoop(), [])

    def test_passive_session_refuses_arming(self):
        loop = EventLoop()
        assert Telemetry().config.arm_mitigations is False     # the default
        telemetry = Telemetry(TelemetryConfig(arm_mitigations=False))
        controller = DefenseController(loop, [RecordingRung("r", [])])
        with pytest.raises(ValueError):
            controller.arm(telemetry)
        # Refusal means no callbacks were attached either.
        assert telemetry.alerts.on_raise == []
        assert telemetry.alerts.on_clear == []

    def test_arm_is_idempotent(self):
        loop, telemetry, controller, _ = make_session()
        controller.arm(telemetry)
        assert len(telemetry.alerts.on_raise) == 1
        assert len(telemetry.alerts.on_clear) == 1

    def test_quiet_armed_run_schedules_nothing(self):
        # The byte-identity contract: an armed controller must not
        # perturb the loop until the first alert raise.
        loop, telemetry, controller, log = make_session()
        assert loop.pending == 0
        loop.run_until(60.0)
        assert controller.level == 0
        assert controller.transitions == []
        assert log == []


class TestEscalation:
    def test_climbs_one_rung_per_soak_in_order(self):
        loop, telemetry, controller, log = make_session(3)
        feed(loop, telemetry, attack_between(0.0, 20.0), until=40.0)
        loop.run_until(45.0)
        # Raise at t=1.0; three ticks later the first rung engages,
        # then one rung per 6 s soak.
        assert engages(log) == [(4.0, "rung-0"), (10.0, "rung-1"),
                                (16.0, "rung-2")]
        assert controller.max_level == 3

    def test_engage_waits_for_ticks(self):
        # Raised at 1.0 and clear again at 4.0: active at the ticks at
        # 2.0 and 3.0 only, one short of engaging.
        loop, telemetry, controller, log = make_session(1)
        feed(loop, telemetry, attack_between(0.0, 1.5), until=10.0)
        loop.run_until(15.0)
        assert [a.raised_at for a in telemetry.alerts.alerts] == [1.0]
        assert log == []
        assert loop.pending == 0

    def test_transition_levels_recorded(self):
        loop, telemetry, controller, _ = make_session(2)
        feed(loop, telemetry, attack_between(0.0, 14.0), until=30.0)
        loop.run_until(35.0)
        assert [(t.action, t.level) for t in controller.transitions] == [
            ("engage", 1), ("engage", 2),
            ("disengage", 1), ("disengage", 0)]


class TestUnwind:
    def test_unwinds_in_reverse_after_clear(self):
        loop, telemetry, controller, log = make_session(3)
        feed(loop, telemetry, attack_between(0.0, 20.0), until=40.0)
        loop.run_until(45.0)
        # Alert clears at t=22; three calm ticks per rung, mildest
        # rung last.
        assert disengages(log) == [(24.0, "rung-2"), (27.0, "rung-1"),
                                   (30.0, "rung-0")]
        assert controller.level == 0
        assert controller.unwound_at() == 30.0
        # Ticking stops once fully unwound: nothing left pending after
        # the feed runs out.
        loop.run_until(60.0)
        assert loop.pending == 0

    def test_brief_dip_does_not_unwind(self):
        # The detector clears during a two-window lull (calm at the
        # tick at 10.0 only), but it takes three calm ticks to unwind:
        # the engaged rung stays until the attack genuinely stops.
        def value(t):
            if 8.0 <= t < 10.0:
                return 0.0
            return 50.0 if t < 20.0 else 0.0

        loop, telemetry, controller, log = make_session(2)
        feed(loop, telemetry, value, until=40.0)
        loop.run_until(45.0)
        assert len(telemetry.alerts.alerts) == 2
        down = disengages(log)
        assert all(t > 20.0 for t, _ in down)
        # Each rung engaged exactly once: no flapping through the dip.
        up = engages(log)
        assert sorted(rung for _, rung in up) == ["rung-0", "rung-1"]
        assert controller.level == 0


class TestGuardrail:
    @staticmethod
    def wire_traffic(loop, counters, answered_until, until, period=0.5):
        """Pump known-resolver counters: 2 received (and, while
        healthy, 2 answered) per pump."""
        def pump():
            counters["received"] += 2
            if counters["healthy"] and loop.now < answered_until:
                counters["answered"] += 2

        steps = int(round(until / period))
        for i in range(1, steps + 1):
            loop.call_at(i * period, pump)

    def make_guarded(self, ladder_names, counters, **rung_kwargs):
        log = []
        ladder = []
        for rung_name in ladder_names:
            kwargs = dict(rung_kwargs.get(rung_name, {}))
            ladder.append(RecordingRung(rung_name, log, **kwargs))

        def estimator():
            return counters["received"], counters["answered"]

        loop, telemetry, controller, _ = make_session(
            ladder=ladder, log=log, estimator=estimator)
        return loop, telemetry, controller, log, ladder

    def test_lossy_rung_reverted_and_latched(self):
        counters = {"received": 0, "answered": 0, "healthy": True}
        loop, telemetry, controller, log, ladder = self.make_guarded(
            ["bad-rung", "good-rung"], counters,
            **{"bad-rung": dict(cool_off_seconds=30.0)})

        bad = ladder[0]
        orig_engage, orig_disengage = bad.engage, bad.disengage

        def lossy_engage(now):
            counters["healthy"] = False
            orig_engage(now)

        def lossy_disengage(now):
            counters["healthy"] = True
            orig_disengage(now)

        bad.engage = lossy_engage
        bad.disengage = lossy_disengage

        self.wire_traffic(loop, counters, answered_until=1e9, until=40.0)
        feed(loop, telemetry, attack_between(0.0, 20.0), until=40.0)
        loop.run_until(45.0)

        # bad-rung engaged at 4.0; one tick of 100% known-resolver loss
        # (vs attack_loss 0) reverts it and latches it for 30 s.
        assert controller.reverts == 1
        assert controller.latched_until == {0: 35.0}
        reverts = [t for t in controller.transitions
                   if t.action == "revert"]
        assert [(t.time, t.rung) for t in reverts] == [(5.0, "bad-rung")]
        assert "latched 30s" in reverts[0].detail
        # Three active ticks from the revert's own and the ladder
        # climbs past the latched rung to good-rung; it never re-tries
        # bad-rung (latched beyond the attack's end).
        assert engages(log) == [(4.0, "bad-rung"), (7.0, "good-rung")]
        assert controller.unwound_at() == 24.0
        assert controller.attack_loss is None

    def test_attack_loss_is_tolerated(self):
        # The attack itself sheds every known-resolver answer before
        # any rung engages; a rung causing the *same* loss is within
        # the relative guardrail and must not be blamed.
        counters = {"received": 0, "answered": 0, "healthy": True}
        loop, telemetry, controller, log, _ = self.make_guarded(
            ["rung-0", "rung-1"], counters)
        self.wire_traffic(loop, counters, answered_until=1.0, until=40.0)
        feed(loop, telemetry, attack_between(0.0, 20.0), until=40.0)
        loop.run_until(45.0)
        assert controller.reverts == 0
        assert controller.max_level == 2
        assert [t for t in controller.transitions
                if t.action == "revert"] == []

    def test_rebaseline_after_empty_revert(self):
        # Attack damage begins with the first engage, so rung-0 is
        # (unavoidably) blamed and reverted, emptying the ladder
        # mid-attack. The baseline must be re-measured there: rung-1
        # then engages under 100% ambient loss and survives. Without
        # the re-baseline it would be judged against a stale healthy
        # sample and falsely reverted too.
        counters = {"received": 0, "answered": 0, "healthy": True}
        loop, telemetry, controller, log, _ = self.make_guarded(
            ["rung-0", "rung-1"], counters)
        self.wire_traffic(loop, counters, answered_until=4.25, until=40.0)
        feed(loop, telemetry, attack_between(0.0, 20.0), until=40.0)
        loop.run_until(45.0)
        assert [(t.time, t.rung) for t in controller.transitions
                if t.action == "revert"] == [(5.0, "rung-0")]
        # rung-1 engages after the revert and holds until the attack
        # clears — its 100% loss matched the re-measured attack loss.
        # (The guardrail revert at 5.0 also shows as a rung disengage.)
        assert engages(log) == [(4.0, "rung-0"), (7.0, "rung-1")]
        assert disengages(log) == [(5.0, "rung-0"), (24.0, "rung-1")]
        assert controller.unwound_at() == 24.0

    def test_too_few_samples_defers_judgement(self):
        loop, telemetry, controller, log = make_session(
            2, estimator=lambda: (2, 0))
        feed(loop, telemetry, attack_between(0.0, 14.0), until=30.0)
        loop.run_until(35.0)
        # Two known-resolver queries ever: below min_samples, so the
        # guardrail never judges and the ladder climbs normally.
        assert controller.reverts == 0
        assert controller.max_level == 2


class TestLadderSpans:
    def test_one_climb_and_unwind_is_one_root_with_an_instant_per_move(self):
        """A full-sampling armed session: the first engage opens one
        ``defense.ladder`` root, every engage, revert and disengage marks
        it with an instant naming the rung and the level after the move,
        and the unwind to level 0 closes it. The alert is raised at 1.0
        and cleared at 20.0 through the callbacks ``arm`` attached; the
        middle rung sheds every known-resolver answer, so the guardrail
        reverts it one tick after it engages."""
        counters = {"received": 0, "answered": 0}
        healthy = [True]
        log = []

        class LossyRung(RecordingRung):
            def engage(self, now):
                healthy[0] = False
                super().engage(now)

            def disengage(self, now):
                healthy[0] = True
                super().disengage(now)

        def pump():
            counters["received"] += 2
            if healthy[0]:
                counters["answered"] += 2

        ladder = [RecordingRung("rung-0", log), LossyRung("bad-rung", log),
                  RecordingRung("rung-2", log)]
        telemetry = Telemetry(TelemetryConfig(trace_sample_rate=1.0,
                                              arm_mitigations=True))
        with telemetry_state.session(telemetry):
            loop = EventLoop()
            DefenseController(
                loop, ladder, machines=[FakeMachine()],
                estimator=lambda: (counters["received"],
                                   counters["answered"])).arm(telemetry)
            alert = Alert(ATTACK_QPS_ALERT, AlertSeverity.CRITICAL, 1, 1.0,
                          0.0, 0.0, "")
            loop.call_at(1.0, lambda: [raised(alert) for raised
                                       in telemetry.alerts.on_raise])
            loop.call_at(20.0, lambda: [cleared(alert) for cleared
                                        in telemetry.alerts.on_clear])
            for i in range(1, 81):
                loop.call_at(i * 0.5, pump)
            loop.run_until(45.0)

        [root] = telemetry.tracer.spans
        assert (root.name, root.component, root.parent_id, root.epoch,
                root.start, root.end) == ("defense.ladder", "defense", None,
                                          1, 4.0, 25.0)
        assert [(e.trace_id, e.name, e.component, e.time, e.attrs)
                for e in telemetry.tracer.events] == [
            (root.trace_id, f"defense.{action}", "defense", time,
             {"rung": rung, "level": level})
            for action, time, rung, level in (
                ("engage", 4.0, "rung-0", 1),
                ("engage", 10.0, "bad-rung", 2),
                ("revert", 11.0, "bad-rung", 1),
                ("engage", 17.0, "rung-2", 2),
                ("disengage", 22.0, "rung-2", 1),
                ("disengage", 25.0, "rung-0", 0))]


class TestDegradedWiring:
    def test_machines_track_ladder_top(self):
        machine = FakeMachine()
        loop, telemetry, controller, _ = make_session(
            2, machines=[machine])
        feed(loop, telemetry, attack_between(0.0, 14.0), until=30.0)
        loop.run_until(35.0)
        # Degraded attribution follows the top of the stack; exit only
        # at level 0.
        assert machine.modes == [("enter", "rung-0"), ("enter", "rung-1"),
                                 ("enter", "rung-0"), ("exit",)]
