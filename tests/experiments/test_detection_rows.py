"""The detection rows off seed 42 and at the paper's scale.

A campaign that expects a dip is graded twice on it: the availability
row wants the dip visible, the detection row wants the probe-failure
alert. Both read ``VISIBLE_DIP_RATIO``; for six PRs they did not, the
paper-scale ``defense-guardrail`` row was red (worst window 80 %, alert
threshold 25 % failures) and tier-1, which ran ``--fast`` at seed 42
only, stayed green.

Also the grader's own rules: which recovery is the worst, and that the
availability row's healthy baseline is the first ``WARMUP`` seconds of
probing, not [0, ``WARMUP``) of loop time, which the probe never sees.
"""

import pytest

from repro.chaos import Campaign, FaultKind, FaultSpec, Schedule
from repro.experiments import resilience_scorecard as scorecard

EXPECT_DIP = [entry.name for entry in scorecard.SUITES["standard"]
              if entry.slo.expect_dip]


@pytest.mark.parametrize("seed", (42, 7, 977))
@pytest.mark.parametrize("name", EXPECT_DIP)
def test_expected_dip_is_visible_and_detected_at_fast_scale(name, seed):
    result = scorecard.run(scorecard.ScorecardParams.fast(seed=seed),
                           only=name)
    assert f"{name}.ttd_s" in result.metrics
    assert result.all_hold, result.render()


def test_defense_guardrail_is_detected_at_paper_scale():
    result = scorecard.run(scorecard.ScorecardParams(),
                           only="defense-guardrail")
    worst = result.metrics["defense-guardrail.worst_window"]
    assert worst < 1.0 - scorecard.VISIBLE_DIP_RATIO
    assert result.metrics["defense-guardrail.ttd_s"] \
        <= scorecard.MAX_DETECTION_SECONDS
    assert result.all_hold, result.render()


class TestWorstRecovery:
    def test_no_clears_is_an_instant_recovery(self):
        assert scorecard.worst_recovery([]) == 0.0

    def test_a_final_clear_that_never_recovers_is_none(self):
        recoveries = [("a", 10.0, 2.0), ("b", 30.0, None)]
        assert scorecard.worst_recovery(recoveries) is None

    def test_a_masked_earlier_clear_yields_the_largest_measured(self):
        recoveries = [("a", 10.0, None), ("b", 20.0, 4.5),
                      ("c", 30.0, 1.5)]
        assert scorecard.worst_recovery(recoveries) == 4.5


def test_damage_inside_the_baseline_window_misses_availability(
        monkeypatch):
    # An SLO that forgives any dip, and damage only in the first WARMUP
    # seconds after the probe starts: the baseline clause alone must
    # fail the availability row.
    def early_corruption(deployment):
        campaign = Campaign("early-corruption", duration=60.0)
        return campaign.add(FaultSpec(
            FaultKind.ZONE_CORRUPTION, scorecard.PROBE_ZONE,
            Schedule.once(0.0, scorecard.WARMUP)))
    entry = scorecard.SuiteEntry(
        "early-corruption",
        scorecard.CampaignSLO(min_overall=0.0, min_worst_window=0.0),
        early_corruption)
    monkeypatch.setitem(scorecard.SUITES, "baseline", (entry,))
    result = scorecard.run_unit(scorecard.ScorecardParams.fast(), 0,
                                suite="baseline")
    row = next(c for c in result.comparisons
               if c.metric == "early-corruption: availability through "
                             "the campaign")
    assert result.metrics["early-corruption.worst_window"] < 1.0
    assert not row.holds, result.render()
