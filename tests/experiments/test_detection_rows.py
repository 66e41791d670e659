"""The detection rows off seed 42 and at the paper's scale.

A campaign that expects a dip is graded twice on it: the availability
row wants the dip visible, the detection row wants the probe-failure
alert. Both read ``VISIBLE_DIP_RATIO``; for six PRs they did not, the
paper-scale ``defense-guardrail`` row was red (worst window 80 %, alert
threshold 25 % failures) and tier-1, which ran ``--fast`` at seed 42
only, stayed green.
"""

import pytest

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
