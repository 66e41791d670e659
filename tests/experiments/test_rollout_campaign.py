"""The rollout campaigns: containment holds and runs are deterministic.

Also pins the suite tables: every row is known without a world, and a
campaign is bound on the one platform it runs on.
"""

import json

import pytest

from repro.experiments import parallel
from repro.experiments import resilience_scorecard as scorecard
from repro.platform.deployment import AkamaiDNSDeployment

PARAMS = scorecard.ScorecardParams.fast()


def index_of(name):
    for i, entry in enumerate(scorecard.SUITES["standard"]):
        if entry.name == name:
            return i
    raise AssertionError(f"campaign {name!r} not in the standard suite")


def serialized(result):
    return json.dumps(result.to_dict(include_series=True),
                      sort_keys=True).encode("utf-8")


@pytest.fixture
def platforms_built(monkeypatch):
    """One entry per ``AkamaiDNSDeployment`` constructed from here on."""
    built = []
    init = AkamaiDNSDeployment.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)  # a count: holding the worlds would pin them
        init(self, *args, **kwargs)

    monkeypatch.setattr(AkamaiDNSDeployment, "__init__", counting_init)
    return built


class TestContainmentCampaign:
    def test_double_run_is_byte_identical(self, platforms_built):
        index = index_of("rollout-containment")
        first = scorecard.run_unit(PARAMS, index)
        assert len(platforms_built) == 1
        second = scorecard.run_unit(PARAMS, index)
        assert serialized(first) == serialized(second)
        assert first.all_hold

    def test_blast_radius_confined_to_canaries(self):
        entry = scorecard.SUITES["standard"][index_of("rollout-containment")]
        assert entry.slo.rollout and entry.slo.contain_blast
        outcome = scorecard.run_campaign(PARAMS, entry)
        hit = set(outcome.blast)
        assert hit, "the corruption never reached a canary"
        assert hit <= set(outcome.canary_ids), \
            f"blast escaped the cohort: {hit - set(outcome.canary_ids)}"
        assert outcome.rollback_complete_seconds is not None
        assert outcome.rollback_complete_seconds <= scorecard.ROLLOUT_SOAK


def test_scorecard_is_deterministic():
    # The point of seeded chaos is that a resilience regression shows
    # up as a diff: two same-seed runs of the whole suite must agree
    # digit for digit, off the default seed too.
    first = scorecard.run(scorecard.ScorecardParams.fast(seed=7))
    second = scorecard.run(scorecard.ScorecardParams.fast(seed=7))
    assert first.render() == second.render()
    assert first.metrics == second.metrics


class TestValidationCampaign:
    def test_all_bad_releases_rejected_without_blast(self):
        index = index_of("rollout-validation")
        result = scorecard.run_unit(PARAMS, index)
        assert result.all_hold
        assert result.metrics["rollout-validation.rejections"] == 3.0


class TestCampaignFilter:
    def test_only_substring_selects_campaigns(self, platforms_built):
        result = scorecard.run(PARAMS, only="rollout-validation")
        names = {comp.metric.split(":")[0] for comp in result.comparisons}
        assert names == {"rollout-validation"}
        assert len(platforms_built) == 1

    def test_unknown_filter_exits(self, platforms_built, capsys):
        with pytest.raises(ValueError, match="gray-quorum-guard"):
            scorecard.run(PARAMS, only="no-such-campaign", suite="gray")
        with pytest.raises(SystemExit) as exit_info:
            scorecard.main(["--fast", "--campaign", "no-such-campaign"])
        # argparse's usage status; 1 would read as "an SLO row missed".
        assert exit_info.value.code == 2
        assert "rollout-containment" in capsys.readouterr().err
        assert not platforms_built

    def test_cli_suite_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            scorecard.main(["--fast", "--dnssec", "--gray"])
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestSuiteTables:
    def test_counting_units_builds_no_platform(self, platforms_built):
        assert scorecard.unit_count() == len(scorecard.SUITES["standard"])
        units = parallel.work_units(True)
        assert sum(1 for label, _ in units if label == "resilience") \
            == scorecard.unit_count()
        assert not platforms_built

    @pytest.mark.parametrize("suite", sorted(scorecard.SUITES))
    def test_rows_name_their_campaigns_and_bind_the_same_anywhere(
            self, suite):
        # The targets a binder reads (PoP, cloud and machine names, the
        # suspension budget) do not depend on the build flags, so the
        # campaign bound on the entry's own platform is the campaign a
        # plain platform would have given.
        plain = scorecard.build_deployment(PARAMS)
        for entry in scorecard.SUITES[suite]:
            slo = entry.slo
            own = scorecard.build_deployment(
                PARAMS, rollout=slo.rollout, defense=slo.defense,
                gray=slo.gray)
            bound = entry.bind(own)
            assert bound.name == entry.name
            assert bound == entry.bind(plain)
