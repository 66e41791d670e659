"""Every rule flags the defect planted for it, and nothing before it.

The table is tests/lint/mutants.py; rows a runtime proof catches are
not run here (the proof is itself a tier-1 test), only checked to still
fit the source.
"""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, lint_source

from .mutants import MUTANTS, plant

REPO_ROOT = Path(__file__).resolve().parents[2]
RULE_CODES = {rule.code for rule in ALL_RULES}


def test_every_rule_has_a_mutant():
    assert RULE_CODES <= {mutant.caught_by for mutant in MUTANTS}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_planted_defect_is_flagged(mutant):
    source = (REPO_ROOT / mutant.path).read_text()
    planted = plant(mutant, source)
    if mutant.caught_by in RULE_CODES:
        assert lint_source(source, path=mutant.path) == []
        assert mutant.caught_by in {
            finding.code for finding in lint_source(planted, mutant.path)}
    else:
        assert (REPO_ROOT / mutant.caught_by.split("::")[0]).is_file()
