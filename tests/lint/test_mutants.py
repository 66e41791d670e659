"""Every rule flags the defect planted for it.

The table is tests/lint/mutants.py; rows a runtime proof catches are
not run here (the proof is itself a tier-1 test), only checked to still
fit the source. That the unplanted files are clean is
test_codebase_clean.py's job.
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
    planted = plant(mutant, (REPO_ROOT / mutant.path).read_text())
    if mutant.caught_by in RULE_CODES:
        # Caught by its own rule, and by no other.
        assert {finding.code for finding
                in lint_source(planted, mutant.path)} == {mutant.caught_by}
    else:
        assert (REPO_ROOT / mutant.caught_by.split("::")[0]).is_file()
