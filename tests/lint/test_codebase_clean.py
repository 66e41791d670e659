"""Tier-1 gate: the shipped tree satisfies the determinism contract.

Runs the full reprolint rule set over ``src`` and ``tests`` and fails
on any finding: the static half of the contract. The properties a file
at a time cannot show — every RNG moves with the seed, no state leaks
between work units — are observed on running code instead
(tests/experiments/test_seed_provenance.py, the serial-vs-``--jobs``
identity in test_fastpath_equivalence.py).
"""

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCodebaseClean:
    def test_no_new_findings(self):
        result = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"],
                            root=REPO_ROOT)
        assert result.files_checked > 150
        rendered = "\n".join(f.render() for f in result.all_new_findings)
        assert result.clean, (
            f"reprolint found violations — fix them or add an inline "
            f"`# reprolint: disable=CODE` with justification:\n{rendered}")
