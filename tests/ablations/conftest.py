"""Shared helper of the ablations.

Each ablation runs one of the paper's design choices on and off and
prints the paper-vs-measured table (``pytest tests/ablations -s`` shows
the rows); correctness comes from the rows' shape checks.
"""

from __future__ import annotations


def report(result) -> None:
    """Print the ablation's table and assert its shape checks."""
    print()
    print(result.render())
    assert result.all_hold, (
        f"{result.experiment_id}: paper-shape checks failed:\n"
        + result.render())
