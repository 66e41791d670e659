"""Smoke tests: every example script runs cleanly end to end, and the
documented ``python -m`` entry points start without a warning."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    pathlib.Path(__file__).resolve().parents[2].joinpath("examples")
    .glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must narrate their run"


@pytest.mark.parametrize("module", ["repro.experiments.runner",
                                    "repro.experiments.resilience_scorecard"])
def test_entry_point_starts_without_runtime_warning(module):
    # An eager import of the module from its package's __init__ makes
    # ``python -m`` execute it a second time as __main__ (runpy warns).
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
         "--help"], capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr[-2000:]


def test_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(EXAMPLES) >= 3
