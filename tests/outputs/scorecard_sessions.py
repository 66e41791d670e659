"""The telemetry sessions of the three ``--fast`` scorecard suites, hashed.

    PYTHONPATH=src python tests/outputs/scorecard_sessions.py

Each campaign of ``resilience_scorecard`` runs inside a session of its
own that no command exports. This script puts a ``Telemetry`` subclass
that keeps every instance into the scorecard module's namespace, runs
the standard, ``--dnssec`` and ``--gray`` suites at ``--fast``, and
prints the number of sessions and the SHA-256 of their ``export()``s in
run order. Nothing under ``src/`` changes for it.
"""

import hashlib
import json

from repro.experiments import resilience_scorecard as scorecard

SUITES = ("standard", "dnssec", "gray")


def exports() -> list[dict]:
    sessions = []

    class Kept(scorecard.Telemetry):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            sessions.append(self)

    original = scorecard.Telemetry
    scorecard.Telemetry = Kept
    try:
        for suite in SUITES:
            scorecard.run(scorecard.ScorecardParams.fast(42), suite=suite)
    finally:
        scorecard.Telemetry = original
    return [session.export() for session in sessions]


if __name__ == "__main__":
    done = exports()
    text = json.dumps(done, sort_keys=True)
    print(f"{len(done)} {hashlib.sha256(text.encode()).hexdigest()}")
