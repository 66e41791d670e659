"""The telemetry sessions of the three ``--fast`` scorecard suites.

    PYTHONPATH=src python tests/reach/scorecard_sessions.py PATH

Each campaign runs inside a session no command exports. A ``Telemetry``
subclass that keeps every instance goes into the scorecard module's
namespace, the standard, ``--dnssec`` and ``--gray`` suites run at
``--fast``, and the sessions' ``export()``s are written to PATH as JSON.
"""

import json
import sys

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
    with open(sys.argv[1], "w") as handle:
        handle.write(json.dumps(exports(), sort_keys=True))
