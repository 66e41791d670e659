"""One module per paper figure plus the in-text statistics.

Each module exposes ``run(...) -> ExperimentResult`` containing the
regenerated series and paper-vs-measured shape checks; ``runner.run_all``
executes the full suite.
"""
