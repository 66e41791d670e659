# Convenience targets for the Akamai DNS reproduction.

PY ?= python
LINT_PYTHONPATH = src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test reach outputs bench bench-check chaos rollout-demo \
        defend-demo dnssec-demo gray-demo report report-fast examples lint \
        clean

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

# Every product entry point under the probe (tests/reach/probe.py,
# ~5 min): fails when a definition no entry point enters is missing
# from tests/reach/KEPT.txt, when a defaulted constructor parameter they
# all give one value is missing from tests/reach/OPTIONS.txt, or when a
# line of either list no longer holds.
reach:
	PYTHONPATH=$(LINT_PYTHONPATH) $(PY) -m pytest tests/reach -m reach

# Every product output (15 --fast figures, six scorecards, ten examples,
# eight bench sim_digests, the runner's --metrics file, its fig10 and
# enduser --trace files and the --fast scorecard suites' telemetry
# sessions) hashed and compared with
# tests/outputs/OUTPUTS.json (~1 min); the failure names each row that
# differs. `$(PY) -m pytest tests/outputs -m outputs --record` rewrites
# the file: record it on the parent commit, then the PR's diff of it is
# the list of outputs the PR moved.
outputs:
	PYTHONPATH=$(LINT_PYTHONPATH) $(PY) -m pytest tests/outputs -m outputs

# reprolint (the in-tree determinism/event-loop/seed-hygiene checker)
# always runs; ruff and mypy run when installed (pip install -e .[lint])
# and are skipped with a notice otherwise, so `make lint` works in
# minimal containers.
lint:
	PYTHONPATH=$(LINT_PYTHONPATH) $(PY) -m repro.lint src tests
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi

# Refresh the committed performance baseline (BENCH_micro.json at the
# repo root).
bench:
	PYTHONPATH=$(LINT_PYTHONPATH) $(PY) -m repro.tools.bench

# Re-run the microbenchmarks and fail on >30% regression against the
# committed BENCH_micro.json (CI's bench-smoke job).
bench-check:
	PYTHONPATH=$(LINT_PYTHONPATH) $(PY) -m repro.tools.bench --check

chaos:
	$(PY) -m repro.experiments.resilience_scorecard --fast

rollout-demo:
	$(PY) examples/safe_rollout.py

defend-demo:
	$(PY) examples/defense_ladder.py

# DNSSEC walkthrough (rollovers on the release train) plus the opt-in
# rollover-containment scorecard campaigns.
dnssec-demo:
	$(PY) examples/dnssec_rollover.py
	$(PY) -m repro.experiments.resilience_scorecard --fast --dnssec

# Gray-failure walkthrough (external differential probing, verdicts,
# probationary rejoin) plus the opt-in gray scorecard campaigns.
gray-demo:
	$(PY) examples/gray_failure.py
	$(PY) -m repro.experiments.resilience_scorecard --fast --gray

report:
	$(PY) -m repro.experiments.runner

report-fast:
	$(PY) -m repro.experiments.runner --fast

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/twotier_walkthrough.py
	$(PY) examples/failover_drill.py
	$(PY) examples/gtm_loadbalancing.py
	$(PY) examples/ddos_mitigation.py
	$(PY) examples/chaos_campaign.py
	$(PY) examples/safe_rollout.py
	$(PY) examples/defense_ladder.py
	$(PY) examples/dnssec_rollover.py
	$(PY) examples/gray_failure.py

clean:
	rm -rf .pytest_cache src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
