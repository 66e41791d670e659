# Convenience targets for the Akamai DNS reproduction.

PY ?= python
LINT_PYTHONPATH = src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test reach bench bench-check chaos rollout-demo \
        defend-demo dnssec-demo gray-demo report report-fast examples lint \
        clean

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

# Every product entry point, once, under tests/reach/probe.py (~6 min):
# fails on a never-entered definition KEPT.txt lacks, a single-valued
# option OPTIONS.txt lacks, a line of either that no longer holds, or an
# output row unlike OUTPUTS.json (`... -m reach --record` rewrites it).
reach:
	PYTHONPATH=$(LINT_PYTHONPATH) $(PY) -m pytest tests/reach -m reach

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
# committed BENCH_micro.json (a step of CI's tier-1 job).
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
