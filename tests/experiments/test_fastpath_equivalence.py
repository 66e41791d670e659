"""End-to-end equivalence: the fast-path core never changes results.

Two independent switches must be invisible in experiment output:

* the anycast route cache (``Network.route_cache_enabled``), proven on a
  full failover experiment — per-vantage records and all — not just on
  synthetic traffic;
* the parallel runner's unit split (``--jobs``), proven by pushing
  real experiment units through a process pool and comparing the merged
  results byte for byte with the serial composition.
"""

import json
import multiprocessing

import pytest

from repro.experiments import fig8_failover, parallel, resilience_scorecard
from repro.netsim.builder import InternetParams
from repro.netsim.network import Network


def small_fig8_result():
    return fig8_failover.run(fig8_failover.Fig8Params(
        n_pops=6, n_vantage=8, trials=1,
        internet=InternetParams(n_tier1=4, n_tier2=8, n_stub=24),
        measure_window=15.0, converge_time=15.0))


def serialized(result) -> bytes:
    return json.dumps(result.to_dict(include_series=True),
                      sort_keys=True).encode("utf-8")


class TestRouteCacheOnExperiments:
    def test_fig8_identical_with_and_without_cache(self, monkeypatch):
        monkeypatch.setattr(Network, "route_cache_enabled", True)
        cached = serialized(small_fig8_result())
        monkeypatch.setattr(Network, "route_cache_enabled", False)
        uncached = serialized(small_fig8_result())
        assert cached == uncached

    def test_resilience_unit_identical_with_and_without_cache(
            self, monkeypatch):
        params = resilience_scorecard.ScorecardParams.fast()
        monkeypatch.setattr(Network, "route_cache_enabled", True)
        cached = serialized(resilience_scorecard.run_unit(params, 0))
        monkeypatch.setattr(Network, "route_cache_enabled", False)
        uncached = serialized(resilience_scorecard.run_unit(params, 0))
        assert cached == uncached


#: Cheap figures only — the point is split/merge/pickling correctness,
#: not suite coverage (the full --jobs run is exercised by `make bench`
#: and the runner's own CLI).
_SMALL_ORDER = ("fig2", "fig8", "fig9", "resilience", "anycast-quality")


@pytest.fixture
def small_suite(monkeypatch):
    monkeypatch.setattr(parallel, "JOB_ORDER", _SMALL_ORDER)


class TestParallelRunner:
    def test_serial_and_parallel_byte_identical(self, small_suite):
        serial = [serialized(r) for r in parallel.run_serial(True)]
        with_pool = [serialized(r) for r in parallel.run_parallel(True, 3)]
        assert serial == with_pool

    def test_parallel_double_run_byte_identical(self, small_suite):
        a = [serialized(r) for r in parallel.run_parallel(True, 4)]
        b = [serialized(r) for r in parallel.run_parallel(True, 4)]
        assert a == b

    def test_work_units_cover_job_order(self, small_suite):
        units = parallel.work_units(True)
        assert [u[0] for u in units if u[1] == 0] == list(_SMALL_ORDER)
        # fig8 splits into exactly two cases, resilience into one unit
        # per campaign; everything else is a single unit.
        assert sum(1 for u in units if u[0] == "fig8") == 2
        n_campaigns = resilience_scorecard.unit_count()
        assert sum(1 for u in units if u[0] == "resilience") == n_campaigns

    def test_every_unit_is_a_table_row_in_report_order(self):
        assert parallel.JOB_ORDER == tuple(parallel.FIGURES)
        assert {label for label, _ in parallel.work_units(True)} \
            == set(parallel.FIGURES)

    def test_unit_payloads_are_picklable(self):
        import pickle
        payload = parallel.run_unit(("fig8", 0), True)
        assert pickle.loads(pickle.dumps(payload)) is not None

    def test_progress_callback_fires_in_figure_order(self, small_suite):
        seen = []
        parallel.run_serial(True, lambda label, _r: seen.append(label))
        assert seen == list(_SMALL_ORDER)


class TestDecomposition:
    def test_fig8_run_equals_assembled_cases(self):
        params = fig8_failover.Fig8Params(
            n_pops=6, n_vantage=8, trials=1,
            internet=InternetParams(n_tier1=4, n_tier2=8, n_stub=24),
            measure_window=15.0, converge_time=15.0)
        direct = serialized(fig8_failover.run(params))
        assembled = serialized(fig8_failover.assemble(
            params,
            fig8_failover.run_case(params, 0),
            fig8_failover.run_case(params, 1)))
        assert direct == assembled

    def test_resilience_run_equals_assembled_units(self):
        params = resilience_scorecard.ScorecardParams.fast()
        direct = serialized(resilience_scorecard.run(params))
        fragments = [resilience_scorecard.run_unit(params, i)
                     for i in range(resilience_scorecard.unit_count())]
        assembled = serialized(resilience_scorecard.assemble(fragments))
        assert direct == assembled

    def test_pool_matches_in_process_units(self):
        params = fig8_failover.Fig8Params(
            n_pops=6, n_vantage=8, trials=1,
            internet=InternetParams(n_tier1=4, n_tier2=8, n_stub=24),
            measure_window=15.0, converge_time=15.0)
        local = [fig8_failover.run_case(params, i) for i in range(2)]
        with multiprocessing.Pool(2) as pool:
            remote = pool.starmap(fig8_failover.run_case,
                                  [(params, 0), (params, 1)])
        assert serialized(fig8_failover.assemble(params, *local)) == \
            serialized(fig8_failover.assemble(params, *remote))
