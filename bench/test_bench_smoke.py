"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Outside tier-1's ``testpaths`` on purpose: it starts subprocesses and
reads the host clock. Everything runs at ``--quick`` scale.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def quick_runs() -> dict[str, tuple[dict, dict, dict]]:
    """Per workload: two untraced quick runs and one traced one."""
    return {w: (bench.run_once(w, 42, bench.QUICK_SCALE, trace=False),
                bench.run_once(w, 42, bench.QUICK_SCALE, trace=False),
                bench.run_once(w, 42, bench.QUICK_SCALE, trace=True))
            for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(quick_runs, workload):
    first, _, traced = quick_runs[workload]
    result = bench.aggregate(SPEC, workload, [first])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in result["metrics"].values())
    layers = bench.per_layer(SPEC, first, traced)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    line = json.loads(bench.result_line(True, result["checked"],
                                        result["failed"], SPEC, layers))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_and_tracing_changes_nothing(quick_runs,
                                                           workload):
    first, second, traced = quick_runs[workload]
    assert first["counters"] == second["counters"]
    assert first["sim_digest"] == second["sim_digest"]
    assert traced["sim_digest"] == first["sim_digest"]
    assert first["shape"]["ok"], first["shape"]
    assert all(o["failed"] == 0 for o in first["oracle"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrapper_counts_equal_program_counters(quick_runs, workload):
    first, _, traced = quick_runs[workload]
    counters, calls = first["counters"], traced["trace"]["calls"]
    if workload == "engine_wire":
        assert calls["Message.from_wire"] == counters["dnscore.wire.decodes"]
        assert calls["Message.to_wire"] == counters["dnscore.wire.encodes"]
        assert calls["AuthoritativeEngine.respond"] \
            == counters["server.engine.responds"]
        return
    assert calls["NameserverMachine.receive_query"] \
        == counters["server.machine.received"]
    # Every datagram sent in the window was delivered or dropped by its
    # end, but for those in flight when the window opened or closed (one
    # round of gray-failure probes on churn_mixed).
    sent = calls["Network.send"]
    settled = (counters["netsim.network.delivered"]
               + counters["netsim.network.dropped"])
    assert abs(sent - settled) <= 0.05 * sent
    assert calls.get("RecursiveResolver.resolve", 0) \
        == counters["resolver.resolutions"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_traced_wall(quick_runs, workload):
    traced = quick_runs[workload][2]
    attributed = sum(traced["trace"]["self_s"].values())
    if workload == "engine_wire":
        # No root span: the harness's own query loop is the remainder.
        assert attributed <= traced["wall_raw_s"]
        assert attributed >= 0.8 * traced["wall_raw_s"]
    else:
        assert attributed == pytest.approx(traced["wall_raw_s"], rel=0.02)


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
