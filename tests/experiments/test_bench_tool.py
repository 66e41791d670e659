"""``repro.tools.bench --check``: the gate over the committed ratios reads
``BENCH_micro.json`` and nothing else, and writes nothing."""

import copy
import json
from pathlib import Path

import pytest

from repro.tools import bench

COMMITTED = json.loads(
    (Path(__file__).parents[2] / bench.MICRO_PATH).read_text())


def regressed(metric: str) -> dict:
    fresh = copy.deepcopy(COMMITTED)
    worse = 0.5 if bench._GATED[metric] == "higher" else 2.0
    fresh["metrics"][metric] *= worse
    return fresh


def lacking(metric: str) -> dict:
    fresh = copy.deepcopy(COMMITTED)
    del fresh["metrics"][metric]
    return fresh


def test_every_gated_ratio_is_committed():
    assert set(COMMITTED["metrics"]) == set(bench._GATED)


@pytest.mark.parametrize("fresh, code, line, error", [
    (COMMITTED, 0, "bench-check: 5/5 gated metrics within 30%", ""),
    (regressed("pending_cost_ratio_20000_vs_50"), 1, "bench-check: 4/5",
     "REGRESSION pending_cost_ratio_20000_vs_50"),
    (regressed("rrset_group_cost_ratio"), 1, "bench-check: 4/5",
     "REGRESSION rrset_group_cost_ratio"),
    (lacking("truncated_encode_cost_ratio"), 1, "bench-check: 4/5",
     "MISSING truncated_encode_cost_ratio: not in the fresh run"),
])
def test_check_is_the_gate_and_needs_only_the_micro_baseline(
        tmp_path, monkeypatch, capsys, fresh, code, line, error):
    monkeypatch.chdir(tmp_path)         # no BENCH_experiments.json here
    baseline = json.dumps(COMMITTED)
    (tmp_path / bench.MICRO_PATH).write_text(baseline)
    monkeypatch.setattr(bench, "run_micro", lambda: fresh)
    assert bench.main(["--check"]) == code
    out, err = capsys.readouterr()
    assert line in out
    if error:
        assert error in err
    else:
        assert err == ""
    assert [p.name for p in tmp_path.iterdir()] == [bench.MICRO_PATH.name]
    assert (tmp_path / bench.MICRO_PATH).read_text() == baseline
