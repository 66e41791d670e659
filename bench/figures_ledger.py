"""Opt-in: one traced pass over the fast paper-figure suite.

Runs every work unit of ``experiments.parallel.work_units(fast=True)``
under the wrappers of :mod:`tracing` and writes
``bench/out/figures_ledger.json``: figure label x layer self seconds,
plus each figure's busiest spans by name with their call counts. Not
gated and not part of the default invocation — it is the artifact that
says where each figure's wall time goes. Prints one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tracing  # noqa: E402

#: Busiest spans listed per figure.
TOP_SPANS = 8


def main() -> int:
    from repro.experiments import parallel

    recorder = tracing.Recorder()
    tracing.install(recorder)
    # Module-level hot loops the figures call directly, spanned by name.
    tracing.wrap_function(recorder, "repro.workload.arrivals",
                          "bursty_counts")

    wall: dict[str, float] = {}
    units: dict[str, int] = {}
    for unit in parallel.work_units(True):
        label = unit[0]
        recorder.begin_phase(label)
        started = time.perf_counter()
        parallel.run_unit(unit, True)
        wall[label] = wall.get(label, 0.0) + time.perf_counter() - started
        units[label] = units.get(label, 0) + 1

    figures = {}
    for label, wall_s in wall.items():
        phase = tracing.summary(recorder, label)
        attributed = sum(phase["self_s"].values())
        busiest = sorted(phase["total_s"], key=phase["total_s"].get,
                         reverse=True)[:TOP_SPANS]
        figures[label] = {
            "wall_s": wall_s, "units": units[label],
            "layer_self_s": phase["self_s"],
            # Experiment glue that runs outside every wrapped boundary.
            "outside_spans_s": wall_s - attributed,
            "spans": {name: {"calls": phase["calls"][name],
                             "inclusive_s": phase["total_s"][name]}
                      for name in busiest},
        }
    ledger = {"total_wall_s": sum(wall.values()), "figures": figures}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "figures_ledger.json").write_text(
        json.dumps(ledger, indent=1, sort_keys=True) + "\n")

    summary = {
        label: {"wall_s": round(entry["wall_s"], 3),
                "top_layer": max(entry["layer_self_s"],
                                 key=entry["layer_self_s"].get, default=""),
                # The busiest span below the event loop's root spans.
                "top_span": next((name for name in entry["spans"]
                                  if not name.startswith("EventLoop.")),
                                 "")}
        for label, entry in figures.items()}
    print(json.dumps({"summary": summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
