"""One (workload, repeat) in this process; ``run.py`` starts one per repeat.

Builds the scenario from the seed (timed as ``setup_s``), collects
garbage, runs the measured phase slice by slice (each slice timed with
``perf_counter`` and corrected for the host's speed), then — outside every timed region — reads the
program's public counters, runs the oracle and digests the simulated
outcome. With ``--trace 1`` the wrappers of :mod:`tracing` are installed
before the scenario is built and the spans are written to
``bench/out/trace-<workload>.json``. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tracing  # noqa: E402
from hostclock import HostClock  # noqa: E402


class EngineProbe:
    """Traced runs: what reaches ``respond``, measured at the boundary.

    ``repeat_share`` is the share of responds whose (qname, qtype, DO)
    this engine already saw since its store last changed — how cacheable
    the input is, whatever the engine does with it. ``neg_plan_builds``
    counts (engine, zone, version) triples that drew the eight NXDOMAINs
    after which the engine assembles a negative plan.
    """

    NEG_BUILD_AFTER = 8

    def __init__(self) -> None:
        self._seen: dict[int, tuple[int, set]] = {}
        self._nxdomains: dict[tuple, int] = {}
        self.responds = 0
        self.repeats = 0
        self.neg_plan_builds = 0

    def after_respond(self, args: tuple, response) -> None:
        engine, query = args[0], args[1]
        questions = query.questions
        if len(questions) != 1:
            return
        question = questions[0]
        store = engine.store
        generation, seen = self._seen.get(id(engine), (None, None))
        if generation != store.generation:
            seen = set()
            self._seen[id(engine)] = (store.generation, seen)
        edns = query.edns
        key = (question.qname, question.qtype,
               edns is not None and edns.dnssec_ok)
        self.responds += 1
        if key in seen:
            self.repeats += 1
        else:
            seen.add(key)
        if response.flags.rcode.name == "NXDOMAIN":
            zone = store.find(question.qname)
            if zone is not None:
                triple = (id(engine), zone.origin, zone.version,
                          store.generation)
                count = self._nxdomains.get(triple, 0) + 1
                self._nxdomains[triple] = count
                if count == self.NEG_BUILD_AFTER:
                    self.neg_plan_builds += 1


def sim_digest(report: dict) -> str:
    """SHA-256 over the sorted simulated counters and the outcomes."""
    payload = json.dumps({"ops": report["ops"],
                          "counters": report["counters"],
                          "oracle": report["oracle"],
                          "outcomes": report["outcomes"]}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run(workload: str, seed: int, scale: float, traced: bool) -> dict:
    recorder = probe = None
    if traced:
        recorder = tracing.Recorder()
        probe = EngineProbe()
        tracing.install(recorder, after={
            "AuthoritativeEngine.respond": probe.after_respond})
    import workloads

    kwargs = {}
    if traced and workload == "engine_wire":
        kwargs["per_class_clock"] = lambda: recorder.total_s.get(
            "AuthoritativeEngine.respond", 0.0)
    clock = HostClock()
    scenario = workloads.SCENARIOS[workload](seed, scale, **kwargs)
    started = time.perf_counter()
    scenario.build(clock)
    setup_raw_s = time.perf_counter() - started - clock.calibration_s

    scenario.begin()
    gc.collect()
    if recorder is not None:
        recorder.begin_phase("measure")
    collections = sum(s["collections"] for s in gc.get_stats())
    slices = []
    wall_raw_s = cpu_s = 0.0
    clock.mark()
    for i in range(scenario.n_slices):
        cpu = time.process_time()
        t0 = time.perf_counter()
        scenario.step(i)
        raw = time.perf_counter() - t0
        cpu_s += time.process_time() - cpu
        wall_raw_s += raw
        slices.append(clock.correct(raw))
    collections = sum(s["collections"] for s in gc.get_stats()) - collections
    if recorder is not None:
        recorder.begin_phase("report")

    report = scenario.report()
    out = {
        "workload": workload, "seed": seed, "scale": scale, "traced": traced,
        # Seconds are corrected for the host's speed (hostclock.py)
        # unless the key says raw.
        "setup_s": sum(part[0] for part in scenario.parts.values()),
        "setup_raw_s": setup_raw_s,
        "setup_parts": {k: v[0] for k, v in scenario.parts.items()},
        "wall_s": sum(slices), "wall_raw_s": wall_raw_s,
        "slices": slices, "slice_unit": scenario.slice_unit,
        "cpu_s": cpu_s,
        "gc_collections": collections,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_digest": sim_digest(report), **report,
    }
    if recorder is not None:
        measure = tracing.summary(recorder, "measure")
        out["trace"] = measure
        out["engine_probe"] = {
            "responds": probe.responds, "repeats": probe.repeats,
            "neg_plan_builds": probe.neg_plan_builds}
        if workload == "engine_wire":
            out["class_seconds"] = scenario.class_seconds
        trace_dir = BENCH_DIR / "out"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"trace-{workload}.json").write_text(json.dumps({
            "workload": workload, "seed": seed, "scale": scale,
            "wall_raw_s": wall_raw_s,
            "phases": {name: tracing.summary(recorder, name)
                       for name in recorder.phases},
            "spans": tracing.raw_spans(recorder),
        }, indent=1) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.scale,
                         bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
