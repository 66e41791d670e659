#!/usr/bin/env python3
"""The platform's end-to-end benchmark.

    python3 bench/run.py [--seed 42] [--repeats 5] [--workload NAME] [--quick]

runs every workload of ``BENCHMARK.json`` from a seed: each (workload,
repeat) in a fresh single-threaded subprocess with tracing off, then one
traced run per workload for the per-layer numbers. It prints every
metric by name with its unit, checks outputs against each workload's
oracle, and writes ``bench/out/results.json``. Timings are host time;
everything counted is simulated and must repeat exactly, so a
``sim_digest`` that differs between repeats of one seed is an error.

The benchmark driver calls one workload at a time:

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

and reads the last line of standard output, one JSON object holding
the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``). ``--selfcheck`` runs the set twice and compares the
two against the bounds; ``--figures-ledger`` is the opt-in traced pass
over the paper-figure suite. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Upper end of one repeat's measured phase at the seed commit, in host
#: seconds; ``--seconds`` buys repeats at this price.
NOMINAL_REPEAT_S = 3.0
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170
QUICK_SCALE = 0.1


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child(script: str, *args: str,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one harness subprocess and parse the JSON it prints last."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), *args], env=env,
        stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, scale: float, trace: bool) -> dict:
    return child("harness.py", "--workload", workload, "--seed", str(seed),
                 "--scale", repr(scale), "--trace", str(int(trace)))


def robust_wall(runs: list[dict]) -> float:
    """Measured-phase seconds: per slice, the median over repeats.

    Repeats of one seed do identical simulated work in every slice, so
    a slice's (host-speed-corrected) times differ only by what the
    correction missed; taking the median slice by slice discards a burst
    that hits one repeat instead of letting it drag that repeat's total.
    """
    return sum(statistics.median(times)
               for times in zip(*(run["slices"] for run in runs)))


def aggregate(spec: dict, workload: str, runs: list[dict]) -> dict:
    """End-to-end metrics of one workload from its untraced repeats."""
    first = runs[0]
    wall_s = robust_wall(runs)
    checked = sum(o["checked"] for o in first["oracle"].values())
    failed = sum(o["failed"] for o in first["oracle"].values())
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": wall_s,
        "queries_per_s": first["ops"] / wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    spread = {
        "setup_s": [r["setup_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "queries_per_s": [first["ops"] / r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {
        "workload": workload, "seed": first["seed"], "scale": first["scale"],
        "repeats": len(runs), "ops": first["ops"],
        "metrics": {m["name"]: values[m["name"]]
                    for m in spec["end_to_end"]},
        "range": {name: [min(v), max(v)] for name, v in spread.items()},
        "raw": {"setup_s": [r["setup_raw_s"] for r in runs],
                "wall_s": [r["wall_raw_s"] for r in runs]},
        "fail_share": failed / checked if checked else 0.0,
        "checked": checked, "failed": failed, "oracle": first["oracle"],
        "shape": first["shape"],
        "sim_digest": first["sim_digest"],
        "deterministic": len({r["sim_digest"] for r in runs}) == 1,
        "counters": first["counters"],
    }


def count_loc() -> dict[str, int]:
    """Non-blank source lines per package under src/repro."""
    loc = {}
    for package in sorted(p for p in (ROOT / "src" / "repro").iterdir()
                          if p.is_dir() and p.name != "__pycache__"):
        loc[package.name] = sum(
            1 for path in package.rglob("*.py")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip())
    return loc


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def per_layer(spec: dict, untraced: dict, traced: dict) -> dict[str, float]:
    """Every per-layer metric of one workload.

    Counts are the program's public counters over the measured phase of
    the untraced run where one exists, wrapper call counts of the traced
    run otherwise; ``*_self_s`` come from the traced run.
    """
    counters = untraced["counters"]
    parts = untraced["setup_parts"]
    trace = traced["trace"]
    calls = trace["calls"]
    wall_s = untraced["wall_s"]
    # The traced run's spans are raw host seconds; correct them by that
    # run's overall host speed.
    speed = traced["wall_s"] / traced["wall_raw_s"]
    self_s = {layer: seconds * speed
              for layer, seconds in trace["self_s"].items()}
    traced_wall_s = traced["wall_s"]
    slice_ms = [s * 1000.0 for s in untraced["slices"]]

    def count(name: str) -> float:
        return counters.get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {
        "host.cpu_s": untraced["cpu_s"],
        "host.gc_collections": untraced["gc_collections"],
        "host.slice_ms_p50": statistics.median(slice_ms),
        "host.slice_ms_p95": percentile(slice_ms, 0.95),
        "host.trace_overhead_ratio": ratio(traced_wall_s, wall_s),
        "host.unattributed_share": ratio(
            traced_wall_s - sum(v for k, v in self_s.items()
                                if k != "harness"), traced_wall_s),
        "netsim.clock.events": count("netsim.clock.events"),
        "netsim.clock.events_per_s": ratio(count("netsim.clock.events"),
                                           wall_s),
        "netsim.network.sends": calls.get("Network.send", 0),
        "netsim.network.delivered": count("netsim.network.delivered"),
        "netsim.network.dropped": count("netsim.network.dropped"),
        "netsim.network.hops": count("netsim.network.hops"),
        "netsim.bgp.updates": count("netsim.bgp.updates"),
        "server.pop.forwarded": count("server.pop.forwarded"),
        "server.machine.received": count("server.machine.received"),
        "server.machine.answered": count("server.machine.answered"),
        "server.machine.dropped_io": count("server.machine.dropped_io"),
        "server.machine.dropped_queue": count(
            "server.machine.dropped_queue"),
        "server.machine.dropped_firewall": count(
            "server.machine.dropped_firewall"),
        "server.machine.installs": count("server.machine.installs"),
        "server.machine.answered_share": ratio(
            count("server.machine.answered"),
            count("server.machine.received")),
        "filters.scored": calls.get("ScoringPipeline.score", 0),
        "server.engine.responds": calls.get("AuthoritativeEngine.respond",
                                            0),
        "server.engine.probes": calls.get(
            "AuthoritativeEngine.respond_probe", 0),
        "server.engine.repeat_share": ratio(
            traced["engine_probe"]["repeats"],
            traced["engine_probe"]["responds"]),
        "server.engine.neg_plan_builds":
            traced["engine_probe"]["neg_plan_builds"],
        "server.monitoring.checks": count("server.monitoring.checks"),
        "dnscore.wire.decodes": calls.get("Message.from_wire", 0),
        "dnscore.wire.encodes": calls.get("Message.to_wire", 0),
        "dnscore.wire.bytes_out": count("dnscore.wire.bytes_out"),
        "dnscore.wire.truncated": count("dnscore.wire.truncated"),
        "dnscore.zone.lookups": calls.get("Zone.lookup", 0),
        "dnscore.zone.parse_s": parts.get("dnscore.zone.parse_s", 0.0),
        "resolver.resolutions": count("resolver.resolutions"),
        "resolver.upstream_queries": count("resolver.upstream_queries"),
        "resolver.cache_hit_share": ratio(count("resolver.from_cache"),
                                          count("resolver.completed")),
        "resolver.timeouts": count("resolver.timeouts"),
        "workload.packets": count("workload.packets"),
        "control.published": count("control.published"),
        "control.releases_promoted": count("control.releases_promoted"),
        "chaos.fault_edges": count("chaos.fault_edges"),
        "telemetry.hook_calls": sum(
            n for name, n in calls.items() if name.startswith("Telemetry.")),
        "telemetry.spans_kept": count("telemetry.spans_kept"),
        "telemetry.alerts_fired": count("telemetry.alerts_fired"),
        "dnssec.sign_s": parts.get("dnssec.sign_s", 0.0),
        "dnssec.signed_responses": count("dnssec.signed_responses"),
        "platform.build_s": parts.get("platform.build_s", 0.0)
        + parts.get("platform.provision_s", 0.0),
        "platform.settle_s": parts.get("platform.settle_s", 0.0),
    }
    for layer, metric in (
            ("netsim.clock", "netsim.clock.self_s"),
            ("netsim.network", "netsim.network.self_s"),
            ("netsim.bgp", "netsim.bgp.self_s"),
            ("server.pop", "server.pop.self_s"),
            ("server.machine", "server.machine.self_s"),
            ("filters", "filters.self_s"),
            ("server.engine", "server.engine.self_s"),
            ("server.monitoring", "server.monitoring.self_s"),
            ("dnscore.wire.decode", "dnscore.wire.decode_self_s"),
            ("dnscore.wire.encode", "dnscore.wire.encode_self_s"),
            ("dnscore.zone", "dnscore.zone.self_s"),
            ("resolver", "resolver.self_s"),
            ("resolver.cache", "resolver.cache_self_s"),
            ("workload", "workload.self_s"),
            ("control", "control.self_s"),
            ("chaos", "chaos.self_s"),
            ("telemetry", "telemetry.self_s"),
            ("platform", "platform.self_s")):
        values[metric] = self_s.get(layer, 0.0)
    class_seconds = traced.get("class_seconds", {})
    for cls in ("hot", "cold", "nxdomain", "wildcard", "referral", "cname",
                "signed", "truncated"):
        values[f"server.engine.us_per_respond.{cls}"] = ratio(
            class_seconds.get(cls, 0.0) * speed * 1e6,
            count(f"queries.{cls}"))
    loc = count_loc()
    values.update((f"loc.{package}", lines) for package, lines in loc.items())
    values["loc.total"] = sum(loc.values())

    names = [m["name"] for m in spec["per_layer"]]
    missing = sorted(set(names) - set(values))
    if missing:
        raise SystemExit(f"BENCHMARK.json names per-layer metrics this "
                         f"harness does not produce: {missing}")
    return {name: values[name] for name in names}


def dominant_layer(traced: dict) -> str:
    self_s = {k: v for k, v in traced["trace"]["self_s"].items()
              if k != "harness"}
    return max(self_s, key=self_s.get) if self_s else ""


# -- reporting ----------------------------------------------------------------


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_end_to_end(spec: dict, result: dict) -> None:
    unit = units(spec)
    workload = result["workload"]
    print(f"== {workload}: seed {result['seed']}, {result['repeats']} "
          f"repeat(s), {result['ops']} operations, "
          f"sim_digest {result['sim_digest'][:16]}")
    for name, value in result["metrics"].items():
        low, high = result["range"][name]
        print(f"{workload} {name} = {value:.6g} {unit[name]}  "
              f"({result['repeats']} repeat(s); single runs "
              f"{low:.6g}..{high:.6g})")
    print(f"{workload} fail_share = {result['fail_share']:.6g} ratio  "
          f"({result['failed']} of {result['checked']} checked: "
          + ", ".join(f"{k} {v['failed']}/{v['checked']}"
                      for k, v in result["oracle"].items()) + ")")
    print(f"{workload} shape: " + ", ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in result["shape"].items()))


def print_per_layer(spec: dict, workload: str, layers: dict,
                    untraced: dict, traced: dict) -> None:
    unit = units(spec)
    print(f"-- {workload}: per-layer ledger (traced run; "
          f"{len(untraced['slices'])} slices of {untraced['slice_unit']}; "
          f"dominant layer by self time: {dominant_layer(traced)})")
    for name, value in layers.items():
        print(f"{workload} {name} = {value:.6g} {unit[name]}")


def result_line(correct: bool, attempted: int, failed: int, spec: dict,
                values: dict) -> str:
    unit = units(spec)
    return json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in values.items()}})


# -- modes --------------------------------------------------------------------


def measure(spec: dict, workload: str, seed: int, repeats: int,
            scale: float) -> tuple[dict, list[dict]]:
    runs = [run_once(workload, seed, scale, trace=False)
            for _ in range(repeats)]
    return aggregate(spec, workload, runs), runs


def trace(spec: dict, workload: str, seed: int, scale: float,
          untraced: dict) -> tuple[dict, dict]:
    traced = run_once(workload, seed, scale, trace=True)
    return per_layer(spec, untraced, traced), traced


def host_profile() -> dict:
    return {"python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system(),
            "nproc": os.cpu_count()}


def full_report(spec: dict, workloads: list[str], seed: int, repeats: int,
                scale: float) -> int:
    results = {"seed": seed, "repeats": repeats, "scale": scale,
               "host": host_profile(), "workloads": {}}
    status = 0
    for workload in workloads:
        result, runs = measure(spec, workload, seed, repeats, scale)
        print_end_to_end(spec, result)
        layers, traced = trace(spec, workload, seed, scale, runs[0])
        print_per_layer(spec, workload, layers, runs[0], traced)
        traced_matches = traced["sim_digest"] == result["sim_digest"]
        if not result["deterministic"] or not traced_matches:
            print(f"ERROR {workload}: sim_digest differs between "
                  f"{'repeats' if traced_matches else 'traced and untraced runs'}"
                  f" of seed {seed}", file=sys.stderr)
            status = 1
        result["per_layer"] = layers
        result["dominant_layer"] = dominant_layer(traced)
        results["workloads"][workload] = result
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "results.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT_DIR.relative_to(ROOT)}/results.json")
    return status


def driver_run(spec: dict, workload: str, seed: int, repeats: int,
               scale: float, traced: bool) -> int:
    """One workload for the benchmark driver; the result is the last line."""
    if traced:
        result, runs = measure(spec, workload, seed, 1, scale)
        layers, trace_run = trace(spec, workload, seed, scale, runs[0])
        print_per_layer(spec, workload, layers, runs[0], trace_run)
        deterministic = trace_run["sim_digest"] == result["sim_digest"]
        values = layers
    else:
        result, _ = measure(spec, workload, seed, repeats, scale)
        print_end_to_end(spec, result)
        deterministic = result["deterministic"]
        values = result["metrics"]
    correct = deterministic and result["failed"] == 0 \
        and bool(result["shape"]["ok"])
    print(result_line(correct, result["checked"], result["failed"], spec,
                      values))
    if not deterministic:
        print(f"ERROR {workload}: sim_digest differs between runs of seed "
              f"{seed}", file=sys.stderr)
    return 0 if deterministic else 1


def selfcheck(spec: dict, workloads: list[str], seed: int, repeats: int,
              scale: float) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    status = 0
    for workload in workloads:
        a, _ = measure(spec, workload, seed, repeats, scale)
        b, _ = measure(spec, workload, seed, repeats, scale)
        exact = (a["sim_digest"] == b["sim_digest"]
                 and a["deterministic"] and b["deterministic"])
        print(f"{workload}: exact counts and sim_digest "
              f"{'match' if exact else 'DIFFER'}")
        status |= not exact
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first, second = a["metrics"][name], b["metrics"][name]
            worse = (second - first if metric["better"] == "lower"
                     else first - second) / first
            verdict = "ok" if worse <= metric["bound"] else "EXCEEDS"
            status |= verdict != "ok"
            print(f"{workload} {name}: {first:.6g} then {second:.6g} "
                  f"{metric['unit']}; second set worse by {worse:+.2%} "
                  f"against a bound of {metric['bound']:.0%}: {verdict}")
    return int(status)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int,
                        help="untraced repeats per workload (default 5)")
    parser.add_argument("--seconds", type=float,
                        help="host seconds to measure per run; buys "
                             "seconds/3 repeats, at least 3")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 prints the end-to-end result "
                             "line, 1 the per-layer one")
    parser.add_argument("--quick", action="store_true",
                        help="1 repeat at one-tenth length")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--figures-ledger", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: src/repro not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(names)}")
    workloads = [args.workload] if args.workload else names
    scale = QUICK_SCALE if args.quick else 1.0
    if args.quick:
        repeats = 1
    elif args.repeats is not None:
        repeats = args.repeats
    elif args.seconds is not None:
        repeats = max(MIN_REPEATS, round(args.seconds / NOMINAL_REPEAT_S))
    else:
        repeats = 5

    if args.figures_ledger:
        ledger = child("figures_ledger.py", timeout=900)
        print(json.dumps(ledger["summary"], indent=1))
        print(f"wrote {OUT_DIR.relative_to(ROOT)}/figures_ledger.json")
        return 0
    if args.selfcheck:
        return selfcheck(spec, workloads, args.seed, repeats, scale)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_run(spec, args.workload, args.seed, repeats, scale,
                          bool(args.trace))
    return full_report(spec, workloads, args.seed, repeats, scale)


if __name__ == "__main__":
    raise SystemExit(main())
