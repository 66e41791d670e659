"""Paired parent/change runs of the end-to-end benchmark.

    python -m repro.tools.pairs --parent REV --workload W --seed N --pairs 10

checks ``REV`` out into a temporary ``git worktree``, then runs the
command ``BENCHMARK.json`` declares (its driver form, ``--workload W
--seed N --seconds <run_seconds> --trace 0``) once per side per pair,
alternating which side goes first, each side from its own checkout with
its own, unmodified ``bench/``. For every end-to-end metric it prints
each side's median and quartiles, how many pairs the change won, and the
verdict by the rule a performance claim has to meet: a *gain* needs the
change to win at least nine tenths of the pairs (ties count for neither
side) and the medians to differ by more than the distance between the
parent's quartiles; a change whose median is worse than the parent's by
more than the metric's bound is a *regression*; a spread wider than the
bound leaves the metric *unresolved* unless every run of the change
beats every run of the parent. Digest equality, the failed share and
every single run are printed too; when the digests differ, one
``bench/harness.py`` run a side names what differs among ``ops``,
``oracle``, ``outcomes`` and the ``counters`` keys.

Run it from the checkout under test; ``--parent`` is anything ``git
rev-parse`` accepts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

_DIGEST = re.compile(r"sim_digest ([0-9a-f]+)")


@dataclass(frozen=True, slots=True)
class Summary:
    """One metric over all pairs, as the report prints it."""

    parent: tuple[float, float, float]     # q1, median, q3
    change: tuple[float, float, float]
    ratio: float                           # change median / parent median
    wins: int
    losses: int
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], *,
              higher_is_better: bool, bound: float) -> Summary:
    """Verdict for one metric from its paired runs (see module doc)."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    better_by = sign * (c_med - p_med)
    spread = max(p_q3 - p_q1, c_q3 - c_q1)
    clear_of_parent = (min(change) > max(parent) if higher_is_better
                       else max(change) < min(parent))
    if wins >= 0.9 * len(parent) and better_by > p_q3 - p_q1:
        verdict = "gain"
    elif -better_by > bound * p_med:
        verdict = "regression"
    elif spread > bound * p_med and not clear_of_parent:
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return Summary((p_q1, p_med, p_q3), (c_q1, c_med, c_q3),
                   c_med / p_med if p_med else float("nan"),
                   wins, losses, verdict)


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


@contextmanager
def parent_worktree(root: Path, rev: str) -> Iterator[Path]:
    """``rev`` checked out, detached, in a temporary worktree."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        path = Path(tmp) / "parent"
        git(root, "worktree", "add", "--detach", str(path), rev)
        try:
            yield path
        finally:
            git(root, "worktree", "remove", "--force", str(path))


def run_side(checkout: Path, command: list[str],
             env: dict[str, str] | None = None) -> dict:
    """One run from ``checkout``: the JSON it prints last, plus digest."""
    done = subprocess.run(command, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed in {checkout} "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    digests = _DIGEST.findall(done.stdout)
    result["digest"] = digests[-1] if digests else "?"
    return result


def digest_difference(parent: Path, change: Path, workload: str,
                      seed: int) -> str:
    """What the simulated results of two checkouts differ in, from one
    untraced ``bench/harness.py`` run a side (hash seed pinned as
    ``bench/run.py`` pins it)."""
    harness = Path("bench") / "harness.py"
    if not ((parent / harness).exists() and (change / harness).exists()):
        return f"  (no {harness} to ask)"
    command = [sys.executable, str(harness), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    reports = [run_side(checkout, command,
                        dict(os.environ, PYTHONHASHSEED="0"))
               for checkout in (parent, change)]
    parts = ("ops", "oracle", "outcomes")
    differs = [part for part in parts
               if reports[0].get(part) != reports[1].get(part)]
    before, after = (r.get("counters", {}) for r in reports)
    keys = sorted(set(before) | set(after))
    moved = [key for key in keys if before.get(key) != after.get(key)]
    same = [part for part in parts if part not in differs]
    differs += [f"counters[{key}] {before.get(key)} -> {after.get(key)}"
                for key in moved]
    return (f"  differs in: {'; '.join(differs) or 'nothing it reports'}\n"
            f"  equal: {', '.join(same + [''])}"
            f"{len(keys) - len(moved)} of {len(keys)} counters")


def report(spec: dict, args: argparse.Namespace, parent_rev: str,
           runs: list[tuple[str, dict, dict]], difference: str = "") -> str:
    out = [f"{args.workload} seed {args.seed}: {len(runs)} pair(s), parent "
           f"{parent_rev[:10]} against the checkout, alternating first side",
           f"{'metric':<15}{'parent median (q1..q3)':<32}"
           f"{'change median (q1..q3)':<32}{'change/parent':<15}"
           f"{'wins':<8}verdict"]

    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} ({q[0]:.5g}..{q[2]:.5g})"

    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for _f, p, _c in runs]
        change = [c["metrics"][name]["value"] for _f, _p, c in runs]
        s = summarize(parent, change, bound=metric["bound"],
                      higher_is_better=metric["better"] == "higher")
        out.append(f"{name:<15}{cell(s.parent):<32}{cell(s.change):<32}"
                   f"{s.ratio:<15.3f}{f'{s.wins}/{len(runs)}':<8}"
                   f"{s.verdict}")
    for label, index in (("parent", 1), ("change", 2)):
        side = [run[index] for run in runs]
        digests = sorted({r["digest"] for r in side})
        out.append(f"{label}: sim_digest {' '.join(digests)}; failed "
                   f"{sum(r['failed'] for r in side)} of "
                   f"{sum(r['attempted'] for r in side)}; "
                   f"{sum(not r['correct'] for r in side)} incorrect run(s)")
    equal = ({p["digest"] for _f, p, _c in runs}
             == {c["digest"] for _f, _p, c in runs})
    out.append(f"digests equal: {'yes' if equal else 'NO'}")
    if difference:
        out.append(difference)
    out.append("every run (pair: first side; metric parent -> change):")
    for number, (first, p, c) in enumerate(runs, start=1):
        values = ", ".join(
            f"{m['name']} {p['metrics'][m['name']]['value']:.5g} -> "
            f"{c['metrics'][m['name']]['value']:.5g}"
            for m in spec["end_to_end"])
        out.append(f"  {number}: {first} first; {values}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True,
                        help="revision the change is compared with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    parent_rev = git(root, "rev-parse", "--verify", args.parent + "^{commit}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    command = [*spec["command"], "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    runs = []
    with parent_worktree(root, parent_rev) as parent:
        for pair in range(args.pairs):
            first = "parent" if pair % 2 == 0 else "change"
            order = [("parent", parent), ("change", root)]
            results = {side: run_side(checkout, command)
                       for side, checkout in
                       (order if first == "parent" else order[::-1])}
            runs.append((first, results["parent"], results["change"]))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        difference = ""
        if ({p["digest"] for _f, p, _c in runs}
                != {c["digest"] for _f, _p, c in runs}):
            difference = digest_difference(parent, root, args.workload,
                                           args.seed)
    print(report(spec, args, parent_rev, runs, difference))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
