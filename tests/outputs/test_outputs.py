"""The outputs a PR says it kept: recomputed, and compared by hash.

    python -m pytest tests/outputs -m outputs            # compare
    python -m pytest tests/outputs -m outputs --record   # rewrite OUTPUTS.json

``OUTPUTS.json`` holds one line per output: the SHA-256 of
``to_dict(include_series=True)`` for each of the 15 ``--fast`` figures,
of the stdout of the six scorecard runs and the ten examples (with the
exit status), the ``sim_digest`` ``bench/harness.py`` prints for the
four workloads at seeds 42 and 977, and four telemetry exports: the file
``runner --fast --metrics`` writes, the sessions the three ``--fast``
scorecard suites open (``scorecard_sessions.py``), which the runner's
file does not hold, and the Chrome traces ``runner --fast --trace``
writes for fig10 and enduser, the only rows that hold spans. Every
command runs in a process of its own, as a
user would run it. Tier-1 deselects the marker (about 45 s on two cpus);
a PR records the file on its parent commit first, so its own diff of the
file is the list of outputs it moved.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.experiments.parallel import JOB_ORDER

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
MANIFEST = HERE / "OUTPUTS.json"

SCORECARDS = [(*scale, *suite)
              for scale in (("--fast",), ())
              for suite in ((), ("--dnssec",), ("--gray",))]
EXAMPLES = sorted(path.name for path in (REPO / "examples").glob("*.py"))
WORKLOADS = ("resolve_steady", "flood_defend", "churn_mixed", "engine_wire")
BENCH_SEEDS = (42, 977)
#: Figures whose Chrome trace is pinned: fig10 holds the machine and
#: engine spans and the alert instants, enduser the resolver, PoP and
#: network ones.
TRACED = ("fig10", "enduser")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(*args: str) -> subprocess.CompletedProcess:
    """``python args...`` from the repo root, hash seed pinned as
    ``bench/run.py`` pins it."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def _stdout_row(*args: str) -> str:
    done = _run(*args)
    return f"exit {done.returncode} {_sha(done.stdout)}"


def _figures() -> dict[str, str]:
    with tempfile.TemporaryDirectory(prefix="outputs-") as scratch:
        path = Path(scratch) / "report.json"
        done = _run("-m", "repro.experiments.runner", "--fast", "--jobs",
                    "2", "--json", str(path))
        assert path.exists(), done.stderr[-2000:]
        results = json.loads(path.read_text())
    assert len(results) == len(JOB_ORDER)
    return {f"figure {label}": _sha(json.dumps(result, sort_keys=True))
            for label, result in zip(JOB_ORDER, results)}


def _runner_file(*args: str) -> str:
    """SHA-256 of the file ``runner --fast args... PATH`` writes."""
    with tempfile.TemporaryDirectory(prefix="outputs-") as scratch:
        path = Path(scratch) / "written.json"
        done = _run("-m", "repro.experiments.runner", "--fast", *args,
                    str(path))
        assert path.exists(), done.stderr[-2000:]
        return hashlib.sha256(path.read_bytes()).hexdigest()


def _last_line(*args: str) -> str:
    done = _run(*args)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.strip().splitlines()[-1]


def _sim_digest(workload: str, seed: int) -> str:
    line = _last_line("bench/harness.py", "--workload", workload,
                      "--seed", str(seed))
    return json.loads(line)["sim_digest"]


def compute() -> dict[str, str]:
    """Every row, two child processes at a time."""
    scorecard = ("-m", "repro.experiments.resilience_scorecard")
    jobs = {"figures": (_figures, ()),
            "telemetry runner --fast --metrics": (_runner_file,
                                                  ("--metrics",)),
            "telemetry scorecard --fast sessions": (
                _last_line, ("tests/outputs/scorecard_sessions.py",))}
    jobs.update((f"telemetry runner --fast --trace {label}", (
        _runner_file, ("--only", label, "--trace", label, "--trace-out")))
        for label in TRACED)
    jobs.update((" ".join(["scorecard", *flags]),
                 (_stdout_row, (*scorecard, *flags)))
                for flags in SCORECARDS)
    jobs.update((f"example {name}", (_stdout_row, (f"examples/{name}",)))
                for name in EXAMPLES)
    jobs.update((f"sim_digest {workload} {seed}",
                 (_sim_digest, (workload, seed)))
                for workload in WORKLOADS for seed in BENCH_SEEDS)
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = dict(zip(jobs, pool.map(lambda job: job[0](*job[1]),
                                       jobs.values())))
    rows = done.pop("figures")
    rows.update(done)
    return rows


@pytest.mark.outputs
def test_outputs_match_the_committed_manifest(request):
    rows = compute()
    if request.config.getoption("--record"):
        MANIFEST.write_text(json.dumps(rows, indent=1) + "\n")
        return
    recorded = json.loads(MANIFEST.read_text())
    differs = [f"{name}: {recorded.get(name, 'not recorded')} -> "
               f"{rows.get(name, 'gone')}"
               for name in sorted(set(recorded) | set(rows))
               if recorded.get(name) != rows.get(name)]
    assert not differs, "\n".join(differs)
