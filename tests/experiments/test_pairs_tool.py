"""``repro.tools.pairs``: the verdict rule, and one real pass — worktree,
alternation, parsing, clean-up, and naming what differs when the digests
do — over a throwaway repository whose "benchmark" prints a number read
from the checkout."""

import json
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro.tools import pairs
from repro.tools.pairs import summarize

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def shifted(by: float) -> list[float]:
    return [value + by for value in PARENT]


class TestVerdict:
    def test_gain_needs_the_wins_and_more_than_the_parents_quartile_gap(self):
        s = summarize(PARENT, shifted(10.0), higher_is_better=True,
                      bound=0.25)
        assert (s.verdict, s.wins, s.losses) == ("gain", 10, 0)
        assert s.ratio == pytest.approx(1.10, abs=0.005)

    def test_lower_is_better_metrics_gain_downwards(self):
        assert summarize(PARENT, shifted(-10.0), higher_is_better=False,
                         bound=0.25).verdict == "gain"
        assert summarize(PARENT, shifted(10.0), higher_is_better=False,
                         bound=0.05).verdict == "regression"

    def test_winning_every_pair_by_less_than_the_spread_is_no_gain(self):
        s = summarize(PARENT, shifted(0.5), higher_is_better=True,
                      bound=0.25)
        assert (s.verdict, s.wins) == ("no worse", 10)

    def test_eight_of_ten_is_not_nine_tenths(self):
        change = shifted(10.0)
        change[0] = change[1] = 90.0
        assert summarize(PARENT, change, higher_is_better=True,
                         bound=0.25).verdict != "gain"

    def test_ties_count_for_neither_side(self):
        change = shifted(10.0)
        change[0], change[1] = PARENT[0], PARENT[1]
        s = summarize(PARENT, change, higher_is_better=True, bound=0.25)
        assert (s.wins, s.losses, s.verdict) == (8, 0, "no worse")

    def test_median_worse_by_more_than_the_bound_is_a_regression(self):
        assert summarize(PARENT, shifted(-30.0), higher_is_better=True,
                         bound=0.25).verdict == "regression"
        assert summarize(PARENT, shifted(-20.0), higher_is_better=True,
                         bound=0.25).verdict == "no worse"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 100.0,
                 65.0, 135.0, 75.0, 125.0, 100.0]
        assert summarize(PARENT, noisy, higher_is_better=True,
                         bound=0.25).verdict == "unresolved"
        # ... unless every run of the change beats every parent run.
        wide = [0.0, 0.0, 0.0, 100.0, 100.0, 100.0, 100.0, 200.0, 200.0,
                200.0]
        above = [201.0 + 5 * i for i in range(10)]
        s = summarize(wide, above, higher_is_better=True, bound=0.25)
        assert (s.wins, s.verdict) == (10, "no worse")
        assert summarize(wide, [v - 1.5 for v in above],
                         higher_is_better=True,
                         bound=0.25).verdict == "unresolved"


FAKE_BENCH = textwrap.dedent("""\
    import json, pathlib, sys
    here = pathlib.Path(__file__).resolve().parent
    speed = float((here / "speed.txt").read_text())
    assert sys.argv[1:] == ["--workload", "w", "--seed", "7",
                            "--seconds", "12", "--trace", "0"], sys.argv
    print("== w: seed 7, sim_digest " + (here / "digest.txt").read_text())
    print(json.dumps({"correct": True, "attempted": 5, "failed": 0,
                      "metrics": {"queries_per_s": {"value": speed,
                                                    "unit": "1/s"}}}))
    """)


#: Stands in for bench/harness.py: one JSON object, last line of stdout.
FAKE_HARNESS = textwrap.dedent("""\
    import json, os, pathlib, sys
    here = pathlib.Path(__file__).resolve().parent.parent
    assert sys.argv[1:] == ["--workload", "w", "--seed", "7",
                            "--trace", "0"], sys.argv
    assert os.environ["PYTHONHASHSEED"] == "0"
    events = int((here / "events.txt").read_text())
    print("noise before the result")
    print(json.dumps({"ops": 5, "oracle": {"r": {"checked": 5, "failed": 0}},
                      "outcomes": "cafe", "sim_digest": "x",
                      "counters": {"netsim.clock.events": events,
                                   "resolver.resolutions": 5,
                                   "workload.packets": 0}}))
    """)


def test_difference_without_a_harness_says_so(tmp_path):
    assert pairs.digest_difference(tmp_path, tmp_path, "w", 7) == \
        "  (no bench/harness.py to ask)"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_one_real_pass_over_a_throwaway_repository(tmp_path, monkeypatch,
                                                   capsys):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / "bench.py").write_text(FAKE_BENCH)
    (repo / "speed.txt").write_text("100")
    (repo / "digest.txt").write_text("aaaa")
    (repo / "bench").mkdir()
    (repo / "bench" / "harness.py").write_text(FAKE_HARNESS)
    (repo / "events.txt").write_text("128104")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench.py"], "run_seconds": 12,
        "end_to_end": [{"name": "queries_per_s", "unit": "1/s",
                        "better": "higher", "bound": 0.25}]}))
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    # The change under test is the working tree, committed or not.
    (repo / "speed.txt").write_text("125")
    (repo / "digest.txt").write_text("bbbb")
    (repo / "events.txt").write_text("103118")

    monkeypatch.chdir(repo)
    assert pairs.main(["--parent", "HEAD", "--workload", "w", "--seed", "7",
                       "--pairs", "3"]) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines()
               if line.startswith("queries_per_s"))
    assert "100 (100..100)" in row and "125 (125..125)" in row
    assert "1.250" in row and "3/3" in row and row.endswith("gain")
    assert "parent: sim_digest aaaa; failed 0 of 15" in out
    assert "change: sim_digest bbbb" in out
    assert ("digests equal: NO\n"
            "  differs in: counters[netsim.clock.events] 128104 -> 103118\n"
            "  equal: ops, oracle, outcomes, 2 of 3 counters\n") in out
    assert [line.split(":")[1].split(";")[0].strip()
            for line in out.splitlines() if line[:3].strip().isdigit()] == \
        ["parent first", "change first", "parent first"]
    listed = subprocess.run(["git", "worktree", "list"], cwd=repo,
                            check=True, capture_output=True, text=True)
    assert len(listed.stdout.strip().splitlines()) == 1, \
        "the temporary worktree should be gone"
