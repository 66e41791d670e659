"""``repro.tools.profile``: ``--all-figures`` rewrites docs/PROFILES.md
and the sections it does not generate (hand-recorded bench workloads)
survive; table rows sum the code objects that share a label; ``--events``
counts events by scheduling site and records by class."""

import cProfile
import collections
import dataclasses
import gc
import pstats
import sys

import pytest

from repro.netsim import EventLoop
from repro.tools import profile
from repro.tools.profile import foreign_sections

REPORT = """\
# Experiment hotspot profiles

Generated by ...

## fig1

table one

## engine_wire (bench workload)

hand-recorded
| a | b |

## text

table two


## resolve_steady (bench workload)

also by hand
"""


def test_hand_recorded_sections_are_kept_verbatim_and_in_order():
    kept = foreign_sections(REPORT, ("fig1", "text"))
    assert kept == [
        "## engine_wire (bench workload)\n\nhand-recorded\n| a | b |\n",
        "## resolve_steady (bench workload)\n\nalso by hand\n"]


def test_regenerating_twice_does_not_grow_the_report():
    generated = ["## fig1\n\nnew table\n", "## text\n\nnew table\n"]
    once = "# header\n\n" + "\n".join(
        generated + foreign_sections(REPORT, ("fig1", "text")))
    twice = "# header\n\n" + "\n".join(
        generated + foreign_sections(once, ("fig1", "text")))
    assert once == twice


def test_a_report_of_generated_sections_only_keeps_nothing():
    assert foreign_sections("# h\n\n## fig1\n\nx\n", ("fig1",)) == []
    assert foreign_sections("", ("fig1",)) == []


# -- rows built from getstats(): colliding labels are summed -----------------


@dataclasses.dataclass
class _Often:
    x: int = 0


@dataclasses.dataclass(slots=True)
class _Seldom:
    y: int = 0


def _profiled_constructions() -> cProfile.Profile:
    profiler = cProfile.Profile()
    with profile.profiling(profiler):
        for _ in range(1000):
            _Often()
        for _ in range(7):
            _Seldom()
    return profiler


def test_two_dataclasses_share_one_row_and_it_holds_both():
    profiler = _profiled_constructions()
    label = ("<string>", 2, "__init__")
    # What the tables were built from: whichever class came last.
    assert pstats.Stats(profiler).stats[label][1] in (7, 1000)
    primitive, calls, tottime, cumtime, _ = \
        profile.summed_stats(profiler).stats[label]
    assert (primitive, calls) == (1007, 1007)
    assert 0 < tottime <= cumtime
    row = next(r for r in profile._top_rows(profile.summed_stats(profiler), 5)
               if "`__init__`" in r)
    assert "| 1,007 |" in row


def test_records_are_told_apart_by_class():
    built = profile.records_by_class(_profiled_constructions())
    here = __name__.removeprefix("repro.")
    assert built[f"{here}._Often"] == 1000
    assert built[f"{here}._Seldom"] == 7


def test_events_are_counted_by_site_in_the_phase_they_fire_in():
    tally = profile.EventTally()
    fired = []
    with profile.counted_events(tally):
        loop = EventLoop()
        loop.call_at(1.0, fired.append, "a")
        loop.call_later(5.0, fired.append, "b")
        cancelled = loop.call_later(2.0, fired.append, "never")
        for i in range(3):
            loop.call_at(3.0, fired.append, i)
        loop.cancel(cancelled)
        loop.run_until(2.0)
        assert tally.scheduled["list.append"] == 6
        assert tally.fired["list.append"] == 1
        tally.begin_phase()
        loop.run()
    assert fired == ["a", 0, 1, 2, "b"]
    assert not tally.scheduled and tally.fired["list.append"] == 4
    assert loop.events_processed == 5
    # The wrappers are gone again, and later loops are not counted.
    other = EventLoop()
    other.call_later(1.0, fired.append, "c")
    other.run()
    assert tally.fired["list.append"] == 4


def test_a_rewound_event_is_counted_at_its_new_site():
    tally = profile.EventTally()
    fired = []
    with profile.counted_events(tally):
        loop = EventLoop()
        late = loop.call_at(9.0, fired.append, "late")
        assert loop.rewind(late, 1.0, fired.extend, "ab")
        gone = loop.call_at(9.0, fired.append, "stays")
        loop.run_until(2.0)
        assert not loop.rewind(gone, 1.0, fired.extend, "cd")
        loop.run()
    assert fired == ["a", "b", "stays"]
    assert tally.scheduled == {"list.append": 2, "list.extend": 1}
    assert +tally.fired == {"list.append": 1, "list.extend": 1}


def test_events_report_is_per_operation_for_a_scenario():
    tally = profile.EventTally()
    tally.scheduled.update({"A.f": 10, "B.g": 4})
    tally.fired.update({"A.f": 8, "B.g": 4})
    text = profile.events_report("w (seed 1)", tally,
                                 collections.Counter(
                                     {"m.R": 6, "m.S": 2}), 4, top=1)
    assert "4 operations, 12 events fired (3.00 per operation), " \
           "8 dataclass records constructed (2.00 per operation)." in text
    counted = profile.events_report("w (seed 1)", tally,
                                    collections.Counter(), 4, top=1,
                                    calls=30)
    assert "0 dataclass records constructed (0.00 per operation), " \
           "30 calls made (7.5 per operation)." in counted
    assert "| `A.f` | 10 | 8 | 2.00 |" in text
    assert "| `m.R` | 6 | 1.50 |" in text and "m.S" not in text
    assert "left alive" not in text
    kept = profile.events_report("w (seed 1)", tally, collections.Counter(),
                                 4, top=1, calls=30, alive=collections.Counter(
                                     {"builtins.list": 10, "m.R": 2}))
    assert "\n12 GC-tracked objects left alive by the measured phase " \
           "(3.00 per operation).\n" in kept
    assert "| `builtins.list` | 10 | 2.50 |" in kept and "`m.R` | 2" not in kept
    walked = profile.events_report(
        "w (seed 1)", tally, collections.Counter(), 4, top=1,
        network={"route walks": 2, "distance tables from scratch": 1})
    assert "| route walks (`Network._resolve_route`) | 2 | 0.5000 |\n" \
        "| distance tables from scratch (`Network._dijkstra`) | 1 | " \
        "0.2500 |" in walked
    # A figure has no operation count: plain counts only.
    plain = profile.events_report("fig", tally, collections.Counter(),
                                  None, top=1)
    assert "| `A.f` | 10 | 8 |\n" in plain and "per operation" not in plain


@pytest.fixture
def tiny_workloads(tmp_path):
    workloads = tmp_path / "workloads.py"
    workloads.write_text(
        "from repro.netsim import EventLoop\n"
        "class Tiny:\n"
        "    n_slices = 2\n"
        "    def __init__(self, seed, scale):\n"
        "        self.seed = seed\n"
        "    def build(self, clock):\n"
        "        with clock.timed({}, 'x'):\n"
        "            self.loop = EventLoop()\n"
        "        self.loop.call_at(0.5, self.tick)     # set-up\n"
        "        self.loop.run_until(1.0)\n"
        "        for i in range(self.seed):\n"
        "            self.loop.call_at(2.0 + i, self.tick)\n"
        "    def begin(self):\n"
        "        pass\n"
        "    def tick(self):\n"
        "        pass\n"
        "    def step(self, i):\n"
        "        self.loop.run_until(10.0 * (i + 1))\n"
        "    def report(self):\n"
        "        return {'ops': 3}\n"
        "class Keeper(Tiny):\n"
        "    kept = []\n"
        "    def tick(self):\n"
        "        self.kept.append([])\n"
        "    def step(self, i):\n"
        "        super().step(i)\n"
        "        if i == 1:\n"
        "            self.loop.call_at(99.0, self.tick)\n"
        "SCENARIOS = {'tiny': Tiny, 'keeper': Keeper}\n")
    return workloads


def test_a_scenario_is_loaded_by_path_and_counted_over_its_measured_phase(
        tiny_workloads):
    tally, records, calls, ops, network, collector, alive = \
        profile.count_events("tiny", seed=6, workloads=tiny_workloads)
    assert ops == 3 and not records and not alive
    assert network == {"route walks": 0, "distance tables from scratch": 0}
    assert collector not in gc.callbacks
    assert tally.fired == {"Tiny.tick": 6} and not tally.scheduled
    # Two steps, each a run_until; six events, each a heappop and a
    # tick; three calls leaving the profiled block (the context
    # manager's exit, its next() and disable()). The counting wrappers'
    # frames are not among them.
    assert calls == 2 + 2 + 6 + 6 + 3


def test_what_the_measured_phase_leaves_alive_is_counted_by_class(
        tiny_workloads):
    """Survivors: objects made in the measured phase and alive after a
    collection. Six ticks keep a list each; the event set for after the
    run is pending, its heap entry a list and its action a bound method.
    The set-up tick's list and the counting wrapper are not counted."""
    *_, alive = profile.count_events("keeper", seed=6,
                                     workloads=tiny_workloads)
    assert alive == {"builtins.list": 7, "builtins.method": 1}


def test_the_collector_is_counted_by_generation_and_its_clock_is_not():
    """Every collection that ends inside the block counts under its
    generation; the tally's clock reads are not the program's calls."""
    collector = profile.CollectorTally()
    with profile.collector_work(collector):
        gc.collect(1)
        gc.collect()
    assert collector not in gc.callbacks
    assert collector.collections[1] >= 1 and collector.collections[2] == 1
    assert collector.seconds[2] > 0.0
    profiler = cProfile.Profile()
    with profile.profiling(profiler):
        collector("start", {"generation": 0})
        collector("stop", {"generation": 0})
    # Only the three calls leaving the profiled block.
    assert profile.calls_made(profiler) == 3
    tally = profile.EventTally()
    assert collector.phase_s >= sum(collector.seconds)
    collector.collections, collector.seconds = [5, 2, 1], [0.01, 0.02, 0.3]
    collector.phase_s = 3.3
    text = profile.events_report("w (seed 1)", tally, collections.Counter(),
                                 4, top=1, collector=collector)
    assert "\n8 collections in the measured phase, 0.330 s of its " \
           "3.30 s (10.0%; " in text
    assert "| 2 | 1 | 0.300 |" in text


def test_the_tool_puts_the_profile_hook_it_found_back(tiny_workloads):
    """``cProfile``'s ``disable()`` clears the thread's hook; under an
    outer profiler (the reach probe over tier-1) every later test would
    go unseen."""
    def outer(frame, event, arg):
        return None

    before = sys.getprofile()
    sys.setprofile(outer)
    try:
        profile.count_events("tiny", seed=6, workloads=tiny_workloads)
        found = sys.getprofile()
    finally:
        sys.setprofile(before)
    assert found is outer
