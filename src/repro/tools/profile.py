"""Hotspot profiler: ``python -m repro.tools.profile <experiment>``.

Runs one experiment (by the runner's figure label, e.g. ``fig10`` or
``text``) under :mod:`cProfile` at ``--fast`` scale and prints the top
functions by cumulative time — the workflow that drove the fast-path
optimization work, packaged so a regression hunt starts with one
command.

``--events LABEL`` counts instead of timing: events by scheduling site,
records constructed by class and calls made, for a figure label or for
a scenario of ``bench/workloads.py`` (measured phase only, per
operation), and for a scenario the collector's work in its measured
phase (collections and seconds by generation, through ``gc.callbacks``)
and the GC-tracked objects that phase leaves alive. All but the
collector's seconds are deterministic: the calls are the profiler's
count of every Python and builtin function call, less the counting
wrappers' own and the collector tally's clock reads.

Profiling is operator-facing tooling: the experiment result is
discarded and nothing here feeds simulation output.
"""

from __future__ import annotations

import argparse
import cProfile
import collections
import contextlib
import dataclasses
import gc
import importlib.util
import pstats
import re
import sys
import time
import types
from pathlib import Path
from typing import Callable, Iterator

from ..experiments import parallel
from ..netsim.clock import EventLoop

PROFILES_PATH = Path("docs/PROFILES.md")
WORKLOADS_PATH = Path("bench/workloads.py")
SCENARIO_SEED = 42   # the seed every recorded --events table was taken at


def summed_stats(profiler: cProfile.Profile) -> pstats.Stats:
    """``pstats.Stats`` of ``profiler`` with colliding labels summed.

    ``pstats`` keys a row by ``(file, line, name)`` and the profiler
    hands it one entry per code object, so code objects that share a
    label — every dataclass ``__init__`` is ``('<string>', 2,
    '__init__')`` — overwrite each other and the row reports whichever
    came last. Rows are built here from ``getstats()`` instead.
    """
    rows: dict[tuple, list] = {}
    for entry in profiler.getstats():
        row = rows.setdefault(cProfile.label(entry.code), [0, 0, 0.0, 0.0])
        row[0] += entry.callcount - entry.reccallcount
        row[1] += entry.callcount
        row[2] += entry.inlinetime
        row[3] += entry.totaltime
    return pstats.Stats(types.SimpleNamespace(
        create_stats=lambda: None,
        stats={label: (*row, {}) for label, row in rows.items()}))


def _units(label: str, fast: bool) -> list:
    units = [u for u in parallel.work_units(fast) if u[0] == label]
    if not units:
        known = ", ".join(parallel.JOB_ORDER)
        raise SystemExit(f"unknown experiment {label!r}; one of: {known}")
    return units


@contextlib.contextmanager
def profiling(profiler: cProfile.Profile) -> Iterator[None]:
    """``profiler`` on for the block. ``disable()`` clears whatever
    profile hook the thread has, so the one found on entry goes back:
    run in-process under another profiler, the tool is a guest."""
    before = sys.getprofile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        sys.setprofile(before)


def _profiled_units(label: str, fast: bool) -> cProfile.Profile:
    units = _units(label, fast)
    profiler = cProfile.Profile()
    with profiling(profiler):
        for unit in units:
            parallel.run_unit(unit, fast)
    return profiler


def profile_experiment(label: str, *, fast: bool = True,
                       top: int = 20, sort: str = "cumulative",
                       stream=None) -> None:
    """Profile every work unit of one figure and print hotspots."""
    stats = summed_stats(_profiled_units(label, fast))
    stats.stream = stream or sys.stdout
    stats.sort_stats(sort).print_stats(top)


def _short_path(path: str) -> str:
    """Repo-relative spelling so the committed report is host-neutral."""
    norm = path.replace("\\", "/")
    marker = "/src/repro/"
    idx = norm.find(marker)
    if idx >= 0:
        return "src/repro/" + norm[idx + len(marker):]
    if norm in ("~", ""):
        return "<builtin>"
    # Stdlib or site-packages: keep the trailing two components.
    return "/".join(norm.rsplit("/", 2)[-2:])


def _top_rows(stats: pstats.Stats, top: int) -> list[str]:
    """Markdown table rows for the ``top`` functions by cumulative time."""
    entries = sorted(stats.stats.items(),  # type: ignore[attr-defined]
                     key=lambda kv: -kv[1][3])[:top]
    rows = []
    for (path, line, func), (_cc, ncalls, tottime, cumtime, _callers) \
            in entries:
        where = _short_path(path)
        loc = f"`{where}:{line}`" if line else f"`{where}`"
        rows.append(f"| {loc} | `{func}` | {ncalls:,} "
                    f"| {tottime:.3f} | {cumtime:.3f} |")
    return rows


def foreign_sections(report: str, generated: tuple[str, ...]) -> list[str]:
    """The ``## <heading>`` sections of ``report`` whose heading is not a
    generated figure label — hand-recorded ones such as ``## engine_wire
    (bench workload)`` — verbatim and in order."""
    chunks = re.split(r"(?m)^(?=## )", report)[1:]
    return [chunk.rstrip("\n") + "\n" for chunk in chunks
            if chunk.splitlines()[0][3:].strip() not in generated]


def profile_all_figures(*, fast: bool = True, top: int = 10,
                        path: Path = PROFILES_PATH) -> None:
    """Profile every figure and write the committed hotspot report.

    Sections of the existing report that this function does not
    generate are carried over unchanged, after the generated ones.

    The report records the *shape* of each figure's cost — which
    functions dominate and how call counts relate — so a perf
    regression hunt can diff the landscape against the committed
    snapshot. Absolute seconds are host-specific and inflated several-
    fold by cProfile's tracing overhead; only relative weight within a
    table is meaningful.
    """
    sections = []
    for label in parallel.JOB_ORDER:
        stats = summed_stats(_profiled_units(label, fast))
        total = stats.total_tt  # type: ignore[attr-defined]
        rows = _top_rows(stats, top)
        sections.append(
            f"## {label}\n\n"
            f"Profiled wall time {total:.2f}s "
            f"(cProfile overhead included).\n\n"
            "| location | function | calls | tottime (s) | cumtime (s) |\n"
            "|---|---|---:|---:|---:|\n"
            + "\n".join(rows) + "\n")
        print(f"profiled {label}: {total:.2f}s", file=sys.stderr)
    header = (
        "# Experiment hotspot profiles\n\n"
        "Generated by `python -m repro.tools.profile --all-figures "
        f"--top {top}` at `--fast` scale.\n\n"
        "Each table lists the top functions by cumulative time for one\n"
        "runner figure. Times are cProfile-inflated and host-specific;\n"
        "use the tables to compare the *landscape* (which functions\n"
        "dominate, call-count ratios) against a fresh profile when\n"
        "hunting a regression, not to compare absolute seconds across\n"
        "machines or commits. A row sums every code object that carries\n"
        "its label: each dataclass `__init__` is `<string>:2`, so that\n"
        "row is all of them (`--events LABEL` splits it by class).\n\n")
    kept = (foreign_sections(path.read_text(), parallel.JOB_ORDER)
            if path.exists() else [])
    path.write_text(header + "\n".join(sections + kept))
    print(f"wrote {path}")


class _Site:
    """A scheduled action that counts itself when it fires."""

    __slots__ = ("action", "site", "tally")

    def __init__(self, action: Callable, site: str,
                 tally: "EventTally") -> None:
        self.action = action
        self.site = site
        self.tally = tally

    def __call__(self, *args):
        _tick(self.tally.fired, self.site, 1)
        return self.action(*args)


def _tick(counter: collections.Counter, key: str, count: int) -> None:
    """``counter[key] += count`` without ``Counter.__missing__``: the
    counting makes no call the profiler would see outside this module."""
    if key in counter:
        counter[key] += count
    else:
        counter[key] = count


class EventTally:
    """Events by scheduling site (``action.__qualname__``), over the
    phase in progress: an event scheduled in one phase and fired in the
    next counts as scheduled in the first and fired in the second."""

    def __init__(self) -> None:
        self.begin_phase()

    def begin_phase(self) -> None:
        self.scheduled: collections.Counter = collections.Counter()
        self.fired: collections.Counter = collections.Counter()


@contextlib.contextmanager
def counted_events(tally: EventTally) -> Iterator[None]:
    """Count into ``tally`` everything scheduled on any ``EventLoop``,
    by wrapping the scheduling entry points on the class."""
    call_at, call_later = EventLoop.call_at, EventLoop.call_later
    rewind = EventLoop.rewind

    def site(action: Callable, scheduled: int = 1) -> _Site:
        try:
            name = action.__qualname__
        except AttributeError:
            name = type(action).__name__
        _tick(tally.scheduled, name, scheduled)
        return _Site(action, name, tally)

    def counted_call_at(self, when, action, *args):
        return call_at(self, when, site(action), *args)

    def counted_call_later(self, delay, action, *args):
        return call_later(self, delay, site(action), *args)

    def counted_rewind(self, handle, when, action, *args):
        proxy = site(action, scheduled=0)
        moved = rewind(self, handle, when, proxy, *args)
        _tick(tally.scheduled, proxy.site, moved)
        return moved

    EventLoop.call_at = counted_call_at
    EventLoop.call_later = counted_call_later
    EventLoop.rewind = counted_rewind
    try:
        yield
    finally:
        EventLoop.call_at, EventLoop.call_later = call_at, call_later
        EventLoop.rewind = rewind


def records_by_class(profiler: cProfile.Profile) -> collections.Counter:
    """Dataclass records constructed under ``profiler``, by class.

    The profiler keeps one entry per code object, so the generated
    ``__init__`` of each class is told apart by identity even though
    every one of them carries the same label.
    """
    owner = {}
    for cls in gc.get_objects():
        if isinstance(cls, type) and dataclasses.is_dataclass(cls):
            code = getattr(vars(cls).get("__init__"), "__code__", None)
            if code is not None:
                owner[code] = (cls.__module__.removeprefix("repro.")
                               + "." + cls.__qualname__)
    built: collections.Counter = collections.Counter()
    for entry in profiler.getstats():
        if entry.code in owner:
            built[owner[entry.code]] += entry.callcount
    return built


class CollectorTally:
    """The collector's work while this is a ``gc.callbacks`` entry:
    collections and the host seconds they took, by generation, and the
    host seconds of the block :func:`collector_work` ran."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.phase_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        now = time.perf_counter()  # reprolint: disable=DET001
        if phase == "start":
            self._started = now
        else:
            generation = info["generation"]
            self.collections[generation] += 1
            self.seconds[generation] += now - self._started


@contextlib.contextmanager
def collector_work(tally: CollectorTally) -> Iterator[None]:
    """Count every collection that finishes inside the block, and time
    the block."""
    gc.callbacks.append(tally)
    started = time.perf_counter()  # reprolint: disable=DET001
    try:
        yield
    finally:
        ended = time.perf_counter()  # reprolint: disable=DET001
        tally.phase_s = ended - started
        gc.callbacks.remove(tally)


def calls_made(profiler: cProfile.Profile) -> int:
    """Calls of Python and builtin functions made under ``profiler``,
    less those of this module's frames (the event-counting wrappers;
    they call nothing else the profiler sees but the wrapped
    scheduling functions and actions, which count) and the clock reads
    of :class:`CollectorTally`, which the collector's timing makes."""
    here = __file__
    tally_code = CollectorTally.__call__.__code__
    made = 0
    for entry in profiler.getstats():
        if getattr(entry.code, "co_filename", None) != here:
            made += entry.callcount
        elif entry.code is tally_code:
            made -= sum(sub.callcount for sub in entry.calls or ())
    return made


def tracked_before() -> list:
    """Every GC-tracked object, after a collection: held by the returned
    list, so none of their ids can be reused by an object made later."""
    gc.collect()
    return gc.get_objects()


def survivors(before: list) -> collections.Counter:
    """GC-tracked objects alive after a collection that ``before`` (from
    :func:`tracked_before`) does not hold, by class; the event-counting
    wrappers still pending are not counted."""
    gc.collect()
    alive = gc.get_objects()
    old = {id(obj) for obj in before}
    old.add(id(before))
    found: collections.Counter = collections.Counter()
    for obj in alive:
        if id(obj) not in old and type(obj) is not _Site:
            cls = type(obj)
            found[cls.__module__.removeprefix("repro.") + "."
                  + cls.__qualname__] += 1
    return found


class _Untimed:
    """Stands in for bench's ``HostClock``: set-up parts go untimed."""

    @contextlib.contextmanager
    def timed(self, parts: dict, key: str) -> Iterator[None]:
        yield


def load_scenarios(path: Path) -> dict:
    """``SCENARIOS`` of a ``bench/workloads.py``, loaded by path (the
    benchmark's directory is not a package)."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    if spec is None or spec.loader is None or not path.exists():
        raise SystemExit(f"cannot load scenarios from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SCENARIOS


def count_events(label: str, *, fast: bool = True,
                 seed: int = SCENARIO_SEED, workloads: Path = WORKLOADS_PATH
                 ) -> tuple[EventTally, collections.Counter, int, int | None,
                            CollectorTally | None,
                            collections.Counter | None]:
    """Run ``label`` counting events, records and calls; returns the
    tally, records constructed by class, calls made, the operations
    done, the collector's work in the measured phase and that phase's
    survivors by class (the last three None for a figure, which has no
    operation count and no phase of its own)."""
    tally = EventTally()
    with counted_events(tally):
        if label in parallel.JOB_ORDER:
            profiler = _profiled_units(label, fast)
            return (tally, records_by_class(profiler), calls_made(profiler),
                    None, None, None)
        scenarios = load_scenarios(workloads)
        if label not in scenarios:
            raise SystemExit(
                f"unknown label {label!r}; a figure ("
                f"{', '.join(parallel.JOB_ORDER)}) or a scenario of "
                f"{workloads} ({', '.join(scenarios)})")
        scenario = scenarios[label](seed, 1.0)
        scenario.build(_Untimed())
        scenario.begin()
        tally.begin_phase()
        profiler = cProfile.Profile()
        collector = CollectorTally()
        before = tracked_before()
        with collector_work(collector), profiling(profiler):
            for i in range(scenario.n_slices):
                scenario.step(i)
        alive = survivors(before)
        del before
    return (tally, records_by_class(profiler), calls_made(profiler),
            scenario.report()["ops"], collector, alive)


def events_report(label: str, tally: EventTally,
                  records: collections.Counter, ops: int | None,
                  top: int, calls: int | None = None,
                  alive: collections.Counter | None = None,
                  collector: CollectorTally | None = None) -> str:
    """Markdown: events by scheduling site, records by class, then, for
    a scenario, the collector's work (``collector`` given) and the
    survivors by class (``alive`` given)."""
    fired = sum(tally.fired.values())
    built = sum(records.values())

    def per_op(count: int) -> str:
        return f" {count / ops:.2f} |" if ops else ""

    unit = "| per operation " if ops else ""
    rule = "---:|" if ops else ""
    head = (f"{ops:,} operations, " if ops else "") + \
        f"{fired:,} events fired" + \
        (f" ({fired / ops:.2f} per operation)" if ops else "") + \
        f", {built:,} dataclass records constructed" + \
        (f" ({built / ops:.2f} per operation)" if ops else "") + \
        ("" if calls is None else f", {calls:,} calls made" +
         (f" ({calls / ops:.1f} per operation)" if ops else ""))
    out = [f"## {label}", "", head + ".", "",
           f"| scheduling site | scheduled | fired {unit}|",
           f"|---|---:|---:|{rule}"]
    sites = sorted(tally.scheduled | tally.fired,
                   key=lambda s: (-tally.fired[s], -tally.scheduled[s], s))
    for name in sites:
        out.append(f"| `{name}` | {tally.scheduled[name]:,} | "
                   f"{tally.fired[name]:,} |{per_op(tally.fired[name])}")
    out += ["", f"| record class | constructed {unit}|", f"|---|---:|{rule}"]
    for name, count in sorted(records.items(),
                              key=lambda kv: (-kv[1], kv[0]))[:top]:
        out.append(f"| `{name}` | {count:,} |{per_op(count)}")
    if collector is not None:
        spent = sum(collector.seconds)
        share = spent / collector.phase_s if collector.phase_s else 0.0
        out += ["", f"{sum(collector.collections):,} collections in the "
                    f"measured phase, {spent:.3f} s of its "
                    f"{collector.phase_s:.2f} s ({share:.1%}; host time "
                    "under the profiler, not deterministic).", "",
                "| generation | collections | seconds |", "|---|---:|---:|"]
        for generation, (count, seconds) in enumerate(
                zip(collector.collections, collector.seconds)):
            out.append(f"| {generation} | {count:,} | {seconds:.3f} |")
    if alive is not None:
        left = sum(alive.values())
        out += ["", f"{left:,} GC-tracked objects left alive by the "
                    "measured phase" +
                (f" ({left / ops:.2f} per operation)" if ops else "") + ".",
                "", f"| surviving class | alive {unit}|", f"|---|---:|{rule}"]
        for name, count in sorted(alive.items(),
                                  key=lambda kv: (-kv[1], kv[0]))[:top]:
            out.append(f"| `{name}` | {count:,} |{per_op(count)}")
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiment", nargs="?",
                        help="figure label from the runner "
                             "(fig1..fig12, taxonomy, anycast-quality, "
                             "enduser, resilience, text)")
    parser.add_argument("--all-figures", action="store_true",
                        help="profile every figure and write "
                             f"{PROFILES_PATH}")
    parser.add_argument("--events", metavar="LABEL",
                        help="count events by scheduling site, records "
                             "by class and calls made for a figure label "
                             f"or a scenario of {WORKLOADS_PATH} at seed "
                             f"{SCENARIO_SEED} (measured phase, per "
                             "operation; for a scenario also the "
                             "collector's work and the objects left "
                             "alive)")
    parser.add_argument("--full", action="store_true",
                        help="profile at full (non --fast) scale")
    parser.add_argument("--top", type=int, default=None,
                        help="rows to print (default 20; 10 with "
                             "--all-figures)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default cumulative)")
    args = parser.parse_args(argv)
    if args.events is not None:
        tally, records, calls, ops, collector, alive = count_events(
            args.events, fast=not args.full)
        heading = (args.events if ops is None
                   else f"{args.events} (seed {SCENARIO_SEED})")
        print(events_report(heading, tally, records, ops,
                            args.top if args.top is not None else 20, calls,
                            alive, collector))
        return 0
    if args.all_figures:
        profile_all_figures(fast=not args.full,
                            top=args.top if args.top is not None else 10)
        return 0
    if args.experiment is None:
        parser.error("an experiment label or --all-figures is required")
    profile_experiment(args.experiment, fast=not args.full,
                       top=args.top if args.top is not None else 20,
                       sort=args.sort)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
