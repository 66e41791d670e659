"""Which function definitions does no product entry point enter?

    python tests/reach/probe.py                    # every entry point, then the table
    python tests/reach/probe.py --only dig,quickstart

Each line of ``ENTRYPOINTS.txt`` is run in a process of its own under
``sys.setprofile`` + ``threading.setprofile``; the ``(file, first line)``
of every code object entered is unioned across the runs and compared
with the ``def``s the AST of the probed package holds. A definition
nested in a never-entered one is folded into it (it cannot have run), so
the table names each dead region once, by its outermost function.
``KEPT.txt`` lists the never-entered definitions of the simulator
packages that stay, each with the reason class that keeps it; the
``reach`` test fails when the table and that list disagree.

The same hook takes the options census (``--list`` prints it too): for
every constructor parameter under the probed package that has a default
-- dataclass fields included -- the set of values the entry points
construct with, and every later write to such a field of a dataclass
instance. ``OPTIONS.txt`` lists the options that take one value in every
run and stay, each with the reason class that keeps it; the ``reach``
test fails when the census and that list disagree. An option that is
not on it either varies between two product runs or is deleted and its
one value is a constant beside its use.

Worker processes a run forks (``runner --jobs``) are not followed: they
execute the same work units the serial run does in-process.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import enum
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, NamedTuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SOURCE = REPO / "src" / "repro"

#: The reason classes ``KEPT.txt`` may give, and no other.
KEPT_CLASSES = ("interface", "codec", "input-handling", "bench-bound",
                "debug")
#: Packages whose never-entered definitions the kept list does not
#: cover: command-line ``main``s and renderers the probe does not drive.
UNGATED_PACKAGES = ("tools", "lint")
#: The reason classes ``OPTIONS.txt`` may give, and no other.
OPTION_CLASSES = ("seed", "safety", "input-handling", "test-scale",
                  "bench-bound")
#: A class named like this holds parameters and nothing else; its fields
#: are the count the options table reports first.
CONFIG_CLASS = re.compile(r"(Params|Config|Policy|Limits|SLO)$")
#: Distinct values kept per option and run. Two already mean "varies";
#: the rest are for the reader of the table.
MAX_VALUES = 6
#: A class constructed more often than this in one run is a record on
#: the data path, not configuration: the census keeps what these many
#: constructions showed and stops paying for the rest.
WATCH_LIMIT = 200_000


class EntryPoint(NamedTuple):
    name: str
    kind: str  # "module" (python -m target) or "script" (python target)
    target: str
    args: tuple[str, ...]


class Definition(NamedTuple):
    path: str  # relative to the probed root, posix
    qualname: str  # Class.method, outer.inner
    line: int  # of the ``def`` keyword
    first_line: int  # what co_firstlineno holds: the first decorator's
    lines: int  # ``def`` line through the last body line
    outer: str | None  # qualname of the enclosing function, if any

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def package(self) -> str:
        return self.path.split("/", 1)[0]


class Option(NamedTuple):
    path: str  # relative to the probed root, posix
    owner: str  # qualname of the class constructed
    name: str  # the parameter or dataclass field

    @property
    def key(self) -> str:
        return f"{self.path}::{self.owner}.{self.name}"

    @property
    def package(self) -> str:
        return self.path.split("/", 1)[0]

    @property
    def config_field(self) -> bool:
        return CONFIG_CLASS.search(self.owner) is not None


class Observed(NamedTuple):
    entered: set[tuple[str, int]]  # (path, first line) of code objects
    values: dict[str, set[str]]  # Option.key -> values constructed with


def entry_points(path: Path = HERE / "ENTRYPOINTS.txt") -> list[EntryPoint]:
    """``name kind target args...`` per line, ``#`` starts a comment."""
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = shlex.split(line, comments=True)
        if fields:
            name, kind, target, *args = fields
            entries.append(EntryPoint(name, kind, target, tuple(args)))
    return entries


def definitions(root: Path) -> list[Definition]:
    """Every ``def`` / ``async def`` under ``root``, in file order."""
    found = []

    def visit(node: ast.AST, path: str, scope: str, outer: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{scope}{child.name}"
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                found.append(Definition(
                    path, qualname, child.lineno, first,
                    child.end_lineno - child.lineno + 1, outer))
                visit(child, path, f"{qualname}.", qualname)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{scope}{child.name}.", outer)
            else:
                visit(child, path, scope, outer)

    for source in sorted(root.rglob("*.py")):
        relative = source.relative_to(root).as_posix()
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        visit(tree, relative, "", None)
    return found


def options(root: Path) -> list[Option]:
    """Every constructor parameter under ``root`` that has a default:
    the defaulted fields of a dataclass and the defaulted arguments of
    an ``__init__``, in file order. Left out, because a caller does not
    choose them: ``init=False`` and ``ClassVar`` fields; an empty
    ``list`` / ``dict`` / ``set`` from a ``default_factory``, which is
    where an object accumulates; and, outside the config classes, a
    field the defining module itself assigns (``stats.sent += 1``,
    ``track.verdict = ...``), which is state that module keeps."""
    found = []
    no_parameter = re.compile(
        r"init=False|default_factory=(list|dict|set)\b")

    def visit(node: ast.AST, path: str, scope: str, state: set[str]):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.ClassDef):
                visit(child, path, scope, state)
                continue
            owner = f"{scope}{child.name}"
            is_dataclass = any("dataclass" in ast.unparse(d)
                               for d in child.decorator_list)
            kept = set() if CONFIG_CLASS.search(owner) else state
            for stmt in child.body:
                if (is_dataclass and isinstance(stmt, ast.AnnAssign)
                        and stmt.value is not None
                        and stmt.target.id not in kept
                        and "ClassVar" not in ast.unparse(stmt.annotation)
                        and not no_parameter.search(
                            ast.unparse(stmt.value))):
                    found.append(Option(path, owner, stmt.target.id))
                elif (isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "__init__"):
                    spec = stmt.args
                    positional = [*spec.posonlyargs, *spec.args]
                    pairs = [*zip(positional[len(positional)
                                             - len(spec.defaults):],
                                  spec.defaults),
                             *zip(spec.kwonlyargs, spec.kw_defaults)]
                    found.extend(Option(path, owner, arg.arg)
                                 for arg, default in pairs
                                 if default is not None)
            visit(child, path, f"{owner}.", state)

    for source in sorted(root.rglob("*.py")):
        relative = source.relative_to(root).as_posix()
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        assigned = {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)}
        visit(tree, relative, "", assigned)
    return found


def never_entered(defs: Iterable[Definition],
                  entered: set[tuple[str, int]]) -> list[Definition]:
    """Definitions no run entered, outermost only."""
    dead = [d for d in defs if (d.path, d.first_line) not in entered]
    dead_names = {(d.path, d.qualname) for d in dead}
    return [d for d in dead if (d.path, d.outer) not in dead_names]


def run_entry(entry: EntryPoint, root: Path = SOURCE,
              cwd: Path = REPO) -> Observed:
    """Run one entry point in a child process under the profile hooks
    and return what it entered and what it constructed with."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root.parent), *filter(None, [env.get("PYTHONPATH")])])
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        out = Path(scratch) / "observed.json"
        args = [a.replace("{tmp}", scratch) for a in entry.args]
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             str(out), str(root), entry.kind, entry.target, *args],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        if not out.exists():
            raise RuntimeError(
                f"entry point {entry.name!r} died before reporting "
                f"(status {done.returncode}):\n{done.stderr[-2000:]}")
        report = json.loads(out.read_text())
    return Observed({(path, line) for path, line in report["entered"]},
                    {key: set(seen)
                     for key, seen in report["values"].items()})


def run_entries(entries: Iterable[EntryPoint], jobs: int = 2) -> Observed:
    """The union of what the entry points entered and constructed with,
    ``jobs`` child processes at a time (the threads only wait on them)."""
    union = Observed(set(), {})
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for entered, values in pool.map(run_entry, entries):
            union.entered.update(entered)
            for key, seen in values.items():
                union.values.setdefault(key, set()).update(seen)
    return union


_SCALARS = (bool, int, float, str, bytes, enum.Enum)


def _show(value: object) -> str:
    """A value as the census compares it: scalars and small containers
    of scalars by ``repr``, a config object by its fields, anything else
    by its type (two resolvers' ``rng`` are one value; ``None`` and an
    rng are two)."""
    if value is None or isinstance(value, _SCALARS):
        return repr(value)
    if isinstance(value, (tuple, list, set, frozenset, dict)):
        if len(value) <= 12 and all(
                item is None or isinstance(item, _SCALARS) for item in (
                    [*value.keys(), *value.values()]
                    if isinstance(value, dict) else value)):
            return repr(value)
        return f"<{type(value).__name__} of {len(value)}>"
    if CONFIG_CLASS.search(type(value).__name__):
        return repr(value)
    return f"<{getattr(value, '__qualname__', type(value).__qualname__)}>"


class _Watch:
    """One watched constructor: what is read from its frames, the class
    whose writes are recorded instead, and the constructions left."""

    __slots__ = ("pairs", "patched", "left")

    def __init__(self, pairs: tuple[tuple[str, str], ...],
                 patched: type | None) -> None:
        self.pairs = pairs  # (parameter, Option.key) read from the frame
        self.patched = patched
        self.left = WATCH_LIMIT


class Census:
    """The values the constructors under ``root`` are called with.

    ``constructed`` is fed every ``__init__`` frame the profile hook
    sees. The first frame of a code object decides whether it is watched
    (its class is defined under ``root`` and ``options`` lists some of
    its parameters). A dataclass that is not frozen gets a recording
    ``__setattr__`` on the class for as long as it is watched, so
    ``link.capacity_pps = 50`` after construction counts like
    ``Link(capacity_pps=50)``; any other constructor is read from its
    frame. A watch ends after ``WATCH_LIMIT`` constructions.
    """

    def __init__(self, root: str, wanted: set[str]) -> None:
        self.root = root  # resolved, with the trailing separator
        self.wanted = wanted  # Option.key of everything options() lists
        self.values: dict[str, set[str]] = {}
        self._watched: dict[object, _Watch | None] = {}
        self._plain: dict[type, object] = {}  # class -> own __setattr__

    def close(self) -> None:
        """Take the recording ``__setattr__`` off every class again."""
        for cls in reversed(list(self._plain)):
            self._unpatch(cls)

    def _unpatch(self, cls: type) -> None:
        own = self._plain.pop(cls)
        if own is None:
            del cls.__setattr__
        else:
            cls.__setattr__ = own

    def constructed(self, frame) -> None:
        code = frame.f_code
        try:
            watch = self._watched[code]
        except KeyError:
            watch = self._watched[code] = self._watch(frame)
        if watch is None:
            return
        if watch.pairs:
            local = frame.f_locals
            for name, key in watch.pairs:
                self.record(key, local[name])
        watch.left -= 1
        if not watch.left:
            self._watched[code] = None
            if watch.patched is not None:
                self._unpatch(watch.patched)

    def record(self, key: str, value: object) -> None:
        seen = self.values.setdefault(key, set())
        if len(seen) < MAX_VALUES:
            seen.add(_show(value))

    def _path(self, cls: type) -> str | None:
        """Where ``cls`` is defined, relative to the root; a ``python
        -m`` target's classes say ``__main__`` and are found by file."""
        module = sys.modules.get(cls.__module__)
        file = getattr(module, "__file__", None) or ""
        if not file.startswith(self.root):
            return None
        return Path(file[len(self.root):]).as_posix()

    def _watch(self, frame) -> _Watch | None:
        code = frame.f_code
        if not code.co_argcount:
            return None
        instance = frame.f_locals[code.co_varnames[0]]
        for cls in type(instance).__mro__:
            init = vars(cls).get("__init__")
            if getattr(init, "__code__", None) is code:
                break
        else:
            return None
        if self._path(cls) is None:
            return None
        count = code.co_argcount
        names = [*code.co_varnames[count - len(init.__defaults__ or ()):
                                   count],
                 *(init.__kwdefaults__ or ())]
        pairs = []
        for name in names:
            # A dataclass's generated __init__ takes its bases' fields
            # too; each belongs to the class that declares it.
            owner = next((base for base in cls.__mro__ if name in
                          vars(base).get("__annotations__", ())), cls)
            key = f"{self._path(owner)}::{owner.__qualname__}.{name}"
            if key in self.wanted:
                pairs.append((name, key))
        if not pairs:
            return None
        if (dataclasses.is_dataclass(cls)
                and not cls.__dataclass_params__.frozen):
            # The generated __init__ assigns every field, so the writes
            # are the record, default_factory products included.
            self._record_writes(cls, dict(pairs))
            return _Watch((), cls)
        return _Watch(tuple(pairs), None)

    def _record_writes(self, cls: type, keys: dict[str, str]) -> None:
        plain = cls.__setattr__
        record = self.record
        self._plain[cls] = vars(cls).get("__setattr__")
        last = dict.fromkeys(keys, self)  # no field holds the census

        def recording(instance, name, value):
            if name in last and value is not last[name]:
                last[name] = value
                record(keys[name], value)
            plain(instance, name, value)

        cls.__setattr__ = recording


def _child(out: str, root: str, kind: str, target: str,
           args: list[str]) -> None:
    """In the child: install the hooks, run the entry point as
    ``__main__``, write what was entered and constructed. Only an exit
    status other than a usage error leaves quietly; anything else is the
    entry point failing, and no report is written."""
    prefix = str(Path(root).resolve()) + os.sep
    codes = set()
    census = Census(prefix, {o.key for o in options(Path(root))})

    def on_event(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes.add(code)
            if code.co_name == "__init__":
                census.constructed(frame)

    os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
    sys.argv = [target, *args]
    before = (sys.getprofile(), threading.getprofile())
    threading.setprofile(on_event)
    sys.setprofile(on_event)
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        elif kind == "script":
            runpy.run_path(target, run_name="__main__")
        else:
            raise ValueError(f"unknown entry-point kind {kind!r}")
    except SystemExit as done:
        # 1 is a verdict (an SLO row missed, a gate tripped) and the run
        # still happened; 2 is argparse's usage error: a stale line in
        # ENTRYPOINTS.txt that ran nothing.
        if done.code == 2:
            raise
    finally:
        # What was installed on entry goes back: run in-process under a
        # profiler, this is not the hook's owner.
        sys.setprofile(before[0])
        threading.setprofile(before[1])
        census.close()
    entered = sorted(
        (Path(code.co_filename[len(prefix):]).as_posix(),
         code.co_firstlineno)
        for code in codes if code.co_filename.startswith(prefix))
    Path(out).write_text(json.dumps({
        "entered": entered,
        "values": {key: sorted(seen)
                   for key, seen in census.values.items()}}))


def read_listing(path: Path, classes: tuple[str, ...]) -> dict[str, str]:
    """``class key`` per line -> {key: class}; ``#`` starts a comment."""
    listed = {}
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2 or fields[0] not in classes:
            raise ValueError(f"{path.name}:{number}: expected one of "
                             f"{', '.join(classes)} and a name")
        if fields[1] in listed:
            raise ValueError(f"{path.name}:{number}: {fields[1]} twice")
        listed[fields[1]] = fields[0]
    return listed


def read_kept(path: Path = HERE / "KEPT.txt") -> dict[str, str]:
    """``class path::qualname`` per line -> {key: class}."""
    return read_listing(path, KEPT_CLASSES)


def read_options(path: Path = HERE / "OPTIONS.txt") -> dict[str, str]:
    """``class path::Owner.parameter`` per line -> {key: class}."""
    return read_listing(path, OPTION_CLASSES)


def _mismatches(rows: Iterable[Definition | Option], listed: dict[str, str],
                file: str, state: str, change: str) -> list[str]:
    """Rows of a simulator package the list lacks, then listed keys that
    are no row any more."""
    gated = {r.key for r in rows if r.package not in UNGATED_PACKAGES}
    return ([f"{state}, not in {file}: {key}"
             for key in sorted(gated - set(listed))]
            + [f"in {file} but {change} or gone: {key}"
               for key in sorted(set(listed) - gated)])


def disagreements(dead: list[Definition], kept: dict[str, str]) -> list[str]:
    """What the reach gate reports: a never-entered simulator definition
    the kept list lacks, or a listed one that is now entered or gone."""
    return _mismatches(dead, kept, "KEPT.txt", "never entered", "entered")


def single_valued(found: Iterable[Option],
                  values: dict[str, set[str]]) -> list[Option]:
    """Options no two runs gave two values: constructed with one value
    everywhere, or by no entry point at all."""
    return [o for o in found if len(values.get(o.key, ())) < 2]


def option_disagreements(single: list[Option],
                         listed: dict[str, str]) -> list[str]:
    """The census half of the gate: a single-valued option of a
    simulator package that ``OPTIONS.txt`` lacks, or a listed one that
    now varies or is gone."""
    return _mismatches(single, listed, "OPTIONS.txt",
                       "one value in every run", "varies")


def render_table(defs: list[Definition], dead: list[Definition]) -> str:
    """Per package: definitions, never entered, their lines."""
    rows = ["package       defs  never-entered  lines"]
    packages = sorted({d.package for d in defs})
    for package in packages:
        mine = [d for d in dead if d.package == package]
        rows.append(f"{package:<12} {sum(d.package == package for d in defs):>5}"
                    f"  {len(mine):>13}  {sum(d.lines for d in mine):>5}")
    simulator = [d for d in dead if d.package not in UNGATED_PACKAGES]
    rows.append(f"{'total':<12} {len(defs):>5}  {len(dead):>13}"
                f"  {sum(d.lines for d in dead):>5}")
    rows.append(f"{'simulator':<12} {'':>5}  {len(simulator):>13}"
                f"  {sum(d.lines for d in simulator):>5}")
    return "\n".join(rows)


def render_options(found: list[Option], single: list[Option]) -> str:
    """Config-class fields and other constructor keywords: how many, and
    how many of them every run gave one value."""
    rows = ["options               declared  single-valued"]
    for title, wanted in (("config-class fields", True),
                          ("other keywords", False)):
        rows.append(
            f"{title:<20} {sum(o.config_field is wanted for o in found):>9}"
            f"  {sum(o.config_field is wanted for o in single):>13}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="NAMES",
                        help="comma-separated entry-point names")
    parser.add_argument("--list", action="store_true", dest="list_rows",
                        help="print every never-entered definition and "
                             "every option with the values it took")
    args = parser.parse_args(argv)
    entries = entry_points()
    if args.only:
        wanted = args.only.split(",")
        unknown = sorted(set(wanted) - {e.name for e in entries})
        if unknown:
            parser.error(f"unknown entry points: {', '.join(unknown)}")
        entries = [e for e in entries if e.name in wanted]
    observed = run_entries(entries)
    defs = definitions(SOURCE)
    dead = never_entered(defs, observed.entered)
    print(render_table(defs, dead))
    if args.list_rows:
        kept = read_kept()
        for d in dead:
            print(f"{kept.get(d.key, '-'):<15} {d.key}  "
                  f"(line {d.line}, {d.lines} lines)")
    found = options(SOURCE)
    single = single_valued(found, observed.values)
    print(render_options(found, single))
    if args.list_rows:
        listed = read_options()
        for o in found:
            seen = sorted(observed.values.get(o.key, ()))
            print(f"{listed.get(o.key, '-'):<15} {o.key}  "
                  f"[{len(seen)}] {', '.join(seen)}")
    if args.only:
        return 0
    problems = (disagreements(dead, read_kept())
                + option_disagreements(single, read_options()))
    print("\n".join(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5],
               sys.argv[6:])
    else:
        raise SystemExit(main())
