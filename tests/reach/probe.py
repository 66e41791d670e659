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

Worker processes a run forks (``runner --jobs``) are not followed: they
execute the same work units the serial run does in-process.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
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


def never_entered(defs: Iterable[Definition],
                  entered: set[tuple[str, int]]) -> list[Definition]:
    """Definitions no run entered, outermost only."""
    dead = [d for d in defs if (d.path, d.first_line) not in entered]
    dead_names = {(d.path, d.qualname) for d in dead}
    return [d for d in dead if (d.path, d.outer) not in dead_names]


def run_entry(entry: EntryPoint, root: Path = SOURCE,
              cwd: Path = REPO) -> set[tuple[str, int]]:
    """Run one entry point in a child process under the profile hooks
    and return the ``(path relative to root, first line)`` it entered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root.parent), *filter(None, [env.get("PYTHONPATH")])])
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        out = Path(scratch) / "entered.json"
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
        return {(path, line) for path, line in json.loads(out.read_text())}


def run_entries(entries: Iterable[EntryPoint], jobs: int = 2,
                ) -> set[tuple[str, int]]:
    """The union of what the entry points entered, ``jobs`` child
    processes at a time (the threads only wait on them)."""
    entered: set[tuple[str, int]] = set()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for pairs in pool.map(run_entry, entries):
            entered |= pairs
    return entered


def _child(out: str, root: str, kind: str, target: str,
           args: list[str]) -> None:
    """In the child: install the hooks, run the entry point as
    ``__main__``, write what was entered. Only an exit status other
    than a usage error leaves quietly; anything else is the entry point
    failing, and no report is written."""
    codes = set()

    def on_event(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
    sys.argv = [target, *args]
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
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(Path(root).resolve()) + os.sep
    pairs = sorted(
        (Path(code.co_filename[len(prefix):]).as_posix(),
         code.co_firstlineno)
        for code in codes if code.co_filename.startswith(prefix))
    Path(out).write_text(json.dumps(pairs))


def read_kept(path: Path = HERE / "KEPT.txt") -> dict[str, str]:
    """``class path::qualname`` per line -> {key: class}."""
    kept = {}
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2 or fields[0] not in KEPT_CLASSES:
            raise ValueError(f"{path.name}:{number}: expected one of "
                             f"{', '.join(KEPT_CLASSES)} and a definition")
        if fields[1] in kept:
            raise ValueError(f"{path.name}:{number}: {fields[1]} twice")
        kept[fields[1]] = fields[0]
    return kept


def disagreements(dead: list[Definition], kept: dict[str, str]) -> list[str]:
    """What the reach gate reports: a never-entered simulator definition
    the kept list lacks, or a listed one that is now entered or gone."""
    gated = {d.key for d in dead if d.package not in UNGATED_PACKAGES}
    return ([f"never entered, not in KEPT.txt: {key}"
             for key in sorted(gated - set(kept))]
            + [f"in KEPT.txt but entered or gone: {key}"
               for key in sorted(set(kept) - gated)])


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="NAMES",
                        help="comma-separated entry-point names")
    parser.add_argument("--list", action="store_true", dest="list_dead",
                        help="print every never-entered definition")
    args = parser.parse_args(argv)
    entries = entry_points()
    if args.only:
        wanted = args.only.split(",")
        unknown = sorted(set(wanted) - {e.name for e in entries})
        if unknown:
            parser.error(f"unknown entry points: {', '.join(unknown)}")
        entries = [e for e in entries if e.name in wanted]
    entered = run_entries(entries)
    defs = definitions(SOURCE)
    dead = never_entered(defs, entered)
    print(render_table(defs, dead))
    if args.list_dead:
        kept = read_kept()
        for d in dead:
            print(f"{kept.get(d.key, '-'):<15} {d.key}  "
                  f"(line {d.line}, {d.lines} lines)")
    if args.only:
        return 0
    problems = disagreements(dead, read_kept())
    print("\n".join(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5],
               sys.argv[6:])
    else:
        raise SystemExit(main())
