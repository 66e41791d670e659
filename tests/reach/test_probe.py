"""The reachability probe: what it marks, and the gate over the real tree.

The small cases run the probe on a throw-away package; one tier-1 case
runs it over the two sub-second product entry points; the ``reach``
case (deselected by default, ``-m reach`` selects it) runs every entry
point and compares the table with ``KEPT.txt``, the options census
with ``OPTIONS.txt`` and the output rows with ``OUTPUTS.json``
(``--record`` rewrites that file from the run).
"""

import hashlib
import sys
import textwrap

import pytest

from . import probe

MODULE = '''\
import functools
import threading


def called():
    return 1


def uncalled():
    def nested():
        return 2
    return nested


def threaded():
    return 3


def spawn():
    worker = threading.Thread(target=threaded)
    worker.start()
    worker.join()


def logged(function):
    @functools.wraps(function)
    def wrapper():
        return function()
    return wrapper


@logged
def decorated():
    return 4


@logged
def decorated_uncalled():
    return 5
'''

ENTRY = '''\
from pkg import conf, mod
mod.called(), mod.spawn(), mod.decorated()
conf.Server("a"), conf.Server("b", depth=4, mode="fast")
first, second = conf.Config(), conf.Config(varied=2)
second.written = 3
conf.Frozen(), conf.Frozen(varied=2)
conf.Pair(1), conf.Pair(1, right=3)
'''

CONF = '''\
from dataclasses import dataclass, field
from typing import NamedTuple


@dataclass
class Config:
    fixed: int = 1
    varied: int = 1
    written: int = 1
    log: list = field(default_factory=list)
    derived: int = field(init=False, default=0)


@dataclass(frozen=True)
class Frozen:
    fixed: int = 1
    varied: int = 1


class Server:
    def __init__(self, name, depth=4, *, mode="slow"):
        self.name = name


@dataclass
class Stats:
    sent: int = 0
    limit: int = 5


def send(stats):
    stats.sent += 1


class Pair(NamedTuple):
    left: int
    right: int = 2
'''

TOOL = '''\
from dataclasses import dataclass


@dataclass
class ToolParams:
    scale: int = 1


if __name__ == "__main__":
    ToolParams()
'''

#: A command with one output of each kind a line may hash; it exits 1,
#: a verdict, so the status is part of the stdout row.
OUTPUT = '''\
import json
import sys

from pkg import mod

tmp, value = sys.argv[1:]
print("called", mod.called())
with open(f"{tmp}/note.txt", "w") as handle:
    handle.write(value)
with open(f"{tmp}/rows.json", "w") as handle:
    json.dump([{"id": "a", "n": 1}, {"id": "b", "n": value}], handle)
print(json.dumps({"digest": value, "wall_s": 0.25}))
raise SystemExit(1)
'''


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """(directory, package directory) of the throw-away package."""
    base = tmp_path_factory.mktemp("reach")
    package = base / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (package / "conf.py").write_text(CONF)
    (package / "tool.py").write_text(TOOL)
    (base / "entry.py").write_text(ENTRY)
    (base / "out.py").write_text(OUTPUT)
    return base, package


@pytest.fixture(scope="module")
def small(toy):
    """(definitions by name, never-entered names) of the toy package."""
    base, package = toy
    entered = probe.run_entry(
        probe.EntryPoint("toy", "script", "entry.py", ()),
        root=package, cwd=base).entered
    defs = probe.definitions(package)
    dead = probe.never_entered(defs, entered)
    return ({d.qualname: d for d in defs}, [d.qualname for d in dead])


@pytest.fixture(scope="module")
def census(toy):
    """(declared option keys, single-valued keys, values by key) of the
    toy package over its script and its ``python -m`` target."""
    base, package = toy
    script = probe.run_entry(
        probe.EntryPoint("toy", "script", "entry.py", ()),
        root=package, cwd=base).values
    module = probe.run_entry(
        probe.EntryPoint("tool", "module", "pkg.tool", ()),
        root=package, cwd=base).values
    values = {**script, **module}
    found = probe.options(package)
    single = probe.single_valued(found, values)
    return ([o.key for o in found], [o.key for o in single], values)


def line_of(text):
    return MODULE.splitlines().index(text) + 1


class TestToyPackage:
    def test_uncalled_function_is_marked_once_by_its_outer_name(self, small):
        defs, dead = small
        assert "uncalled.nested" in defs
        assert dead.count("uncalled") == 1
        assert "uncalled.nested" not in dead
        assert defs["uncalled"].lines == 4

    def test_called_functions_are_not_marked(self, small):
        _, dead = small
        assert not {"called", "spawn", "logged", "logged.wrapper"} & set(dead)

    def test_second_thread_counts_as_entered(self, small):
        _, dead = small
        assert "threaded" not in dead

    def test_decorated_function_resolves_by_its_def_line(self, small):
        defs, dead = small
        # The code object starts at the decorator, the table at the def.
        assert "decorated" not in dead
        assert defs["decorated"].line == line_of("def decorated():")
        assert defs["decorated"].first_line == \
            defs["decorated"].line - 1
        assert "decorated_uncalled" in dead
        assert defs["decorated_uncalled"].line == \
            line_of("def decorated_uncalled():")


class TestOptionsCensus:
    def test_defaulted_parameters_and_fields_are_the_options(self, census):
        # Not Config.log (an accumulator), Config.derived (init=False)
        # or Stats.sent (a counter its own module keeps).
        declared, _, _ = census
        assert declared == [
            "conf.py::Config.fixed", "conf.py::Config.varied",
            "conf.py::Config.written", "conf.py::Frozen.fixed",
            "conf.py::Frozen.varied", "conf.py::Server.depth",
            "conf.py::Server.mode", "conf.py::Stats.limit",
            "conf.py::Pair.right", "tool.py::ToolParams.scale"]

    def test_keyword_passed_one_value_is_reported(self, census):
        _, single, values = census
        # Left at its default and passed that same default explicitly.
        assert "conf.py::Server.depth" in single
        assert values["conf.py::Server.depth"] == {"4"}
        assert "conf.py::Config.fixed" in single
        assert "conf.py::Frozen.fixed" in single

    def test_keyword_passed_two_values_is_not(self, census):
        _, single, values = census
        assert values["conf.py::Server.mode"] == {"'slow'", "'fast'"}
        assert not {"conf.py::Server.mode", "conf.py::Config.varied",
                    "conf.py::Frozen.varied"} & set(single)

    def test_named_tuple_field_is_read_from_its_new(self, census):
        _, single, values = census
        assert values["conf.py::Pair.right"] == {"2", "3"}
        assert "conf.py::Pair.right" not in single

    def test_attribute_written_after_construction_counts(self, census):
        _, single, values = census
        assert values["conf.py::Config.written"] == {"1", "3"}
        assert "conf.py::Config.written" not in single

    def test_class_in_a_module_target_is_named_by_its_spec(self, census):
        _, single, values = census
        assert values["tool.py::ToolParams.scale"] == {"1"}
        assert "tool.py::ToolParams.scale" in single
        assert not [key for key in values if "__main__" in key]

    def test_disagreements_name_both_directions(self):
        single = [probe.Option("control/x.py", "XParams", "period"),
                  probe.Option("tools/y.py", "Tool", "width")]
        listed = {"control/z.py::Z.seed": "seed"}
        assert probe.option_disagreements(single, listed) == [
            "one value in every run, not in OPTIONS.txt: "
            "control/x.py::XParams.period",
            "in OPTIONS.txt but varies or gone: control/z.py::Z.seed"]


def test_child_puts_the_profile_hook_it_found_back(toy, tmp_path,
                                                   monkeypatch):
    """Run in-process under a profiler, the probe is a guest: tier-1
    under an outer hook keeps that hook for every later test."""
    base, package = toy
    monkeypatch.chdir(base)
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    monkeypatch.syspath_prepend(str(base))

    def outer(frame, event, arg):
        return None

    before = sys.getprofile()
    sys.setprofile(outer)
    try:
        probe._child(str(tmp_path / "observed.json"), str(package),
                     "script", "entry.py", [])
        found = sys.getprofile()
    finally:
        sys.setprofile(before)
    assert found is outer
    assert (tmp_path / "observed.json").exists()


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def out_entry(name, hashes):
    return probe.EntryPoint(name, "script", "out.py", ("{tmp}", "v1"),
                            hashes)


def rows_of(toy, *entries):
    """The output rows of the toy command lines, merged."""
    base, package = toy
    rows = {}
    for entry in entries:
        rows.update(probe.run_entry(entry, root=package, cwd=base).rows)
    return rows


class TestOutputRows:
    @pytest.mark.parametrize("hashes, expected", [
        (("stdout",), {"out stdout": "exit 1 " + sha(
            'called 1\n{"digest": "v1", "wall_s": 0.25}\n')}),
        (("file:note.txt",), {"out note.txt": sha("v1")}),
        (("file:rows.json[id]",), {
            "out rows.json a": sha('{"id": "a", "n": 1}'),
            "out rows.json b": sha('{"id": "b", "n": "v1"}')}),
        (("json:digest",), {"out digest": "v1"}),
        ((), {}),
    ], ids=["stdout", "file", "file-per-element", "json-field", "nothing"])
    def test_each_hash_kind_makes_its_rows(self, toy, hashes, expected):
        assert rows_of(toy, out_entry("out", hashes)) == expected

    def test_a_missing_and_an_extra_manifest_row_are_named(self, toy):
        entry = out_entry("out", ("stdout", "json:digest"))
        rows = rows_of(toy, entry)
        # No "out digest" row, one the run no longer makes, and one of a
        # line that did not run (``--only``), which is not compared.
        recorded = {"out stdout": rows["out stdout"], "out note.txt": "0f",
                    "other stdout": "exit 0"}
        assert probe.output_disagreements([entry], rows, recorded) == [
            "out digest: not recorded -> v1", "out note.txt: 0f -> gone"]

    def test_record_round_trip_and_the_pair_check(self, toy, tmp_path):
        first = out_entry("first", ("stdout", "file:rows.json[id]"))
        second = out_entry("second", ("file:rows.json[id]", "same:first"))
        rows = rows_of(toy, first, second)
        manifest = tmp_path / "OUTPUTS.json"
        probe.write_manifest([first, second], rows, manifest)
        recorded = probe.read_manifest(manifest)
        assert list(recorded) == [
            "first stdout", "first rows.json a", "first rows.json b"]
        assert probe.output_disagreements([first, second], rows,
                                          recorded) == []
        drift = second._replace(args=("{tmp}", "v2"))
        rows.update(rows_of(toy, drift))
        assert probe.output_disagreements([first, drift], rows,
                                          recorded) == [
            "second rows.json b differs from first rows.json b"]

    @pytest.mark.parametrize("line, error", [
        ("a  stderr  module m", "ENTRYPOINTS.txt:1: unknown hash kind"),
        ("b  -  script s.py", "says why in a comment")])
    def test_malformed_lines_are_rejected(self, tmp_path, line, error):
        listing = tmp_path / "ENTRYPOINTS.txt"
        listing.write_text(line + "\n")
        with pytest.raises(ValueError, match=error):
            probe.entry_points(listing)


class TestOptionsList:
    def test_every_line_names_an_option_and_a_known_class(self):
        listed = probe.read_options()
        known = {o.key: o for o in probe.options(probe.SOURCE)}
        assert not sorted(set(listed) - set(known))
        assert set(listed.values()) <= set(probe.OPTION_CLASSES)
        assert not [key for key in listed
                    if known[key].package in probe.UNGATED_PACKAGES]


class TestKeptList:
    def test_every_line_names_a_definition_and_a_known_class(self):
        kept = probe.read_kept()
        known = {d.key: d for d in probe.definitions(probe.SOURCE)}
        assert not sorted(set(kept) - set(known))
        assert set(kept.values()) <= set(probe.KEPT_CLASSES)
        assert not [key for key in kept
                    if known[key].package in probe.UNGATED_PACKAGES]

    def test_malformed_lines_are_rejected(self, tmp_path):
        listing = tmp_path / "KEPT.txt"
        listing.write_text("sometimes  dnscore/name.py::Name.__len__\n")
        with pytest.raises(ValueError, match="KEPT.txt:1"):
            probe.read_kept(listing)
        listing.write_text(textwrap.dedent("""\
            debug  dnscore/name.py::Name.__len__
            codec  dnscore/name.py::Name.__len__
            """))
        with pytest.raises(ValueError, match="twice"):
            probe.read_kept(listing)

    def test_disagreements_name_both_directions(self):
        dead = [probe.Definition("control/x.py", "f", 1, 1, 2, None),
                probe.Definition("tools/y.py", "main", 1, 1, 9, None)]
        kept = {"control/z.py::g": "debug"}
        assert probe.disagreements(dead, kept) == [
            "never entered, not in KEPT.txt: control/x.py::f",
            "in KEPT.txt but entered or gone: control/z.py::g"]


def test_entry_point_targets_exist():
    entries = probe.entry_points()
    names = [entry.name for entry in entries]
    assert len(set(names)) == len(names)
    for entry in entries:
        assert entry.kind in ("module", "script"), entry
        if entry.kind == "script":
            assert (probe.REPO / entry.target).is_file(), entry
        assert entry.same in (None, *names), entry


def test_sub_second_entry_points_reach_the_reporting_path():
    wanted = [e for e in probe.entry_points()
              if e.name in ("dig", "quickstart")]
    assert len(wanted) == 2
    entered = probe.run_entries(wanted).entered
    dead = {d.key for d in probe.never_entered(
        probe.definitions(probe.SOURCE), entered)}
    assert "control/reporting.py::TrafficCollector.enterprise_report" \
        not in dead
    assert "resolver/resolver.py::RecursiveResolver._chase_glue" in dead


@pytest.mark.reach
def test_lists_and_manifest_agree_with_every_entry_point(request):
    entries = probe.entry_points()
    observed = probe.run_entries(entries)
    if request.config.getoption("--record"):
        probe.write_manifest(entries, observed.rows)
    problems = probe.gate(entries, observed)
    assert not problems, "\n".join(problems)
