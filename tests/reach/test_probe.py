"""The reachability probe: what it marks, and the gate over the real tree.

The small cases run the probe on a throw-away package; one tier-1 case
runs it over the two sub-second product entry points; the ``reach``
case (deselected by default, ``-m reach`` selects it) runs every entry
point and compares the table with ``KEPT.txt``.
"""

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
from pkg import mod
mod.called(), mod.spawn(), mod.decorated()
'''


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """(definitions by name, never-entered names) of the toy package."""
    base = tmp_path_factory.mktemp("reach")
    package = base / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (base / "entry.py").write_text(ENTRY)
    entered = probe.run_entry(
        probe.EntryPoint("toy", "script", "entry.py", ()),
        root=package, cwd=base)
    defs = probe.definitions(package)
    dead = probe.never_entered(defs, entered)
    return ({d.qualname: d for d in defs}, [d.qualname for d in dead])


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
    for entry in probe.entry_points():
        assert entry.kind in ("module", "script"), entry
        if entry.kind == "script":
            assert (probe.REPO / entry.target).is_file(), entry


def test_sub_second_entry_points_reach_the_reporting_path():
    wanted = [e for e in probe.entry_points()
              if e.name in ("dig", "quickstart")]
    assert len(wanted) == 2
    entered = probe.run_entries(wanted)
    dead = {d.key for d in probe.never_entered(
        probe.definitions(probe.SOURCE), entered)}
    assert "control/reporting.py::TrafficCollector.enterprise_report" \
        not in dead
    assert "resolver/resolver.py::RecursiveResolver._retry_over_tcp" in dead


@pytest.mark.reach
def test_every_never_entered_definition_is_on_the_kept_list():
    entered = probe.run_entries(probe.entry_points())
    dead = probe.never_entered(probe.definitions(probe.SOURCE), entered)
    problems = probe.disagreements(dead, probe.read_kept())
    assert not problems, "\n".join(problems)
