"""The metric table, the one ``record`` call, and the sites that use it.

Every metric family is a row of ``repro.telemetry.METRICS``, and every
site reaches its row with ``state.record("<row>", (label, ...))``; detectors
subscribe to rows and spans go through ``state``'s helpers, so nothing
else on ``Telemetry`` is called from the simulator. The AST checks below
read every such name under ``src/repro``, so a misspelled row or a wrong
label count at a cold site (a gray verdict, a rollover step) fails here
instead of only when that campaign runs inside a session, and keep the
facade and the session reads from growing back.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.dnscore import RCode, name
from repro.telemetry import METRICS, Telemetry
from repro.telemetry import state as telemetry_state

SRC = Path(repro.__file__).resolve().parent


def _record_calls() -> list[tuple[str, str, int]]:
    """(site, row, label count) of every ``record("<row>", ...)`` call."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            first = node.args[0]
            if called != "record" or not (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                continue
            site = f"{path.relative_to(SRC)}:{node.lineno}"
            labels = node.args[1] if len(node.args) > 1 else ast.Tuple([])
            assert isinstance(labels, ast.Tuple) and not any(
                isinstance(a, ast.Starred) for a in labels.elts), \
                f"{site}: labels must be a tuple spelled out"
            calls.append((site, first.value, len(labels.elts)))
    return calls


def test_every_record_call_names_a_row_with_its_label_count():
    calls = _record_calls()
    assert len(calls) > 20
    wrong = [f"{site}: {row} with {count} labels"
             for site, row, count in calls
             if row not in METRICS or count != len(METRICS[row][1])]
    assert not wrong, "\n".join(wrong)


def test_every_row_is_recorded_by_a_site():
    recorded = {row for _, row, _ in _record_calls()}
    assert sorted(set(METRICS) - recorded) == []


def test_telemetry_keeps_five_public_methods():
    assert sorted(attr for attr, value in vars(Telemetry).items()
                  if callable(value) and not attr.startswith("_")) == [
        "attach_loop", "export", "finalize", "record", "register_stats"]


def test_the_session_is_read_outside_telemetry_only_where_a_world_starts():
    """``ACTIVE`` outside ``telemetry/``: a new loop attaches itself and a
    new network registers its stats; every other site calls a ``state``
    function that reads it."""
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name == "telemetry":
            continue
        tree = ast.parse(path.read_text(), str(path))
        owner = {node: f"{cls.name}.{func.name}"
                 for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for func in cls.body if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}
        reads += [owner.get(node, f"{path.relative_to(SRC)}:{node.lineno}")
                  for node in ast.walk(tree)
                  if getattr(node, "attr", getattr(node, "id", None))
                  == "ACTIVE"]
    assert sorted(reads) == ["EventLoop.__init__", "Network.__init__"]


def test_record_on_an_unknown_row_raises_and_adds_nothing():
    telemetry = Telemetry()
    before = telemetry.export()["metrics"]
    with pytest.raises(KeyError):
        telemetry.record("queries_dorpped_total", ("m1", "io"))
    with telemetry_state.session(telemetry), pytest.raises(KeyError):
        telemetry_state.record("no_such_total")
    with pytest.raises(ValueError):
        telemetry.record("queries_dropped_total", ("m1",))
    assert telemetry.export()["metrics"] == before


def test_record_spells_labels_and_updates_by_kind():
    telemetry = Telemetry()
    origin = name("a.example")
    with telemetry_state.session(telemetry):
        for _ in range(2):
            telemetry_state.record("zone_responses_total",
                                   ("m1", origin, RCode.NXDOMAIN))
        telemetry_state.record("gray_verdict_state", ("m1",), value=2.0)
        telemetry_state.record("gray_verdict_state", ("m1",), value=0.0)
        telemetry_state.record("gray_detection_seconds", value=4.0)
    # No session: not counted.
    telemetry_state.record("zone_responses_total",
                           ("m1", origin, RCode.NXDOMAIN))
    metrics = telemetry.export()["metrics"]
    assert metrics["counters"][
        "zone_responses_total{machine=m1,zone=a.example.,rcode=NXDOMAIN}"
    ] == 2.0
    assert metrics["gauges"]["gray_verdict_state{machine=m1}"] == {
        "value": 0.0, "max": 2.0, "min": 0.0}
    assert metrics["histograms"]["gray_detection_seconds"]["count"] == 1


def test_record_is_the_active_sessions_and_sessions_nest():
    """``state.record`` is bound, not dispatched: each session's own
    ``Telemetry.record`` while it is active, the outer one's again when
    an inner session ends, and nothing after the last."""
    outer, inner = Telemetry(), Telemetry()
    with telemetry_state.session(outer):
        assert telemetry_state.record == outer.record
        with telemetry_state.session(inner):
            assert telemetry_state.record == inner.record
            telemetry_state.record("qod_events_total", ("dropped",))
        telemetry_state.record("qod_events_total", ("dropped",), value=2.0)
    assert telemetry_state.ACTIVE is None
    telemetry_state.record("qod_events_total", ("dropped",))

    def dropped(telemetry):
        return telemetry.export()["metrics"]["counters"][
            "qod_events_total{event=dropped}"]

    assert (dropped(outer), dropped(inner)) == (2.0, 1.0)


def test_rows_without_labels_are_exported_when_empty():
    metrics = Telemetry().export()["metrics"]
    listed = {series for kind in metrics.values() for series in kind}
    assert listed == {row for row, (_, labels) in METRICS.items()
                      if not labels}
