"""Exporters: JSONL ordering, Chrome trace validity."""

import io
import json

from repro.netsim import EventLoop
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.alerts import GaugeDetector
from repro.telemetry.exporters import (
    chrome_trace,
    jsonl_events,
    write_chrome_trace,
)


def _session_with_activity():
    """A hand-built session: two epochs, a trace tree, and one alert."""
    telemetry = Telemetry(TelemetryConfig(trace_sample_rate=1.0))
    telemetry.alerts.add(
        GaugeDetector("queue-depth", window=1.0, threshold=10.0),
        "penalty_queue_depth")
    tracer = telemetry.tracer

    loop = EventLoop()
    telemetry.attach_loop(loop)                 # epoch 1
    root = tracer.start_trace("machine.process", "machine", 0.5)
    child = tracer.start_span(root, "engine.respond", "engine", 0.6)
    tracer.instant(root.trace_id, "net.delivered", "net", 0.55, hops=3)
    tracer.finish(child, 0.7)
    tracer.finish(root, 0.8)
    loop.call_at(0.5, telemetry.record, "queries_received_total", ("m1",))
    loop.call_at(0.65, telemetry.record, "penalty_enqueued_total", ("m1", 0))
    loop.call_at(0.65, telemetry.record, "penalty_queue_depth", ("m1",),
                 42.0)
    loop.run_until(0.65)    # the window never closes in this epoch

    loop = EventLoop()
    telemetry.attach_loop(loop)                 # epoch 2
    other = tracer.start_trace("machine.process", "machine", 0.1)
    tracer.finish(other, 0.2)
    loop.call_at(0.5, telemetry.record, "penalty_queue_depth", ("m1",),
                 42.0)
    loop.run_until(2.0)
    telemetry.finalize()
    return telemetry


class TestJsonl:
    def test_lines_parse_and_sort_stable(self):
        telemetry = _session_with_activity()
        lines = jsonl_events(telemetry)
        rows = [json.loads(line) for line in lines]
        assert {r["kind"] for r in rows} == {"span", "instant", "alert"}
        keys = [(r["epoch"], r.get("start", r.get("time",
                                                  r.get("raised_at"))))
                for r in rows]
        assert keys == sorted(keys)
        assert lines == jsonl_events(telemetry)  # reproducible


class TestChromeTrace:
    def test_document_shape(self):
        telemetry = _session_with_activity()
        doc = chrome_trace(telemetry)
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        # One process per epoch; spans carry microsecond durations.
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {1, 2}
        root = next(e for e in spans if e["args"]["parent_id"] is None
                    and e["pid"] == 1)
        assert root["ts"] == 0.5 * 1e6 and root["dur"] == \
            (0.8 - 0.5) * 1e6
        child = next(e for e in spans
                     if e["args"]["parent_id"] == root["args"]["span_id"])
        assert child["cat"] == "engine"
        alerts = [e for e in events if e.get("cat") == "alerts"]
        assert [e["name"] for e in alerts] == ["ALERT queue-depth"]

    def test_thread_metadata_names_components(self):
        doc = chrome_trace(_session_with_activity())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        named = {(e["pid"], e["args"]["name"]) for e in meta}
        assert (1, "machine") in named and (1, "engine") in named

    def test_round_trips_through_json(self):
        telemetry = _session_with_activity()
        stream = io.StringIO()
        count = write_chrome_trace(telemetry, stream)
        parsed = json.loads(stream.getvalue())
        assert len(parsed["traceEvents"]) == count
        assert parsed["otherData"]["source"] == "repro.telemetry"
