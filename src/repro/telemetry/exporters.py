"""Telemetry exporters: JSONL events and Chrome trace JSON.

All exporters are pure functions of a finished :class:`Telemetry`
session — they never print. Writing/printing is the caller's job (the
experiment runner or a tool entry point), which is what the OBS001 lint
rule enforces: simulator and library code routes output through these
exporters, only CLI entry points touch stdout.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import Telemetry


# -- JSONL event dump ---------------------------------------------------------


def jsonl_events(telemetry: "Telemetry") -> list[str]:
    """One JSON object per line: spans, instants, and alerts, in time order.

    The sort key is (epoch, time, kind, id) so the dump is reproducible
    and mergeable across sessions.
    """
    rows: list[tuple] = []
    for span in telemetry.tracer.spans:
        rows.append((span.epoch, span.start, 0, span.span_id, {
            "kind": "span", "epoch": span.epoch,
            "trace": span.trace_id, "span": span.span_id,
            "parent": span.parent_id, "name": span.name,
            "component": span.component, "start": span.start,
            "end": span.end,
            "attrs": span.attrs,
        }))
    for index, event in enumerate(telemetry.tracer.events):
        rows.append((event.epoch, event.time, 1, index, {
            "kind": "instant", "epoch": event.epoch,
            "trace": event.trace_id, "name": event.name,
            "component": event.component, "time": event.time,
            "attrs": event.attrs,
        }))
    for index, alert in enumerate(telemetry.alerts.alerts):
        rows.append((alert.epoch, alert.raised_at, 2, index,
                     {"kind": "alert", **alert.to_dict()}))
    rows.sort(key=lambda r: r[:4])
    return [json.dumps(row[4], sort_keys=True) for row in rows]


# -- Chrome trace-event JSON --------------------------------------------------

#: Simulated seconds -> trace microseconds.
_US = 1_000_000.0


def chrome_trace(telemetry: "Telemetry") -> dict:
    """The trace in Chrome's trace-event format (chrome://tracing, Perfetto).

    Mapping: one *process* per telemetry epoch (per simulated world) and
    one *thread* per component (resolver, net, pop, machine, engine), so
    the viewer lays each hop of a query out on its own swimlane. Span
    times are simulated seconds expressed as microseconds.
    """
    components: dict[tuple[int, str], int] = {}

    def tid(epoch: int, component: str) -> int:
        key = (epoch, component)
        if key not in components:
            components[key] = len(components) + 1
        return components[key]

    events: list[dict] = []
    for span in telemetry.tracer.spans:
        events.append({
            "name": span.name,
            "cat": span.component,
            "ph": "X",
            "ts": span.start * _US,
            "dur": span.duration * _US,
            "pid": span.epoch,
            "tid": tid(span.epoch, span.component),
            "args": {"trace_id": span.trace_id,
                     "span_id": span.span_id,
                     "parent_id": span.parent_id,
                     **span.attrs},
        })
    for event in telemetry.tracer.events:
        events.append({
            "name": event.name,
            "cat": event.component,
            "ph": "i",
            "s": "t",
            "ts": event.time * _US,
            "pid": event.epoch,
            "tid": tid(event.epoch, event.component),
            "args": {"trace_id": event.trace_id, **event.attrs},
        })
    for alert in telemetry.alerts.alerts:
        events.append({
            "name": f"ALERT {alert.name}",
            "cat": "alerts",
            "ph": "i",
            "s": "g",
            "ts": alert.raised_at * _US,
            "pid": alert.epoch,
            "tid": tid(alert.epoch, "alerts"),
            "args": alert.to_dict(),
        })
    events.sort(key=lambda e: (e["pid"], e["ts"], e["tid"], e["name"]))
    thread_meta = [
        {"name": "thread_name", "ph": "M", "pid": epoch, "tid": number,
         "args": {"name": component}}
        for (epoch, component), number in sorted(components.items())
    ]
    return {
        "traceEvents": thread_meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.telemetry",
            "epochs": telemetry.epoch,
            "spans": len(telemetry.tracer.spans),
            "dropped_spans": telemetry.tracer.dropped_spans,
        },
    }


def write_chrome_trace(telemetry: "Telemetry", stream: IO[str]) -> int:
    """Write Chrome trace JSON to ``stream``; returns the event count."""
    document = chrome_trace(telemetry)
    json.dump(document, stream)
    return len(document["traceEvents"])
