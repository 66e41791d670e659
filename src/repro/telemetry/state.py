"""Process-global telemetry handle with near-zero disabled overhead.

Instrumented code emits through four functions here, each of which
holds the check for a session::

    from ..telemetry import state as _telemetry
    _telemetry.record("queries_dropped_total", self.machine_id, "io")
    span = _telemetry.begin("machine.process", "machine", now, parent)
    _telemetry.instant(span, "engine.respond", "engine", now, rcode=...)
    _telemetry.end(span, now)

``record`` reaches a :data:`~.registry.METRICS` row and the detectors
subscribed to it; the span helpers go straight to the session's tracer.
With no session, ``ACTIVE`` is ``None`` and each costs a call and an
identity test (see docs/ARCHITECTURE.md, "Observability"). This module
imports nothing from the simulator so any layer may depend on it.

Sessions nest: :func:`activate` pushes, :func:`deactivate` pops and
restores the previous handle, so a component that runs its own scoped
session (the resilience scorecard) composes with a runner-level one.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import Telemetry
    from .trace import Span

#: The live telemetry handle, or None when telemetry is off.
ACTIVE = None

#: Previously active handles, restored in LIFO order by deactivate().
_STACK: list = []


def activate(handle: "Telemetry") -> "Telemetry":
    """Make ``handle`` the process-global telemetry sink."""
    global ACTIVE
    _STACK.append(ACTIVE)
    ACTIVE = handle
    return handle


def deactivate() -> None:
    """Pop the current handle, restoring whatever was active before."""
    global ACTIVE
    ACTIVE = _STACK.pop() if _STACK else None


def record(name: str, *labels, value: float = 1.0) -> None:
    """``Telemetry.record(name, labels, value)`` on the active session."""
    if ACTIVE is not None:
        ACTIVE.record(name, labels, value)


def begin(name: str, component: str, now: float,
          parent: "Span | None" = None, **attrs: object) -> "Span | None":
    """A span opened at ``now`` with ``attrs``: a child of ``parent``, or
    without one a root the tracer head-samples. None with no session or
    for a root not sampled."""
    if ACTIVE is None:
        return None
    tracer = ACTIVE.tracer
    span = (tracer.start_trace(name, component, now) if parent is None
            else tracer.start_span(parent, name, component, now))
    if span is not None:
        span.attrs.update(attrs)
    return span


def end(span: "Span | None", now: float, **attrs: object) -> None:
    """Close ``span`` at ``now`` with ``attrs`` added; None is unsampled."""
    if ACTIVE is not None and span is not None:
        span.attrs.update(attrs)
        ACTIVE.tracer.finish(span, now)


def instant(span: "Span | None", name: str, component: str, now: float,
            **attrs: object) -> None:
    """A marker at ``now`` on ``span``'s trace; None is unsampled."""
    if ACTIVE is not None and span is not None:
        ACTIVE.tracer.instant(span.trace_id, name, component, now, **attrs)


@contextlib.contextmanager
def session(handle: "Telemetry") -> Iterator["Telemetry"]:
    """Scoped activation: ``with session(Telemetry(...)) as t: ...``."""
    activate(handle)
    try:
        yield handle
    finally:
        deactivate()
