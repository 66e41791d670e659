"""Process-global telemetry handle with near-zero disabled overhead.

Instrumented code emits through four functions here::

    from ..telemetry import state as _telemetry
    _telemetry.record("queries_dropped_total", (self.machine_id, "io"))
    span = _telemetry.begin("machine.process", "machine", now, parent)
    _telemetry.instant(span, "engine.respond", "engine", now, rcode=...)
    _telemetry.end(span, now)

``record`` reaches a :data:`~.registry.METRICS` row and the detectors
subscribed to it: it *is* the session's ``Telemetry.record`` (bound by
:func:`activate` and :func:`deactivate`), so a row costs one call, and
with no session it is a no-op function. The span helpers hold the check
for a session and go straight to the session's tracer; with no session,
``ACTIVE`` is ``None`` and each costs a call and an identity test (see
docs/ARCHITECTURE.md, "Observability"). This module imports nothing
from the simulator so any layer may depend on it.

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


def _off(name: str, labels: tuple = (), value: float = 1.0) -> None:
    """``record`` while no session is active: the row goes nowhere."""


#: ``Telemetry.record(name, labels=(), value=1.0)`` of the active
#: session, bound method and all, or :func:`_off`. Sites call it as
#: ``_telemetry.record(...)``, reading the module attribute per call.
record = _off


def _bind(handle: "Telemetry | None") -> None:
    global ACTIVE, record
    ACTIVE = handle
    record = _off if handle is None else handle.record


def activate(handle: "Telemetry") -> "Telemetry":
    """Make ``handle`` the process-global telemetry sink."""
    _STACK.append(ACTIVE)
    _bind(handle)
    return handle


def deactivate() -> None:
    """Pop the current handle, restoring whatever was active before."""
    _bind(_STACK.pop() if _STACK else None)


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
