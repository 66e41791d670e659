"""Process-global telemetry handle with near-zero disabled overhead.

A site that only records a metric makes one call, which holds the
check for a session::

    from ..telemetry import state as _telemetry
    _telemetry.record("queries_dropped_total", self.machine_id, "io")

A hook that also feeds a detector or a span guards itself with
``_t = _telemetry.ACTIVE; if _t is not None: _t.query_received(...)``.
With no session, ``ACTIVE`` is ``None`` and either costs an identity
test (see docs/ARCHITECTURE.md, "Observability"). This module imports
nothing from the simulator so any layer may depend on it.

Sessions nest: :func:`activate` pushes, :func:`deactivate` pops and
restores the previous handle, so a component that runs its own scoped
session (the resilience scorecard) composes with a runner-level one.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import Telemetry

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


@contextlib.contextmanager
def session(handle: "Telemetry") -> Iterator["Telemetry"]:
    """Scoped activation: ``with session(Telemetry(...)) as t: ...``."""
    activate(handle)
    try:
        yield handle
    finally:
        deactivate()
