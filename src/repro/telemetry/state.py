"""Process-global telemetry handle with near-zero disabled overhead.

Instrumented code guards every hook with one module-attribute read::

    from ..telemetry import state as _telemetry
    ...
    _t = _telemetry.ACTIVE
    if _t is not None:
        _t.query_received(...)

When no telemetry session is active, ``ACTIVE`` is ``None`` and the
guard costs a dict lookup plus an identity test — the contract that
keeps the fast-path suite within its wall-time budget (see
docs/ARCHITECTURE.md, "Observability"). This module deliberately
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


@contextlib.contextmanager
def session(handle: "Telemetry") -> Iterator["Telemetry"]:
    """Scoped activation: ``with session(Telemetry(...)) as t: ...``."""
    activate(handle)
    try:
        yield handle
    finally:
        deactivate()
