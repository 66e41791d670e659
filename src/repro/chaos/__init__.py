"""Seedable chaos-injection for the assembled platform.

Declarative failure campaigns (:mod:`~repro.chaos.faults`) drive typed
fault kinds through one fault table, a kind -> entry map over the
layers' public seams (:mod:`~repro.chaos.injectors`), while an SLO probe
(:mod:`~repro.chaos.probe`) measures the legitimate-user experience.
The :class:`ChaosEngine` ties them together off the shared event loop;
every run is a pure function of the campaign seed.
"""

from .engine import ChaosEngine, FaultEvent
from .faults import Campaign, FaultKind, FaultSpec, Schedule
from .injectors import INJECTORS
from .probe import ProbeOutcome, ProbeWindow, SLOProbe, SLOReport

__all__ = [
    "Campaign",
    "ChaosEngine",
    "FaultEvent",
    "FaultKind",
    "FaultSpec",
    "INJECTORS",
    "ProbeOutcome",
    "ProbeWindow",
    "SLOProbe",
    "SLOReport",
    "Schedule",
]
