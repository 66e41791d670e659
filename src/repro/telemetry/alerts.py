"""The alerting pipeline: rolling-window detectors over metric rows.

The paper operates its defenses reactively: "when monitoring detects an
anomaly" the operators (or automation) activate mitigations (section
4.3). This module is that detection half, kept strictly passive and
sim-time-clocked: a detector subscribes to one row of
:data:`~.registry.METRICS` (``queries_received_total``, say, or
``queries_answered_total`` with the hit label ``rcode=NXDOMAIN``), and
every ``record`` of that row is an observation. Detectors aggregate
them into fixed-width windows keyed by ``int(now / window)`` and compare
the finished window against a threshold.

Hysteresis is built in so a sawtooth load cannot flap an alert: a
detector must breach ``for_windows`` consecutive windows to raise, and
must then stay below ``CLEAR_RATIO`` of the threshold for
``CLEAR_WINDOWS`` consecutive windows to clear.

Detectors never schedule events on the simulation loop — windows close
lazily, when a later observation (or an explicit ``finalize``) proves
sim time has moved past them. That keeps the event sequence, and
therefore every simulation result, byte-identical whether alerting is
armed or not.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .registry import METRICS


class AlertSeverity(str, enum.Enum):
    WARNING = "warning"
    CRITICAL = "critical"


@dataclass(slots=True)
class Alert:
    """One raised (and possibly cleared) anomaly."""

    name: str
    severity: AlertSeverity
    epoch: int
    raised_at: float
    value: float
    threshold: float
    message: str
    cleared_at: float | None = None

    @property
    def active(self) -> bool:
        return self.cleared_at is None

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "severity": self.severity.value,
            "epoch": self.epoch,
            "raised_at": self.raised_at,
            "cleared_at": self.cleared_at,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


class _DetectorState(enum.Enum):
    OK = "ok"
    FIRING = "firing"


@dataclass(slots=True)
class _Window:
    """Aggregates for one in-progress window."""

    index: int
    count: float = 0.0
    total: float = 0.0       # sum of observed values
    peak: float = float("-inf")


#: An alert clears after this many consecutive windows below this share
#: of its raise threshold.
CLEAR_RATIO = 0.8
CLEAR_WINDOWS = 2


class Detector:
    """Base rolling-window detector.

    Subclasses define :meth:`window_value` — the scalar a finished
    window is judged by — and a human message. Windows close when an
    observation (or ``finalize``) lands past their end.
    """

    #: Number of judged (window_start, value) pairs ``history`` keeps,
    #: the seam tests read a detector's windows through.
    HISTORY = 128

    def __init__(self, name: str, *, window: float,
                 threshold: float,
                 for_windows: int = 1,
                 severity: AlertSeverity = AlertSeverity.WARNING) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if for_windows < 1:
            raise ValueError("for_windows must be >= 1")
        self.name = name
        self.window = window
        self.threshold = threshold
        #: Hysteresis floor: the alert clears only below this, never at
        #: threshold - epsilon.
        self.clear_threshold = threshold * CLEAR_RATIO
        self.for_windows = for_windows
        self.severity = severity
        self.state = _DetectorState.OK
        self._breach_streak = 0
        self._calm_streak = 0
        self._current: _Window | None = None
        #: ``observe`` looks at the window index again only from here on.
        self._until = float("-inf")
        self.history: deque[tuple[float, float]] = deque(maxlen=self.HISTORY)
        self.manager: "AlertManager | None" = None

    # -- feeding -------------------------------------------------------------

    def observe(self, now: float, value: float) -> None:
        if now >= self._until:
            # First observation, or at/past the window's end: a float
            # product that can round low, so the index is compared again.
            index = int(now // self.window)
            if self._current is None:
                self._current = _Window(index)
                self._until = (index + 1) * self.window
            elif index > self._current.index:
                self._close_through(index)
        current = self._current
        current.count += 1
        current.total += value
        if value > current.peak:
            current.peak = value

    def finalize(self, now: float) -> None:
        """Close every window that ends at or before ``now``."""
        if self._current is not None \
                and now >= (self._current.index + 1) * self.window:
            self._close_through(int(now // self.window))

    def _close_through(self, new_index: int) -> None:
        """Judge the finished window, plus any silent gap windows."""
        current = self._current
        assert current is not None
        self._judge(current)
        # Windows with no observations at all still count — a stream
        # going quiet must clear a rate alert, not freeze it.
        for index in range(current.index + 1, new_index):
            self._judge(_Window(index))
        self._current = _Window(new_index)
        self._until = (new_index + 1) * self.window

    # -- judging -------------------------------------------------------------

    def window_value(self, win: _Window) -> float:
        raise NotImplementedError

    def describe(self, value: float) -> str:
        return (f"{self.name}: window value {value:.4g} vs "
                f"threshold {self.threshold:.4g}")

    def _judge(self, win: _Window) -> None:
        value = self.window_value(win)
        window_end = (win.index + 1) * self.window
        self.history.append((win.index * self.window, value))
        if value > self.threshold:
            self._breach_streak += 1
            self._calm_streak = 0
            if (self.state is _DetectorState.OK
                    and self._breach_streak >= self.for_windows):
                self.state = _DetectorState.FIRING
                if self.manager is not None:
                    self.manager._raised(self, window_end, value)
        elif value < self.clear_threshold:
            self._calm_streak += 1
            self._breach_streak = 0
            if (self.state is _DetectorState.FIRING
                    and self._calm_streak >= CLEAR_WINDOWS):
                self.state = _DetectorState.OK
                if self.manager is not None:
                    self.manager._cleared(self, window_end)
        else:
            # The hysteresis band: neither streak advances, so a value
            # oscillating across the raise threshold alone cannot flap.
            self._breach_streak = 0
            self._calm_streak = 0

    @property
    def firing(self) -> bool:
        return self.state is _DetectorState.FIRING


class RateDetector(Detector):
    """Events/second in a window exceeds a threshold (QPS spike)."""

    def window_value(self, win: _Window) -> float:
        return win.count / self.window

    def describe(self, value: float) -> str:
        return (f"{self.name}: {value:.1f}/s over a {self.window:g}s "
                f"window (threshold {self.threshold:g}/s)")


class RatioDetector(Detector):
    """Mean of observed 0/1 (or fractional) values exceeds a threshold.

    Subscribed with a hit label, it observes 1.0 for a "hit" (an
    NXDOMAIN answer, a failed probe) and 0.0 for the complement; the
    window value is the hit fraction.
    ``min_count`` keeps a single stray hit in an idle window from
    counting as 100%.
    """

    def __init__(self, name: str, *, min_count: int = 10,
                 **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.min_count = min_count

    def window_value(self, win: _Window) -> float:
        if win.count < self.min_count:
            return 0.0
        return win.total / win.count

    def describe(self, value: float) -> str:
        return (f"{self.name}: ratio {value:.1%} over a {self.window:g}s "
                f"window (threshold {self.threshold:.0%})")


class GaugeDetector(Detector):
    """Peak observed gauge value in a window exceeds a threshold
    (penalty-queue depth)."""

    def window_value(self, win: _Window) -> float:
        return win.peak if win.count else 0.0

    def describe(self, value: float) -> str:
        return (f"{self.name}: peak {value:g} over a {self.window:g}s "
                f"window (threshold {self.threshold:g})")


AlertCallback = Callable[[Alert], None]


class AlertManager:
    """Subscribes detectors to metric rows and records their alerts."""

    def __init__(self) -> None:
        #: row -> (detector, hit label index or None, hit label text),
        #: in the order the detectors were added.
        self._subscribers: dict[str, list[tuple[Detector, int | None,
                                                str]]] = {
            row: [] for row in METRICS}
        self._detectors: list[Detector] = []
        self.alerts: list[Alert] = []
        self._active: dict[str, Alert] = {}
        self.on_raise: list[AlertCallback] = []
        self.on_clear: list[AlertCallback] = []
        #: Set by the owning Telemetry handle on epoch changes.
        self.epoch = 0

    # -- wiring --------------------------------------------------------------

    def add(self, detector: Detector, row: str,
            hit: str | None = None) -> Detector:
        """Subscribe ``detector`` to the :data:`~.registry.METRICS` row
        ``row``. Without ``hit`` it observes each recorded value; with
        ``hit`` (``"label=text"``) it observes 1.0 when the recorded
        series has that label text and 0.0 otherwise. A row the table
        lacks, or a hit label the row does not have, raises ValueError."""
        subscribers = self._subscribers.get(row)
        if subscribers is None:
            raise ValueError(f"detector {detector.name!r}: no metric row "
                             f"{row!r}")
        index, text = None, ""
        if hit is not None:
            label, _, text = hit.partition("=")
            labelnames = METRICS[row][1]
            if label not in labelnames:
                raise ValueError(f"detector {detector.name!r}: row {row} "
                                 f"has no label {label!r}")
            index = labelnames.index(label)
        detector.manager = self
        self._detectors.append(detector)
        subscribers.append((detector, index, text))
        return detector

    def detectors(self) -> list[Detector]:
        return list(self._detectors)

    # -- windows -------------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Flush windows at end of run so trailing breaches still raise."""
        for detector in self._detectors:
            detector.finalize(now)

    def reset_epoch(self, epoch: int) -> None:
        """A new simulation world attached: restart every window.

        Sim time starts over at 0, so carrying windows across epochs
        would make time run backwards inside a detector.
        """
        self.epoch = epoch
        for detector in self._detectors:
            detector._current = None
            detector._until = float("-inf")
            detector._breach_streak = 0
            detector._calm_streak = 0
            detector.state = _DetectorState.OK
        self._active.clear()

    # -- alert bookkeeping ---------------------------------------------------

    def _raised(self, detector: Detector, now: float,
                value: float) -> None:
        alert = Alert(name=detector.name, severity=detector.severity,
                      epoch=self.epoch, raised_at=now, value=value,
                      threshold=detector.threshold,
                      message=detector.describe(value))
        self.alerts.append(alert)
        self._active[detector.name] = alert
        for callback in self.on_raise:
            callback(alert)

    def _cleared(self, detector: Detector, now: float) -> None:
        alert = self._active.pop(detector.name, None)
        if alert is None:
            return
        alert.cleared_at = now
        for callback in self.on_clear:
            callback(alert)

    # -- reporting -----------------------------------------------------------

    def first_raise_after(self, t0: float, *, name: str | None = None,
                          epoch: int | None = None) -> Alert | None:
        """Earliest alert raised at or after ``t0`` (time-to-detection)."""
        hits = [a for a in self.alerts
                if a.raised_at >= t0
                and (name is None or a.name == name)
                and (epoch is None or a.epoch == epoch)]
        return min(hits, key=lambda a: a.raised_at) if hits else None

    def to_dict(self) -> list[dict[str, object]]:
        return [a.to_dict() for a in self.alerts]
