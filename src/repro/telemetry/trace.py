"""Per-query trace spans with deterministic head sampling.

A query picks up a :class:`Span` where it enters the system (the
resolver's ``resolve``, or a nameserver machine for synthetic testbed
traffic); every downstream hop opens child spans against it, giving the
classic resolver -> network -> PoP -> penalty queue -> engine chain.

Sampling is decided once, at the root ("head sampling"), by a dedicated
``random.Random`` stream seeded from the telemetry config — never from
the simulation's RNG streams. Consuming a simulation stream for
sampling would shift every subsequent draw and break the
enabled-vs-disabled byte-identity contract, so the tracer keeps its
entropy strictly to itself; with a fixed telemetry seed the sampled set
is still reproducible run to run.

Unsampled queries carry ``trace=None``; a span site downstream tests
that before it touches the tracer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    """One timed operation within a trace."""

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    component: str
    start: float
    end: float | None = None
    #: Epoch (simulation run) this span belongs to; each EventLoop
    #: attached to the telemetry handle starts a new epoch, so spans
    #: from different experiment worlds never share a timeline.
    epoch: int = 0
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass(slots=True)
class InstantEvent:
    """A zero-duration marker on a trace's timeline (ECMP pick, drop)."""

    trace_id: int
    name: str
    component: str
    time: float
    epoch: int = 0
    attrs: dict[str, object] = field(default_factory=dict)


class Tracer:
    """Creates, samples, and stores spans for one telemetry session."""

    def __init__(self, *, sample_rate: float = 0.01, seed: int = 0,
                 max_spans: int = 50_000) -> None:
        self.sample_rate = sample_rate
        self.max_spans = max_spans
        #: Dedicated sampling stream — see the module docstring for why
        #: this must never alias a simulation RNG.
        self._rng = random.Random(seed ^ 0x7E1E)
        self._next_trace = 0
        self._next_span = 0
        self.spans: list[Span] = []
        self.events: list[InstantEvent] = []
        self.roots_started = 0
        self.roots_sampled = 0
        self.dropped_spans = 0
        self.epoch = 0

    # -- span lifecycle -----------------------------------------------------

    def start_trace(self, name: str, component: str,
                    start: float) -> Span | None:
        """Head-sampling decision plus the root span, or None."""
        self.roots_started += 1
        if self.sample_rate <= 0.0:
            return None
        if self.sample_rate < 1.0 and \
                self._rng.random() >= self.sample_rate:
            return None
        self.roots_sampled += 1
        self._next_trace += 1
        return self._open(self._next_trace, None, name, component, start)

    def start_span(self, parent: Span, name: str, component: str,
                   start: float) -> Span:
        """A child span under ``parent`` (which must be sampled)."""
        return self._open(parent.trace_id, parent.span_id, name,
                          component, start)

    def _open(self, trace_id: int, parent_id: int | None, name: str,
              component: str, start: float) -> Span:
        self._next_span += 1
        return Span(trace_id=trace_id, span_id=self._next_span,
                    parent_id=parent_id, name=name, component=component,
                    start=start, epoch=self.epoch)

    def finish(self, span: Span, end: float) -> None:
        """Close and record a span; over-budget spans are counted, not kept."""
        span.end = end
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(span)

    def instant(self, trace_id: int, name: str, component: str,
                time: float, **attrs: object) -> None:
        if len(self.events) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.events.append(InstantEvent(trace_id, name, component, time,
                                        epoch=self.epoch, attrs=attrs))
