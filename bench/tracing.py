"""Span recording from outside the program (traced runs only).

Before a scenario is built, :func:`install` replaces the public entry
points of each layer *on the class* with timing wrappers defined here,
so bound methods captured later (by ``call_later``, as default
arguments, as ``send`` callbacks) are already the wrapped ones. Nothing
under ``src/`` is edited and nothing is installed in untraced runs.

A span carries name, layer, start, end, parent and an identifier shared
by the spans of one simulated query. Aggregation is a stack: a layer's
self time is its spans' durations minus the child spans inside them, so
self times partition the time under the root spans exactly.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable

_perf = time.perf_counter

#: Layer that owns code in a module: first matching prefix wins, so
#: specific modules come before their package.
LAYER_OF_MODULE = (
    ("repro.netsim.clock", "netsim.clock"),
    ("repro.netsim.bgp", "netsim.bgp"),
    ("repro.netsim", "netsim.network"),
    ("repro.server.pop", "server.pop"),
    ("repro.server.engine", "server.engine"),
    ("repro.server.monitoring", "server.monitoring"),
    ("repro.server", "server.machine"),
    ("repro.filters", "filters"),
    ("repro.dnscore.message", "dnscore.wire.encode"),
    ("repro.dnscore.wire", "dnscore.wire.encode"),
    ("repro.dnscore", "dnscore.zone"),
    ("repro.resolver.cache", "resolver.cache"),
    ("repro.resolver", "resolver"),
    ("repro.workload", "workload"),
    ("repro.control", "control"),
    ("repro.chaos", "chaos"),
    ("repro.telemetry", "telemetry"),
    ("repro.dnssec", "dnssec"),
    ("repro.platform", "platform"),
    ("repro", "experiments"),
)

#: Everything else is the benchmark's own code.
HARNESS = "harness"

#: (module, class, method, layer) — the layer boundaries timed from here.
ENTRY_POINTS = (
    ("repro.netsim.clock", "EventLoop", "run_until", "netsim.clock"),
    ("repro.netsim.clock", "EventLoop", "run", "netsim.clock"),
    ("repro.netsim.network", "Network", "send", "netsim.network"),
    ("repro.netsim.bgp", "BGPSpeaker", "receive_update", "netsim.bgp"),
    ("repro.netsim.bgp", "BGPSpeaker", "session_down", "netsim.bgp"),
    ("repro.netsim.bgp", "BGPSpeaker", "session_up", "netsim.bgp"),
    ("repro.server.machine", "NameserverMachine", "receive_query",
     "server.machine"),
    ("repro.server.machine", "NameserverMachine", "install_zone",
     "server.machine"),
    ("repro.filters.base", "ScoringPipeline", "score", "filters"),
    ("repro.server.engine", "AuthoritativeEngine", "respond",
     "server.engine"),
    ("repro.server.engine", "AuthoritativeEngine", "respond_probe",
     "server.engine"),
    ("repro.server.monitoring", "MonitoringAgent", "run_check",
     "server.monitoring"),
    ("repro.dnscore.message", "Message", "from_wire", "dnscore.wire.decode"),
    ("repro.dnscore.message", "Message", "to_wire", "dnscore.wire.encode"),
    ("repro.dnscore.zone", "Zone", "lookup", "dnscore.zone"),
    ("repro.resolver.resolver", "RecursiveResolver", "resolve", "resolver"),
    ("repro.resolver.resolver", "RecursiveResolver", "handle_datagram",
     "resolver"),
    ("repro.resolver.cache", "DNSCache", "get", "resolver.cache"),
    ("repro.resolver.cache", "DNSCache", "put", "resolver.cache"),
    ("repro.workload.attacks", "VolumetricAttack", "make_packet", "workload"),
    ("repro.workload.attacks", "DirectQueryAttack", "make_packet",
     "workload"),
    ("repro.workload.attacks", "RandomSubdomainAttack", "make_packet",
     "workload"),
    ("repro.workload.attacks", "SpoofedSourceAttack", "make_packet",
     "workload"),
    ("repro.control.pubsub", "MetadataBus", "publish", "control"),
    ("repro.control.pubsub", "MetadataBus", "publish_zone", "control"),
    ("repro.control.mapping", "MappingView", "answer", "control"),
    ("repro.control.rollout", "RolloutCoordinator", "publish", "control"),
    ("repro.dnssec.sign", "ZoneSigner", "sign", "dnssec"),
)

#: Every public method of these classes is a boundary of ``telemetry``.
TELEMETRY_CLASSES = (("repro.telemetry", "Telemetry"),
                     ("repro.telemetry.trace", "Tracer"))

#: Raw spans kept beside the aggregates.
RAW_MAX = 10_000


def layer_of_module(module: str | None) -> str:
    if module:
        for prefix, layer in LAYER_OF_MODULE:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return HARNESS


class Recorder:
    """In-memory span store: aggregates per phase plus the first raw spans."""

    def __init__(self) -> None:
        #: Open spans, innermost last: [seconds spent in children, raw index].
        self.stack: list[list] = []
        self.raw: list[list] = []
        self.phases: dict[str, dict] = {}
        self.begin_phase("setup")

    def begin_phase(self, name: str) -> None:
        """Start (or resume) accumulating into the phase called ``name``."""
        phase = self.phases.setdefault(
            name, {"self_s": {}, "total_s": {}, "calls": {}})
        #: layer -> self seconds
        self.self_s: dict[str, float] = phase["self_s"]
        #: span name -> inclusive seconds
        self.total_s: dict[str, float] = phase["total_s"]
        #: span name -> calls
        self.calls: dict[str, int] = phase["calls"]


def _ident(args: tuple) -> str | None:
    """Identifier shared by the spans of one simulated query."""
    for arg in args[:3]:
        payload = getattr(arg, "payload", None)
        message = getattr(payload, "message", None)
        if message is not None:
            # A response travels back to the host the query left from.
            host = arg.dst if hasattr(payload, "machine_id") else arg.src
            return f"{host}#{message.msg_id}"
        if hasattr(arg, "msg_id"):
            return f"#{arg.msg_id}"
        if hasattr(arg, "labels"):
            return str(arg)
    return None


def span_wrapper(rec: Recorder, layer: str, name: str, fn: Callable,
                 after: Callable | None = None) -> Callable:
    """``fn`` timed as one span of ``layer``.

    ``after(args, result)``, if given, runs as a harness span once the
    timed call has returned (the benchmark's own bookkeeping).
    """
    stack = rec.stack
    raw = rec.raw

    def wrapper(*args, **kwargs):
        frame = [0.0, -1]
        if len(raw) < RAW_MAX:
            frame[1] = len(raw)
            raw.append([name, layer, 0.0, 0.0,
                        stack[-1][1] if stack else -1, _ident(args)])
        stack.append(frame)
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            elapsed = end - start
            self_s = rec.self_s
            self_s[layer] = self_s.get(layer, 0.0) + elapsed - frame[0]
            total_s = rec.total_s
            total_s[name] = total_s.get(name, 0.0) + elapsed
            calls = rec.calls
            calls[name] = calls.get(name, 0) + 1
            if stack:
                stack[-1][0] += elapsed
            if frame[1] >= 0:
                span = raw[frame[1]]
                span[2] = start
                span[3] = end
        if after is not None:
            after_span(args, result)
        return result

    after_span = (span_wrapper(rec, HARNESS, "bench.after." + name, after)
                  if after is not None else None)
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__module__ = getattr(fn, "__module__", __name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper._bench_layer = layer
    return wrapper


class _Tagged:
    """A scheduled callback, timed under the layer that owns it.

    Compares equal to another tag of an equal action, because
    ``EventLoop.call_at_coalesced`` batches consecutive schedules of
    the *same* action and must keep doing so under tracing.
    """

    __slots__ = ("action", "run")

    def __init__(self, action: Callable, run: Callable) -> None:
        self.action = action
        self.run = run

    def __call__(self, *args):
        return self.run(*args)

    def __eq__(self, other) -> bool:
        return type(other) is _Tagged and self.action == other.action

    def __hash__(self) -> int:
        return hash(self.action)


class _Tagger:
    """Wraps callbacks handed to the event loop with their owner's layer."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        #: code object (or type) -> (layer, span name)
        self._owners: dict[object, tuple[str, str]] = {}

    def owner(self, action: Callable) -> tuple[str, str]:
        func = getattr(action, "__func__", action)
        func = getattr(func, "func", func)          # functools.partial
        key = getattr(func, "__code__", None) or type(func)
        hit = self._owners.get(key)
        if hit is None:
            module = getattr(func, "__module__", None) \
                or type(func).__module__
            name = getattr(func, "__qualname__", type(func).__name__)
            hit = self._owners[key] = (layer_of_module(module), name)
        return hit

    def tag(self, action: Callable) -> Callable:
        func = getattr(action, "__func__", action)
        if type(action) is _Tagged or hasattr(func, "_bench_layer"):
            return action       # already a span of its own layer
        layer, name = self.owner(action)
        return _Tagged(action, span_wrapper(self.rec, layer, name, action))


def _public_class(module: str, cls: str) -> type:
    return getattr(importlib.import_module(module), cls)


def wrap_method(rec: Recorder, module: str, cls_name: str, method: str,
                layer: str, after: Callable | None = None) -> None:
    """Replace ``cls.method`` on the class with its span wrapper."""
    cls = _public_class(module, cls_name)
    static = inspect.getattr_static(cls, method)
    name = f"{cls_name}.{method}"
    if isinstance(static, classmethod):
        setattr(cls, method, classmethod(
            span_wrapper(rec, layer, name, static.__func__, after)))
    elif isinstance(static, staticmethod):
        setattr(cls, method, staticmethod(
            span_wrapper(rec, layer, name, static.__func__, after)))
    else:
        setattr(cls, method, span_wrapper(rec, layer, name, static, after))


def wrap_function(rec: Recorder, module: str, func_name: str) -> None:
    """Span a module-level function wherever ``repro`` imported it."""
    original = getattr(importlib.import_module(module), func_name)
    wrapped = span_wrapper(rec, layer_of_module(module), func_name, original)
    for name, mod in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(mod, func_name, None) is original:
            setattr(mod, func_name, wrapped)


def install(rec: Recorder, after: dict[str, Callable] | None = None) -> None:
    """Install every wrapper. Call once, before the scenario is built.

    ``after`` maps a span name (``"Class.method"``) to harness
    bookkeeping run after each such call.
    """
    after = after or {}
    for module, cls_name, method, layer in ENTRY_POINTS:
        wrap_method(rec, module, cls_name, method, layer,
                    after.get(f"{cls_name}.{method}"))
    for module, cls_name in TELEMETRY_CLASSES:
        cls = _public_class(module, cls_name)
        for method, value in list(vars(cls).items()):
            if not method.startswith("_") and inspect.isfunction(value):
                wrap_method(rec, module, cls_name, method, "telemetry")

    tagger = _Tagger(rec)
    tag = tagger.tag
    clock = importlib.import_module("repro.netsim.clock")
    loop_cls = clock.EventLoop
    call_at, call_later = loop_cls.call_at, loop_cls.call_later
    call_at_coalesced = loop_cls.call_at_coalesced

    def traced_call_at(self, when, action, *args):
        return call_at(self, when, tag(action), *args)

    def traced_call_later(self, delay, action, *args):
        return call_later(self, delay, tag(action), *args)

    def traced_call_at_coalesced(self, when, action, arg):
        return call_at_coalesced(self, when, tag(action), arg)

    loop_cls.call_at = traced_call_at
    loop_cls.call_later = traced_call_later
    loop_cls.call_at_coalesced = traced_call_at_coalesced

    periodic_init = clock.PeriodicTask.__init__

    def traced_periodic_init(self, loop, period, action, **kwargs):
        periodic_init(self, loop, period, tag(action), **kwargs)

    clock.PeriodicTask.__init__ = traced_periodic_init

    network_cls = _public_class("repro.netsim.network", "Network")
    register = network_cls.register_local_delivery

    def traced_register(self, router_id, prefix, handler):
        register(self, router_id, prefix, tag(handler))

    network_cls.register_local_delivery = traced_register


def summary(rec: Recorder, phase: str) -> dict:
    """One phase's aggregates, JSON-ready."""
    data = rec.phases.get(phase, {"self_s": {}, "total_s": {}, "calls": {}})
    return {key: dict(sorted(data[key].items())) for key in data}


def raw_spans(rec: Recorder) -> list[dict]:
    """The first :data:`RAW_MAX` spans, times relative to the first."""
    if not rec.raw:
        return []
    origin = min(span[2] for span in rec.raw)
    return [{"name": name, "layer": layer, "start": start - origin,
             "end": end - origin, "parent": parent, "id": ident}
            for name, layer, start, end, parent, ident in rec.raw]
