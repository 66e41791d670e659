"""Slow-path oracles for the serving and resolver fast paths, a fake
monitoring agent, and the helper that plants a defect to show that a
check against them bites.

Each oracle is the shipped class with its fast path taken away, so the
path it falls back to is the one the shipped code takes on every miss:

* :class:`AssemblingEngine` assembles every answer by the zone walk
  (``_respond_full``), never from a response plan or a negative
  skeleton;
* :class:`HopByHopNetwork` forwards every datagram router by router
  (``_forward``), never along a cached route.

:func:`peek` is the resolver cache's one-entry read, which ``get``,
``glue`` and ``best_delegation`` each write out in their own loop.
:class:`FailingAgent` is the monitoring agent with a suite that fails on
demand.

A whole run under an oracle patches its one method onto the shipped
class (``monkeypatch.setattr(Network, "_route_lookup",
HopByHopNetwork._route_lookup)``).
"""

import __future__
import inspect
import textwrap

from repro.netsim.network import Network
from repro.server.engine import AuthoritativeEngine
from repro.server.monitoring import HealthReport, MonitoringAgent


class AssemblingEngine(AuthoritativeEngine):
    """Every response assembled by the zone walk."""

    def respond(self, query, client_key=None):
        return self._respond_full(query, client_key)

    def respond_probe(self, query):
        return self.respond(query)


class HopByHopNetwork(Network):
    """Every anycast datagram forwarded one router at a time."""

    def _route_lookup(self, router_id, dst):
        return None


class FailingAgent(MonitoringAgent):
    """A monitoring agent whose suite fails while ``failing`` is set."""

    failing = False

    def run_suite(self):
        if self.failing:
            return HealthReport(False, ("failing on demand",))
        return super().run_suite()


def peek(cache, qname, qtype, now):
    """``cache``'s stored live entry for (qname, qtype) itself, or None: no
    copy, TTL as cached. Counts a hit or a miss and drops an expired
    entry, as ``DNSCache.get`` does."""
    positive = cache._positive
    entry = positive.get((qname, qtype))
    if entry is None or entry.expires_at <= now:
        if entry is not None:
            del positive[(qname, qtype)]
        cache.misses += 1
        return None
    cache.hits += 1
    return entry


def mutated(owner, name: str, old: str, new: str, namespace: dict):
    """``owner.name`` recompiled with ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, f"{name} no longer contains {old!r}"
    scope = dict(namespace)
    # Compiled as its module is: annotations stay unevaluated.
    exec(compile(source.replace(old, new), name, "exec",
                 flags=__future__.annotations.compiler_flag), scope)
    return scope[name]
