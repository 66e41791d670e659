"""Slow-path oracles for the serving fast paths, and the helper that
plants a defect to show that a check against them bites.

Each oracle is the shipped class with its fast path taken away, so the
path it falls back to is the one the shipped code takes on every miss:

* :class:`AssemblingEngine` assembles every answer by the zone walk
  (``_respond_full``), never from a response plan or a negative
  skeleton;
* :class:`HopByHopNetwork` forwards every datagram router by router
  (``_forward``), never along a cached route.

A whole run under an oracle patches its one method onto the shipped
class (``monkeypatch.setattr(Network, "_route_lookup",
HopByHopNetwork._route_lookup)``).
"""

import __future__
import inspect
import textwrap

from repro.netsim.network import Network
from repro.server.engine import AuthoritativeEngine


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


def mutated(owner, name: str, old: str, new: str, namespace: dict):
    """``owner.name`` recompiled with ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, f"{name} no longer contains {old!r}"
    scope = dict(namespace)
    # Compiled as its module is: annotations stay unevaluated.
    exec(compile(source.replace(old, new), name, "exec",
                 flags=__future__.annotations.compiler_flag), scope)
    return scope[name]
