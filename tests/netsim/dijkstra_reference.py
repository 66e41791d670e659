"""``Network._dijkstra`` as it stood before it stopped pushing leaves,
kept verbatim as the oracle for ``test_dijkstra_oracle.py``: every node
reached is pushed and popped, and its links are read through
``Network._edges``. Nothing here is to be "improved"; it defines the
distances, and the order they were first reached in, that the faster
code must reproduce bit for bit.
"""

from __future__ import annotations

import heapq

from repro.netsim.network import HOP_COST_S, Network, _LinkView


def reference_dijkstra(network: Network, view: _LinkView,
                       src: str) -> dict[str, float]:
    distances = {src: 0.0}
    frontier: list[tuple[float, str]] = [(0.0, src)]
    visited: set[str] = set()
    unreached = float("inf")
    while frontier:
        dist, node = heapq.heappop(frontier)
        if node in visited:
            continue
        visited.add(node)
        for peer, base, extra, _, _ in network._edges(view, node).values():
            candidate = dist + base + HOP_COST_S + extra
            if candidate < distances.get(peer, unreached):
                distances[peer] = candidate
                heapq.heappush(frontier, (candidate, peer))
    return distances
