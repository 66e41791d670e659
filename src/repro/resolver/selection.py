"""Delegation (nameserver) selection strategies.

Research cited by the paper ([34, 44, 56]) observes resolver behaviours
from apparent uniformity to strong preference for low-RTT nameservers.
The simulated resolvers select uniformly, the best case for Two-Tier
(anycast toplevel RTTs vary widely); the Two-Tier evaluation weighs the
other extreme analytically, from measured RTTs (paper section 5.2,
"avg RTT" vs "wgt RTT", ``experiments.fig11_speedup``), not by
simulating an RTT-preferring resolver.
"""

from __future__ import annotations

import random
from typing import Protocol


class SelectionStrategy(Protocol):
    """Chooses which nameserver address to query next."""

    def choose(self, addresses: list[str], rng: random.Random) -> str:
        """Pick one address from the candidate set."""

    def observe_rtt(self, address: str, rtt: float) -> None:
        """Feed back a measured RTT for learning strategies."""


class UniformSelection:
    """Every delegation equally likely (paper's best case for Two-Tier)."""

    def choose(self, addresses: list[str], rng: random.Random) -> str:
        return rng.choice(addresses)

    def observe_rtt(self, address: str, rtt: float) -> None:
        """Uniform selection ignores RTT feedback."""
