"""Datagrams exchanged across the simulated internetwork.

A :class:`Datagram` is a UDP-over-IP stand-in: source/destination address
and port, an IP TTL that routers decrement (so divergent routing tables
during BGP convergence really do discard looping packets, reproducing the
withdrawal-timeout behaviour of paper section 4.1), and an arbitrary
payload — usually DNS message bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_IP_TTL = 64


@dataclass(slots=True)
class Datagram:
    """One packet in flight."""

    src: str
    dst: str
    payload: object
    src_port: int = 0
    dst_port: int = 53
    ip_ttl: int = DEFAULT_IP_TTL
    hops: tuple[str, ...] = field(default_factory=tuple)

    def decremented(self, via: str) -> "Datagram":
        """A copy with TTL decremented and the traversed router recorded.

        Built positionally rather than via ``dataclasses.replace`` —
        this runs once per router hop, and ``replace`` pays for a
        kwargs dict plus field introspection on every call.
        """
        return Datagram(self.src, self.dst, self.payload, self.src_port,
                        self.dst_port, self.ip_ttl - 1, self.hops + (via,))
