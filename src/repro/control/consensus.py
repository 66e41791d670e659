"""Quorum-based lease registry limiting concurrent self-suspensions.

Paper section 4.2.1: widespread self-suspension — from a pervasive bug
or a faulty monitoring agent — would gut serving capacity, so the
Monitoring/Automated Recovery system bounds concurrent suspensions
"using a distributed consensus algorithm". We model the part that
matters for resiliency semantics: a replicated lease table where a
suspension is granted only if a *majority* of replicas agree the limit
is not exceeded. Replica partitions fail toward denial, i.e. a machine
that cannot reach a quorum keeps serving in a degraded state rather
than silently shrinking the fleet (design principle iii).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.clock import EventLoop


#: Replicas of the lease table; a grant needs a majority of them.
REPLICAS = 5
#: How long a grant or a renewal holds. A holder that stops renewing (a
#: machine that died suspended) frees its slot this long after its last
#: renewal.
LEASE_SECONDS = 300.0


@dataclass(slots=True)
class _Replica:
    """One replica's view of the lease table."""

    leases: dict[str, float] = field(default_factory=dict)
    reachable: bool = True

    def active(self, now: float) -> set[str]:
        return {m for m, expiry in self.leases.items() if expiry > now}

    def grant(self, machine_id: str, expiry: float) -> None:
        self.leases[machine_id] = expiry

    def revoke(self, machine_id: str) -> None:
        self.leases.pop(machine_id, None)


class QuorumSuspensionCoordinator:
    """SuspensionCoordinator backed by a majority-quorum lease table."""

    def __init__(self, loop: EventLoop, *, max_concurrent: int = 2) -> None:
        self.loop = loop
        self.max_concurrent = max_concurrent
        self._replicas = [_Replica() for _ in range(REPLICAS)]
        self.denials = 0

    @property
    def quorum_size(self) -> int:
        return len(self._replicas) // 2 + 1

    def _reachable(self) -> list[_Replica]:
        return [r for r in self._replicas if r.reachable]

    def set_replica_reachable(self, replica_id: int, reachable: bool) -> None:
        """Partition or heal one replica (failure injection)."""
        self._replicas[replica_id].reachable = reachable

    def active_suspensions(self) -> set[str]:
        """Majority view of who currently holds a suspension lease."""
        now = self.loop.now
        counts: dict[str, int] = {}
        for replica in self._replicas:
            for machine_id in replica.active(now):
                counts[machine_id] = counts.get(machine_id, 0) + 1
        return {m for m, c in counts.items() if c >= self.quorum_size}

    def request_suspension(self, machine_id: str) -> bool:
        """Grant a suspension lease if a quorum agrees the limit holds."""
        now = self.loop.now
        reachable = self._reachable()
        if len(reachable) < self.quorum_size:
            self.denials += 1
            return False
        votes = 0
        for replica in reachable:
            active = replica.active(now)
            if machine_id in active or len(active) < self.max_concurrent:
                votes += 1
        if votes < self.quorum_size:
            self.denials += 1
            return False
        expiry = now + LEASE_SECONDS
        for replica in reachable:
            replica.grant(machine_id, expiry)
        return True

    def release_suspension(self, machine_id: str) -> None:
        """Release the lease on every reachable replica."""
        for replica in self._reachable():
            replica.revoke(machine_id)

    def renew(self, machine_id: str) -> bool:
        """Extend an existing lease (agents renew while suspended)."""
        if machine_id not in self.active_suspensions():
            return False
        expiry = self.loop.now + LEASE_SECONDS
        for replica in self._reachable():
            replica.grant(machine_id, expiry)
        return True
