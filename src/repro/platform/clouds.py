"""Anycast cloud inventory and delegation-set assignment.

Akamai DNS uses 24 IPv4/IPv6 anycast prefix pairs; each ADHS enterprise
is assigned a *unique* combination of 6 of the 24 clouds, supporting up
to C(24,6) = 134,596 enterprises before new clouds are needed, and
guaranteeing that any two enterprises differ in at least one delegation
— the compartmentalization that bounds DDoS collateral damage (paper
sections 3.1 and 4.3.1). The cross-enterprise CDN entry domains use a
fixed 13-cloud set, matching the root-server model.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import ip_address
from itertools import combinations
from math import comb

from ..dnscore.name import Name, name

TOTAL_CLOUDS = 24
DELEGATION_SET_SIZE = 6
CDN_DELEGATION_COUNT = 13
MAX_ENTERPRISES = comb(TOTAL_CLOUDS, DELEGATION_SET_SIZE)


@dataclass(frozen=True, slots=True)
class AnycastCloudSpec:
    """Static identity of one anycast cloud.

    Each cloud is an IPv4-IPv6 *prefix pair* (paper section 3.1): both
    prefixes are advertised from the same PoPs and the NS hostname
    carries both an A and an AAAA record.
    """

    index: int
    prefix: str          # the anycast IPv4 service address
    prefix6: str         # the paired IPv6 service address
    ns_hostname: Name    # the NS-record name pointing at this cloud

    @property
    def prefixes(self) -> tuple[str, str]:
        return (self.prefix, self.prefix6)

    @classmethod
    def build(cls, index: int) -> "AnycastCloudSpec":
        if not 0 <= index < TOTAL_CLOUDS:
            raise ValueError(f"cloud index {index} out of range")
        # RFC 5952 canonical text form, matching what AAAA rdata emits —
        # routing tables key on address strings, so the advertised form
        # and the form resolvers learn from glue must be identical
        # (index 0 would otherwise advertise "2600:1480:0::40" while
        # answers carry "2600:1480::40", blackholing the v6 prefix).
        prefix6 = str(ip_address(f"2600:1480:{index:x}::40"))
        return cls(index=index,
                   prefix=f"23.{192 + index}.61.64",
                   prefix6=prefix6,
                   ns_hostname=name(f"a{index}-64.akam.net"))


def all_clouds() -> list[AnycastCloudSpec]:
    """The full 24-cloud inventory."""
    return [AnycastCloudSpec.build(i) for i in range(TOTAL_CLOUDS)]


class DelegationAssigner:
    """Hands out unique 6-of-24 cloud combinations to enterprises.

    Uniqueness is the property the paper's resiliency argument needs:
    any two enterprises then differ in at least one cloud. Consecutive
    assignments are additionally offset by a fixed stride so early
    enterprises spread across all 24 clouds rather than clustering in
    the lexicographically-first few.
    """

    def __init__(self, total: int = TOTAL_CLOUDS,
                 set_size: int = DELEGATION_SET_SIZE) -> None:
        if set_size > total:
            raise ValueError("set size cannot exceed the cloud count")
        self.total = total
        self.set_size = set_size
        self.capacity = comb(total, set_size)
        self._assigned: dict[str, tuple[int, ...]] = {}
        self._used: set[tuple[int, ...]] = set()
        self._generator = combinations(range(total), set_size)
        self._counter = 0

    def assign(self, enterprise_id: str) -> tuple[AnycastCloudSpec, ...]:
        """The enterprise's delegation set (stable across calls)."""
        existing = self._assigned.get(enterprise_id)
        if existing is not None:
            return tuple(AnycastCloudSpec.build(i) for i in existing)
        while True:
            for combo in self._generator:
                self._counter += 1
                rotated = tuple(sorted((c + 7 * self._counter) % self.total
                                       for c in combo))
                chosen = rotated if rotated not in self._used else combo
                if chosen in self._used:
                    continue
                self._used.add(chosen)
                self._assigned[enterprise_id] = chosen
                return tuple(AnycastCloudSpec.build(i) for i in chosen)
            if len(self._used) >= self.capacity:
                raise RuntimeError(
                    f"delegation sets exhausted after {self.capacity} "
                    f"enterprises")
            # Rotation may have consumed sets the generator later yields;
            # rescan the full space for anything still unused.
            self._generator = (c for c in combinations(
                range(self.total), self.set_size)
                if c not in self._used)
