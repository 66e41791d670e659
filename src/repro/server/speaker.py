"""The BGP speaker co-resident with each nameserver (paper Figure 6).

Each machine runs a BGP speaker holding a session with the PoP router.
The speaker advertises the PoP's anycast clouds; when the monitoring
agent detects a problem it withdraws them, shifting traffic to healthy
machines — or, if every machine in the PoP withdraws, letting global
anycast failover move traffic to other PoPs. Input-delayed machines
advertise with a higher MED so the router only prefers them when every
regular machine is gone (section 4.2.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pop import PoP


class MachineBGPSpeaker:
    """One machine's iBGP session to its PoP router."""

    def __init__(self, pop: "PoP", machine_id: str,
                 clouds: list[str], med: int = 0) -> None:
        self._pop = pop
        self.machine_id = machine_id
        self.clouds = list(clouds)
        self.med = med
        self._advertised: set[str] = set()

    @property
    def advertised(self) -> set[str]:
        return set(self._advertised)

    def advertise_all(self) -> None:
        """Advertise every assigned cloud to the router."""
        for prefix in self.clouds:
            self.advertise(prefix)

    def advertise(self, prefix: str) -> None:
        if prefix not in self._advertised:
            self._advertised.add(prefix)
            self._pop.machine_advertise(self.machine_id, prefix, self.med)

    def withdraw_all(self) -> None:
        """Withdraw every advertisement (self-suspension path)."""
        # In ``clouds`` order: the order of withdrawals is the order of
        # BGP updates and RNG draws, and a set's order follows the
        # process's hash seed.
        for prefix in self.clouds:
            self.withdraw(prefix)

    def withdraw(self, prefix: str) -> None:
        if prefix in self._advertised:
            self._advertised.discard(prefix)
            self._pop.machine_withdraw(self.machine_id, prefix)
