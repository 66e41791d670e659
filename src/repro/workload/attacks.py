"""Attack traffic generators for the section 4.3.4 taxonomy.

Each generator produces the traffic of one attack class, marked with the
ground-truth ``is_attack`` flag (used only for accounting — filters never
see it):

1. **Volumetric** — non-DNS junk aimed at saturating bandwidth.
2. **Direct query** — valid DNS queries from attacker-controlled sources.
3. **Random subdomain** — queries for nonexistent names under a victim
   zone, typically passed through legitimate resolvers.
4. **Spoofed source IP** — direct queries forging allowlisted resolver
   addresses (arriving with the attacker's hop count, not the victim's).
5. **Spoofed source IP & TTL** — additionally forging the IP TTL; only
   the loyalty filter's catchment knowledge can catch these.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Callable

from ..dnscore.message import make_query
from ..dnscore.name import Name
from ..dnscore.rrtypes import RType
from ..netsim.packet import Datagram
from ..server.machine import QueryEnvelope

SendFn = Callable[[Datagram], None]


class JunkPayload:
    """Non-DNS garbage used by volumetric attacks (reflection floods)."""


@dataclass(slots=True)
class AttackStats:
    """Counters every generator keeps."""

    packets_sent: int = 0


class _BaseAttack:
    """Common send-loop plumbing for attack generators."""

    def __init__(self, loop, rng: random.Random, send: SendFn,
                 rate_pps: float, duration: float) -> None:
        self.loop = loop
        self.rng = rng
        self.send = send
        self.rate = rate_pps
        self.deadline = loop.now + duration
        self.stats = AttackStats()
        self._msg_id = rng.randrange(0xFFFF)
        self._stopped = False

    def start(self) -> "_BaseAttack":
        self._schedule()
        return self

    def stop(self) -> None:
        self._stopped = True

    def _schedule(self) -> None:
        if self.rate <= 0 or self._stopped:
            return
        self.loop.call_later(self.rng.expovariate(self.rate), self._fire)

    def _fire(self) -> None:
        if self._stopped or self.loop.now > self.deadline:
            return
        self.send(self.make_packet())
        self.stats.packets_sent += 1
        self._schedule()

    def _next_id(self) -> int:
        self._msg_id = (self._msg_id + 1) & 0xFFFF
        return self._msg_id

    def make_packet(self) -> Datagram:
        raise NotImplementedError


class VolumetricAttack(_BaseAttack):
    """Class 1: bandwidth saturation with non-DNS reflection traffic."""

    def __init__(self, loop, rng, send, rate_pps, duration, *,
                 target: str) -> None:
        super().__init__(loop, rng, send, rate_pps, duration)
        self.target = target
        self.sources = [f"203.0.{i // 250}.{i % 250 + 1}"
                        for i in range(1000)]

    def make_packet(self) -> Datagram:
        return Datagram(src=self.rng.choice(self.sources), dst=self.target,
                        payload=JunkPayload(),
                        src_port=self.rng.randint(1024, 65535),
                        dst_port=self.rng.choice([53, 123, 80]))


class DirectQueryAttack(_BaseAttack):
    """Class 2: valid queries for existing names from attack machines."""

    def __init__(self, loop, rng, send, rate_pps, duration, *,
                 target: str, qnames: list[Name],
                 source_count: int = 8) -> None:
        super().__init__(loop, rng, send, rate_pps, duration)
        self.target = target
        self.qnames = list(qnames)
        self.sources = [f"198.18.0.{i + 1}" for i in range(source_count)]

    def make_packet(self) -> Datagram:
        query = make_query(self._next_id(), self.rng.choice(self.qnames),
                           RType.A)
        return Datagram(src=self.rng.choice(self.sources), dst=self.target,
                        payload=QueryEnvelope(query, is_attack=True),
                        src_port=self.rng.randint(1024, 65535))


_LABEL_ALPHABET = string.ascii_lowercase + string.digits

#: All two-character combinations, so a label is assembled from
#: length/2 table lookups instead of per-character draws.
_LABEL_PAIRS = [a + b for a in _LABEL_ALPHABET for b in _LABEL_ALPHABET]


def random_label(rng: random.Random, length: int = 10) -> str:
    """A uniform random lowercase-alphanumeric label.

    The hottest RNG site in the attack workloads, so it draws all the
    label's entropy in one ``getrandbits`` call and peels digits off
    with divmod (6 bits of entropy per character makes the modulo bias
    ~2^-14 per character — irrelevant here, where the only property the
    attacks rely on is that labels are effectively unique).
    """
    r = rng.getrandbits(6 * length)
    pairs = _LABEL_PAIRS
    out = []
    append = out.append
    for _ in range(length // 2):
        r, idx = divmod(r, 1296)
        append(pairs[idx])
    if length & 1:
        append(_LABEL_ALPHABET[r % 36])
    return "".join(out)


class RandomSubdomainAttack(_BaseAttack):
    """Class 3: random hostnames under a victim zone, via resolvers.

    ``sources`` should be legitimate resolver addresses — the attack
    passes *through* resolvers by design, defeating per-source filters.
    """

    def __init__(self, loop, rng, send, rate_pps, duration, *,
                 target: str, victim_zone: Name,
                 sources: list[str],
                 source_ip_ttls: dict[str, int] | None = None) -> None:
        super().__init__(loop, rng, send, rate_pps, duration)
        self.target = target
        self.victim_zone = victim_zone
        self.sources = list(sources)
        #: Pass-through attacks arrive as *real* packets from the
        #: resolvers, so they carry each resolver's genuine IP TTL.
        self.source_ip_ttls = dict(source_ip_ttls or {})

    def make_packet(self) -> Datagram:
        qname = self.victim_zone.prepend(random_label(self.rng))
        query = make_query(self._next_id(), qname, RType.A)
        source = self.rng.choice(self.sources)
        return Datagram(src=source, dst=self.target,
                        payload=QueryEnvelope(query, is_attack=True),
                        src_port=self.rng.randint(1024, 65535),
                        ip_ttl=self.source_ip_ttls.get(source, 64))


@dataclass(frozen=True, slots=True)
class SpoofedIdentity:
    """What the attacker knows about an impersonated resolver."""

    address: str
    ip_ttl: int | None = None   # None: attacker doesn't know/control it


class SpoofedSourceAttack(_BaseAttack):
    """Classes 4 and 5: forging allowlisted resolver identities.

    When an identity carries ``ip_ttl`` the attacker forges it too
    (class 5); otherwise packets arrive with the attacker's own hop
    count (class 4), which the hop-count filter detects.
    """

    def __init__(self, loop, rng, send, rate_pps, duration, *,
                 target: str, identities: list[SpoofedIdentity],
                 qnames: list[Name], attacker_ip_ttl: int = 44) -> None:
        super().__init__(loop, rng, send, rate_pps, duration)
        self.target = target
        self.identities = list(identities)
        self.qnames = list(qnames)
        self.attacker_ip_ttl = attacker_ip_ttl

    def make_packet(self) -> Datagram:
        identity = self.rng.choice(self.identities)
        query = make_query(self._next_id(), self.rng.choice(self.qnames),
                           RType.A)
        ttl = (identity.ip_ttl if identity.ip_ttl is not None
               else self.attacker_ip_ttl)
        return Datagram(src=identity.address, dst=self.target,
                        payload=QueryEnvelope(query, is_attack=True),
                        src_port=self.rng.randint(1024, 65535),
                        ip_ttl=ttl)


@dataclass(slots=True)
class QoDInjector:
    """Sends a query-of-death (section 4.2.4): a query whose processing
    crashes the nameserver."""

    loop: object
    send: SendFn
    target: str
    sent: int = 0

    def fire(self, qname: Name, source: str = "198.18.99.1") -> None:
        query = make_query(0x0D0D + self.sent, qname, RType.TXT)
        self.send(Datagram(src=source, dst=self.target,
                           payload=QueryEnvelope(query, is_attack=True,
                                                 poison=True),
                           src_port=4242))
        self.sent += 1
