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
from math import log
from typing import Callable

from ..dnscore.message import Flags, Message, make_query
from ..dnscore.name import Name
from ..dnscore.records import Question
from ..dnscore.rrtypes import RType
from ..netsim.packet import DEFAULT_IP_TTL, Datagram
from ..server.machine import QueryEnvelope

SendFn = Callable[[Datagram], None]

#: Every attack query asks for A; bound once, as reading a member off an
#: Enum class is a metaclass attribute lookup per use.
_A = RType.A


class JunkPayload:
    """Non-DNS garbage used by volumetric attacks (reflection floods)."""


@dataclass(slots=True)
class AttackStats:
    """Counters every generator keeps."""

    packets_sent: int = 0


class _BaseAttack:
    """Common send-loop plumbing for attack generators.

    Every packet is a draw or three, so the generators call the RNG's
    primitives where the stdlib conveniences would wrap them, with the
    same bits consumed: ``seq[_randbelow(len(seq))]`` for ``choice``,
    ``1024 + _randbelow(64512)`` for ``randint(1024, 65535)`` and
    ``-log(1 - random()) / rate`` for ``expovariate(rate)``. Packets are
    built positionally, every field given, so no dataclass default
    factory runs (``make_query`` would build the same ``Message``).
    """

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
        self.loop.call_later(-log(1.0 - self.rng.random()) / self.rate,
                             self._fire)

    def _fire(self) -> None:
        if self._stopped or self.loop.now > self.deadline:
            return
        self.send(self.make_packet())
        self.stats.packets_sent += 1
        self._schedule()

    def _query(self, qname: Name) -> QueryEnvelope:
        """An attack query for ``qname`` A under the next message id."""
        self._msg_id = msg_id = (self._msg_id + 1) & 0xFFFF
        return QueryEnvelope(
            Message(msg_id, Flags(), [Question(qname, _A)], [], [], [], None),
            True)

    def make_packet(self) -> Datagram:
        raise NotImplementedError


def _nonempty(items: list, what: str) -> list:
    """``items`` as a list; a generator with none to draw from is an
    error here, not an endless ``_randbelow(0)`` at the first packet."""
    items = list(items)
    if not items:
        raise ValueError(f"an attack needs at least one {what}")
    return items


#: Where reflection junk lands: DNS, NTP and HTTP.
_JUNK_PORTS = (53, 123, 80)


class VolumetricAttack(_BaseAttack):
    """Class 1: bandwidth saturation with non-DNS reflection traffic."""

    def __init__(self, loop, rng, send, rate_pps, duration, *,
                 target: str) -> None:
        super().__init__(loop, rng, send, rate_pps, duration)
        self.target = target
        self.sources = [f"203.0.{i // 250}.{i % 250 + 1}"
                        for i in range(1000)]

    def make_packet(self) -> Datagram:
        randbelow = self.rng._randbelow
        sources = self.sources
        return Datagram(sources[randbelow(len(sources))], self.target,
                        JunkPayload(), 1024 + randbelow(64512),
                        _JUNK_PORTS[randbelow(3)], DEFAULT_IP_TTL, ())


class DirectQueryAttack(_BaseAttack):
    """Class 2: valid queries for existing names from attack machines."""

    def __init__(self, loop, rng, send, rate_pps, duration, *,
                 target: str, qnames: list[Name],
                 source_count: int = 8) -> None:
        super().__init__(loop, rng, send, rate_pps, duration)
        self.target = target
        self.qnames = _nonempty(qnames, "qname")
        self.sources = _nonempty(
            [f"198.18.0.{i + 1}" for i in range(source_count)], "source")

    def make_packet(self) -> Datagram:
        randbelow = self.rng._randbelow
        qnames, sources = self.qnames, self.sources
        envelope = self._query(qnames[randbelow(len(qnames))])
        return Datagram(sources[randbelow(len(sources))], self.target,
                        envelope, 1024 + randbelow(64512), 53,
                        DEFAULT_IP_TTL, ())


_LABEL_ALPHABET = string.ascii_lowercase + string.digits

#: All two-character combinations, so a label is assembled from
#: length/2 table lookups instead of per-character draws.
_LABEL_PAIRS = [a + b for a in _LABEL_ALPHABET for b in _LABEL_ALPHABET]


def random_label(rng: random.Random, length: int = 10) -> str:
    """A uniform random lowercase-alphanumeric label.

    The hottest RNG site in the attack workloads, so it draws all the
    label's entropy in one ``getrandbits`` call and peels digits off
    with ``%`` and ``//`` (6 bits of entropy per character makes the
    modulo bias ~2^-14 per character — irrelevant here, where the only
    property the attacks rely on is that labels are effectively unique).
    """
    r = rng.getrandbits(6 * length)
    pairs = _LABEL_PAIRS
    out = []
    append = out.append
    for _ in range(length // 2):
        append(pairs[r % 1296])
        r //= 1296
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
        self.sources = _nonempty(sources, "source")
        #: Pass-through attacks arrive as *real* packets from the
        #: resolvers, so they carry each resolver's genuine IP TTL.
        self.source_ip_ttls = dict(source_ip_ttls or {})

    def make_packet(self) -> Datagram:
        rng = self.rng
        randbelow = rng._randbelow
        sources = self.sources
        envelope = self._query(self.victim_zone.prepend(random_label(rng)))
        source = sources[randbelow(len(sources))]
        return Datagram(source, self.target, envelope,
                        1024 + randbelow(64512), 53,
                        self.source_ip_ttls.get(source, DEFAULT_IP_TTL), ())


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
        self.identities = _nonempty(identities, "identity")
        self.qnames = _nonempty(qnames, "qname")
        self.attacker_ip_ttl = attacker_ip_ttl

    def make_packet(self) -> Datagram:
        randbelow = self.rng._randbelow
        identities, qnames = self.identities, self.qnames
        identity = identities[randbelow(len(identities))]
        envelope = self._query(qnames[randbelow(len(qnames))])
        ttl = (identity.ip_ttl if identity.ip_ttl is not None
               else self.attacker_ip_ttl)
        return Datagram(identity.address, self.target, envelope,
                        1024 + randbelow(64512), 53, ttl, ())


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
