"""Metadata delivery: the Communication/Control system (paper section 3.2).

Two publish/subscribe channels with different delivery characteristics,
matching the production split:

* ``CDN_CHANNEL`` — zone files and configuration, delivered over the CDN
  by a HTTP-based protocol: reliable but with seconds-scale latency.
* ``MULTICAST_CHANNEL`` — mapping intelligence, delivered over the
  overlay multicast network in near real time (typically < 1 s).

Subscribers can be partitioned (isolated connectivity failures,
section 4.2.2): deliveries to a partitioned subscriber queue up and
flush when connectivity returns, which is exactly the stale-state window
the staleness checks must catch. Input-delayed subscribers receive every
message with a fixed extra delay (section 4.2.3).

Zone updates published through :meth:`MetadataBus.publish_zone` carry a
monotonic per-key version. Per-message delivery delays are independent,
so two publishes of the same zone can arrive at a subscriber in either
order — and a heal-flush after a repartition can interleave with fresh
publishes. The bus drops any zone delivery whose version is not newer
than what that subscriber already received for the key, so the *last
published* version always wins regardless of arrival order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from ..netsim.clock import EventLoop

CDN_CHANNEL = "cdn"
MULTICAST_CHANNEL = "multicast"


@dataclass(frozen=True, slots=True)
class MetadataMessage:
    """One published metadata update.

    ``zone_version`` is 0 for unversioned traffic (plain
    :meth:`MetadataBus.publish`); versioned zone deliveries start at 1
    and are monotonic per ``key``.
    """

    kind: str           # e.g. "zone", "mapping", "config"
    key: str            # e.g. zone origin or map name
    payload: object
    published_at: float
    sequence: int
    zone_version: int = 0


class Subscriber(Protocol):
    """Anything that consumes metadata messages."""

    def receive_metadata_message(self, message: MetadataMessage) -> None:
        """Handle one delivered message."""


@dataclass(slots=True)
class _Subscription:
    subscriber: Subscriber
    extra_delay: float = 0.0
    partitioned: bool = False
    held: list[MetadataMessage] = field(default_factory=list)
    delivered: int = 0
    #: Highest zone_version delivered per key; stale arrivals are dropped.
    zone_seen: dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class ChannelProfile:
    """Delivery latency model for one channel."""

    min_delay: float
    max_delay: float


PROFILES = {
    CDN_CHANNEL: ChannelProfile(2.0, 20.0),
    MULTICAST_CHANNEL: ChannelProfile(0.1, 0.9),
}


class MetadataBus:
    """The publish/subscribe fabric connecting control systems to servers."""

    def __init__(self, loop: EventLoop, rng: random.Random) -> None:
        self.loop = loop
        self.rng = rng
        self._subs: dict[str, list[_Subscription]] = {}
        self._sequence = 0
        self._zone_versions: dict[str, int] = {}
        self.published = 0
        #: Zone deliveries dropped because a newer version already
        #: arrived at that subscriber (out-of-order protection).
        self.stale_deliveries_dropped = 0

    def subscribe(self, channel: str, subscriber: Subscriber,
                  *, extra_delay: float = 0.0) -> None:
        """Register a subscriber; ``extra_delay`` models input-delayed
        nameservers."""
        self._subs.setdefault(channel, []).append(
            _Subscription(subscriber, extra_delay))

    def publish(self, channel: str, kind: str, key: str,
                payload: object) -> MetadataMessage:
        """Publish one update to every subscriber of ``channel``."""
        return self._publish(channel, kind, key, payload, 0, None)

    def publish_zone(self, channel: str, key: str, payload: object, *,
                     to: Sequence[Subscriber] | None = None,
                     ) -> MetadataMessage:
        """Publish a zone update stamped with a monotonic per-key version.

        Stale deliveries (an older version arriving after a newer one,
        whether from delay jitter or a partition heal-flush) are dropped
        at the subscriber boundary. ``to`` restricts delivery to a
        cohort of the channel's subscribers — the seam the safe-rollout
        train uses to address canaries before the rest of the fleet.
        """
        version = self._zone_versions.get(key, 0) + 1
        self._zone_versions[key] = version
        return self._publish(channel, "zone", key, payload, version, to)

    def _publish(self, channel: str, kind: str, key: str, payload: object,
                 zone_version: int, to: Sequence[Subscriber] | None,
                 ) -> MetadataMessage:
        if channel not in PROFILES:
            raise KeyError(f"unknown channel {channel!r}")
        self._sequence += 1
        self.published += 1
        message = MetadataMessage(kind, key, payload, self.loop.now,
                                  self._sequence, zone_version)
        profile = PROFILES[channel]
        for sub in self._subs.get(channel, []):
            if to is not None and not any(sub.subscriber is t for t in to):
                continue
            delay = (self.rng.uniform(profile.min_delay, profile.max_delay)
                     + sub.extra_delay)
            self.loop.call_later(delay, self._deliver, sub, message)
        return message

    def _deliver(self, sub: _Subscription, message: MetadataMessage) -> None:
        if sub.partitioned:
            sub.held.append(message)
            return
        if message.zone_version:
            if message.zone_version <= sub.zone_seen.get(message.key, 0):
                self.stale_deliveries_dropped += 1
                return
            sub.zone_seen[message.key] = message.zone_version
        sub.delivered += 1
        sub.subscriber.receive_metadata_message(message)

    # -- failure injection -----------------------------------------------------

    def set_partitioned(self, subscriber: Subscriber,
                        partitioned: bool) -> None:
        """Cut (or restore) a subscriber's metadata connectivity.

        On restore, held messages flush immediately — the "catching up"
        window of section 4.2.2. The flush runs through the normal
        delivery path, so held zone versions that were superseded while
        the subscriber was partitioned are dropped, not replayed.
        """
        for subs in self._subs.values():
            for sub in subs:
                if sub.subscriber is subscriber:
                    sub.partitioned = partitioned
                    if not partitioned and sub.held:
                        held, sub.held = sub.held, []
                        for message in held:
                            self._deliver(sub, message)

    def delivered_count(self, subscriber: Subscriber) -> int:
        return sum(sub.delivered for subs in self._subs.values()
                   for sub in subs if sub.subscriber is subscriber)
