"""Typed fault model for declarative chaos campaigns.

A :class:`Campaign` is a named set of :class:`FaultSpec` entries, each a
(fault kind, target, schedule) triple. Schedules expand to concrete
``(inject, clear)`` windows off a seeded RNG, so a campaign is a pure
function of its seed — rerunning one reproduces every fault edge
bit-for-bit, which is what makes resilience regressions diffable.

The fault kinds cover the failure modes the paper's resiliency ladder
(section 4.2) is built against, one per layer seam:

========================  =====================================================
kind                      seam it drives
========================  =====================================================
``LINK_FLAP``             ``Network.set_link_up`` (both edges)
``LINK_DEGRADE``          ``Network.set_link_degraded`` (loss / added latency)
``PARTITION``             ``Network.set_link_up`` on every transit link
``BGP_RESET``             ``BGPSpeaker.session_down`` / ``session_up``
``MACHINE_CRASH``         ``NameserverMachine.crash``
``CRASH_LOOP``            repeated ``crash`` across restarts
``SLOW_IO``               ``MachineConfig`` capacity scaling
``PUBSUB_PARTITION``      ``MetadataBus.set_partitioned``
``METADATA_FREEZE``       ``AkamaiDNSDeployment.pause_metadata_heartbeat``
``ZONE_CORRUPTION``       corrupted zone published on the CDN channel
``BAD_ZONE_PUBLISH``      corrupt/regressive zone submitted through the
                          deployment's zone-update seam, so the
                          safe-rollout train (validator, canary soak,
                          rollback) is what stands between it and the
                          fleet; ``note`` picks the corruption mode
``ATTACK_FLOOD``          a random-subdomain attack (section 4.3.4 class
                          3) aimed at an anycast prefix; ``target`` is
                          the prefix, ``note`` the victim zone origin,
                          ``severity`` the rate in packets/sec
``SIGNATURE_EXPIRY``      a *validly* signed copy of the zone published
                          through the rollout seam whose RRSIGs lapse
                          ``severity`` seconds later — it clears the
                          validator (signatures are fresh at publish
                          time) and goes bogus mid-soak, so the canary
                          health gate is the only thing that can catch
                          it and roll it back
``KEY_MISMATCH``          a copy signed by keys the apex DNSKEY RRset
                          does not publish, submitted through the same
                          seam; the validator's ``rrsig-key-mismatch``
                          rule must reject it outright
``GRAY_BLACKHOLE``        ``NameserverMachine.set_gray_fault("blackhole")``
                          — every data-path query silently dropped
                          while ``health_probe`` keeps answering
``GRAY_CORRUPT``          ``set_gray_fault("corrupt")`` — NOERROR
                          responses silently lose their answer section
``GRAY_STALE``            ``set_gray_fault("stale")`` — zone installs
                          silently no-op; the machine serves a frozen
                          zone while reporting the update landed
``GRAY_PARTIAL_DROP``     ``set_gray_fault("partial_drop", severity)``
                          — a per-source-hash slice of resolvers is
                          silently dropped (severity = drop fraction)
========================  =====================================================
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field


class FaultKind(enum.Enum):
    """The typed fault vocabulary injectors understand."""

    LINK_FLAP = "link_flap"
    LINK_DEGRADE = "link_degrade"
    PARTITION = "partition"
    BGP_RESET = "bgp_reset"
    MACHINE_CRASH = "machine_crash"
    CRASH_LOOP = "crash_loop"
    SLOW_IO = "slow_io"
    PUBSUB_PARTITION = "pubsub_partition"
    METADATA_FREEZE = "metadata_freeze"
    ZONE_CORRUPTION = "zone_corruption"
    BAD_ZONE_PUBLISH = "bad_zone_publish"
    ATTACK_FLOOD = "attack_flood"
    SIGNATURE_EXPIRY = "signature_expiry"
    KEY_MISMATCH = "key_mismatch"
    GRAY_BLACKHOLE = "gray_blackhole"
    GRAY_CORRUPT = "gray_corrupt"
    GRAY_STALE = "gray_stale"
    GRAY_PARTIAL_DROP = "gray_partial_drop"


@dataclass(frozen=True, slots=True)
class Schedule:
    """When a fault is active: one-shot, periodic, or randomized windows.

    Use the constructors (:meth:`once`, :meth:`periodic`, :meth:`random`)
    rather than instantiating directly.
    """

    mode: str                 # "once" | "periodic" | "random"
    start: float
    duration: float
    period: float = 0.0       # periodic: inject-to-inject spacing
    count: int = 1            # periodic/random: number of occurrences
    window: float = 0.0       # random: occurrences drawn in [start, start+window)

    @classmethod
    def once(cls, start: float, duration: float) -> "Schedule":
        """Inject at ``start``, clear ``duration`` seconds later."""
        return cls("once", start, duration)

    @classmethod
    def periodic(cls, start: float, period: float, duration: float,
                 count: int) -> "Schedule":
        """``count`` occurrences every ``period`` seconds (a flap train)."""
        if duration >= period:
            raise ValueError("duration must be < period (fault must clear "
                             "before it re-fires)")
        return cls("periodic", start, duration, period=period, count=count)

    @classmethod
    def random(cls, start: float, window: float, duration: float,
               count: int) -> "Schedule":
        """``count`` occurrences at seeded-random times in the window."""
        if window <= 0:
            raise ValueError("random schedules need a positive window")
        return cls("random", start, duration, count=count, window=window)

    def windows(self, rng: random.Random) -> list[tuple[float, float]]:
        """Expand to sorted, non-overlapping (inject, clear) pairs."""
        if self.mode == "once":
            raw = [(self.start, self.start + self.duration)]
        elif self.mode == "periodic":
            raw = [(self.start + i * self.period,
                    self.start + i * self.period + self.duration)
                   for i in range(self.count)]
        elif self.mode == "random":
            starts = sorted(rng.uniform(self.start,
                                        self.start + self.window)
                            for _ in range(self.count))
            raw = [(s, s + self.duration) for s in starts]
        else:
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        # Merge overlaps so injectors never see inject-while-injected.
        merged: list[tuple[float, float]] = []
        for start, end in raw:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One fault: what to break, where, when, and how hard.

    ``target`` is injector-interpreted: a PoP router id, a machine id, a
    link as ``"a|b"``, a zone origin string, an anycast prefix
    (``ATTACK_FLOOD``), or ``"platform"`` for platform-wide faults.
    ``severity`` scales intensity: loss fraction for ``LINK_DEGRADE``,
    capacity multiplier for ``SLOW_IO``, packets/sec for
    ``ATTACK_FLOOD``.
    """

    kind: FaultKind
    target: str
    schedule: Schedule
    severity: float = 1.0
    note: str = ""

    def describe(self) -> str:
        return f"{self.kind.value}@{self.target}" + \
            (f" ({self.note})" if self.note else "")


@dataclass(slots=True)
class Campaign:
    """A named, seeded collection of faults plus a run duration."""

    name: str
    duration: float
    faults: list[FaultSpec] = field(default_factory=list)
    seed: int = 0
    description: str = ""

    def add(self, fault: FaultSpec) -> "Campaign":
        self.faults.append(fault)
        return self

    def timeline(self) -> list[tuple[float, str, FaultSpec]]:
        """Every (time, "inject"/"clear", spec) edge, time-sorted.

        Edges past the campaign duration are dropped for injects and
        clamped to the duration for clears, so every injected fault is
        cleared inside the run.
        """
        rng = random.Random(self.seed)
        edges: list[tuple[float, str, FaultSpec]] = []
        for spec in self.faults:
            for start, end in spec.schedule.windows(rng):
                if start >= self.duration:
                    continue
                edges.append((start, "inject", spec))
                edges.append((min(end, self.duration), "clear", spec))
        edges.sort(key=lambda e: (e[0], e[1] == "inject"))
        return edges
