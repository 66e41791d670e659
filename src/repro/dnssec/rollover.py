"""Key rollovers as canaried release trains.

A key rollover is the highest-stakes routine operation a signed zone
performs: every step republishes the zone, and a mis-step (signing with
a key resolvers cannot find, letting signatures expire mid-flight)
turns the whole zone bogus for validating resolvers. RFC 6781 defines
the two safe sequences this module implements:

* **ZSK pre-publish**: introduce the successor DNSKEY while the old
  key still signs (caches learn the new key), then switch signing to
  the successor, then retire the old DNSKEY.
* **KSK double-signature**: publish the successor KSK with the DNSKEY
  RRset signed by *both* KSKs, then retire the old one.

Each step is one release through the PR-5
:class:`~repro.control.rollout.RolloutCoordinator`: semantic
validation (now including the DNSSEC fatal rules), canary push, a
health-gated soak — canary probes validate served signatures against
simulation time, so a botched step trips the gate — and only then
fleet-wide promotion. A rejected or rolled-back step aborts the
rollover and restores the key ring, leaving the last-known-good signed
zone serving everywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..control.rollout import Release, RolloutCoordinator, RolloutPhase
from ..dnscore.name import Name
from ..dnscore.rdata import SOA
from ..dnscore.records import ResourceRecord, RRset
from ..dnscore.rrtypes import RType
from ..dnscore.zone import Zone
from ..netsim.clock import EventLoop
from ..telemetry import state as _telemetry
from .keys import FLAG_KSK, FLAG_ZSK, KeyPair
from .sign import ZoneSigner


class RolloverKind(enum.Enum):
    """Which RFC 6781 sequence to run."""

    ZSK_PREPUBLISH = "zsk-prepublish"
    KSK_DOUBLE_SIGNATURE = "ksk-double-signature"


#: Ordered step names per rollover kind. Each step is one release.
ROLLOVER_STEPS: dict[RolloverKind, tuple[str, ...]] = {
    RolloverKind.ZSK_PREPUBLISH: ("prepublish", "switch-signer", "retire"),
    RolloverKind.KSK_DOUBLE_SIGNATURE: ("double-sign", "retire"),
}


@dataclass(slots=True)
class RolloverState:
    """Progress of one rollover through its steps."""

    kind: RolloverKind
    origin: Name
    steps: tuple[str, ...]
    step_index: int = 0
    status: str = "running"          # running | complete | aborted
    release_ids: list[int] = field(default_factory=list)
    events: list[tuple[float, str, str]] = field(default_factory=list)
    successor: KeyPair | None = None

    @property
    def current_step(self) -> str | None:
        if self.step_index < len(self.steps):
            return self.steps[self.step_index]
        return None

    def timeline(self) -> list[str]:
        return [f"[{t:8.2f}s] {self.origin} {self.kind.value} "
                f"{step}: {detail}" for t, step, detail in self.events]


#: Settle time after a step promotes before the next release — the
#: pre-publish interval caches need to learn new DNSKEYs.
STEP_HOLD_SECONDS = 2.0
#: Seconds between looks at the release a step is waiting on.
WATCH_PERIOD = 1.0


class KeyRolloverController:
    """Runs rollover state machines over the release train."""

    def __init__(self, loop: EventLoop, coordinator: RolloutCoordinator,
                 signer: ZoneSigner) -> None:
        self.loop = loop
        self.coordinator = coordinator
        self.signer = signer
        self.history: list[RolloverState] = []
        self._saved_ring: tuple | None = None

    # -- public API ----------------------------------------------------

    def start(self, kind: RolloverKind) -> RolloverState:
        """Begin a rollover for the signer's zone; returns live state."""
        keys = self.signer.keys
        state = RolloverState(kind=kind, origin=keys.origin,
                              steps=ROLLOVER_STEPS[kind])
        self.history.append(state)
        self._saved_ring = (keys.zone_signer, keys.active_ksk,
                            list(keys.published), list(keys.dnskey_signers))
        role = FLAG_ZSK if kind is RolloverKind.ZSK_PREPUBLISH else FLAG_KSK
        state.successor = keys.mint(role)
        self._launch_step(state)
        return state

    # -- step execution ------------------------------------------------

    def _launch_step(self, state: RolloverState) -> None:
        step = state.current_step
        if step is None:
            self._finish(state, "complete", "all steps promoted")
            return
        base = self.coordinator.last_known_good.get(state.origin)
        if base is None:
            self._finish(state, "aborted",
                         f"no last-known-good zone for {state.origin}")
            return
        self._mutate_ring(state, step)
        candidate = _clone_with_bumped_serial(base)
        self.signer.sign(candidate, self.loop.now)
        release = self.coordinator.publish(candidate)
        state.release_ids.append(release.release_id)
        self._note(state, step, f"release {release.release_id} "
                                f"{release.phase.value}")
        if release.phase is RolloutPhase.REJECTED:
            self._abort(state, f"release rejected: {release.detail}")
            return
        self.loop.call_later(WATCH_PERIOD, self._watch, state, release)

    def _mutate_ring(self, state: RolloverState, step: str) -> None:
        keys = self.signer.keys
        successor = state.successor
        assert successor is not None
        if state.kind is RolloverKind.ZSK_PREPUBLISH:
            if step == "prepublish":
                keys.publish(successor)          # new DNSKEY, old signer
            elif step == "switch-signer":
                keys.zone_signer = successor     # both published, new signs
            elif step == "retire":
                old = next(k for k in keys.published
                           if k.flags == FLAG_ZSK and k is not successor)
                keys.withdraw(old)
        else:
            if step == "double-sign":
                keys.publish(successor)
                keys.dnskey_signers = [keys.active_ksk, successor]
            elif step == "retire":
                keys.withdraw(keys.active_ksk)
                keys.active_ksk = successor
                keys.dnskey_signers = [successor]

    def _watch(self, state: RolloverState, release: Release) -> None:
        if state.status != "running":
            return
        phase = release.phase
        if phase is RolloutPhase.CANARY:
            self.loop.call_later(WATCH_PERIOD, self._watch, state,
                                 release)
            return
        step = state.current_step or "?"
        if phase is RolloutPhase.PROMOTED:
            self._note(state, step, "promoted")
            state.step_index += 1
            self.loop.call_later(STEP_HOLD_SECONDS, self._launch_step,
                                 state)
            return
        self._abort(state, f"release {release.release_id} "
                           f"{phase.value}: {release.detail}")

    # -- terminal transitions ------------------------------------------

    def _abort(self, state: RolloverState, reason: str) -> None:
        keys = self.signer.keys
        if self._saved_ring is not None:
            (keys.zone_signer, keys.active_ksk,
             published, signers) = self._saved_ring
            keys.published = list(published)
            keys.dnskey_signers = list(signers)
        self._finish(state, "aborted", reason)

    def _finish(self, state: RolloverState, status: str,
                detail: str) -> None:
        state.status = status
        self._saved_ring = None
        self._note(state, state.current_step or "end", detail)

    def _note(self, state: RolloverState, step: str, detail: str) -> None:
        state.events.append((self.loop.now, step, detail))
        _telemetry.record("dnssec_rollover_steps_total", state.origin,
                          state.kind.value, step)


def _clone_with_bumped_serial(zone: Zone) -> Zone:
    """A content-equal copy with the SOA serial advanced by one.

    Each rollover step republishes the same zone data under new
    signatures; the serial bump keeps the update monotonic for the
    release validator, like any production re-sign.
    """
    clone = Zone(zone.origin)
    for rrset in zone.iter_rrsets():
        if rrset.rtype == RType.SOA:
            old = rrset.records[0].rdata
            assert isinstance(old, SOA)
            bumped = SOA(old.mname, old.rname, old.serial + 1, old.refresh,
                         old.retry, old.expire, old.minimum)
            copy = RRset(rrset.name, rrset.rtype, rrset.rclass, rrset.ttl)
            copy.add(ResourceRecord(rrset.name, rrset.rtype, rrset.rclass,
                                    rrset.ttl, bumped))
            clone.add_rrset(copy)
            continue
        copy = RRset(rrset.name, rrset.rtype, rrset.rclass, rrset.ttl)
        for record in rrset.records:
            copy.add(record)
        clone.add_rrset(copy)
    return clone
