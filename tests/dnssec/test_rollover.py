"""Tests for RFC 6781 key rollovers run through the release train."""

import random

from repro.control.pubsub import CDN_CHANNEL, MetadataBus
from repro.control.rollout import RolloutCoordinator, RolloutParams
from repro.dnscore import A, RType, SOA, make_rrset, make_zone, name
from repro.dnssec.keys import FLAG_KSK, FLAG_ZSK, KeyRing
from repro.dnssec.rollover import (
    KeyRolloverController,
    RolloverKind,
    ROLLOVER_STEPS,
)
from repro.dnssec.sign import ZoneSigner, covering_rrsigs, verify_rrsig
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import EventLoop
from repro.server import (
    AuthoritativeEngine,
    MachineConfig,
    NameserverMachine,
    ZoneStore,
)

ORIGIN = name("r.example")
PARAMS = RolloutParams(soak_seconds=10.0, check_period=1.0)


def baseline_zone(serial=1):
    z = make_zone(ORIGIN,
                  SOA(name("ns1.r.example"), name("admin.r.example"),
                      serial, 7200, 3600, 1209600, 300),
                  [name("ns1.akam.net")])
    z.add_rrset(make_rrset(name("www.r.example"), RType.A, 300,
                           [A("10.0.0.1")]))
    return z


class SignedTrain:
    """Release train whose baseline zone is signed; see test_rollout."""

    def __init__(self, n_canaries=2, n_rest=3, seed=7):
        self.loop = EventLoop()
        self.bus = MetadataBus(self.loop, random.Random(7))
        self.machines = []
        for i in range(n_canaries + n_rest):
            machine = NameserverMachine(
                self.loop, f"m{i}", AuthoritativeEngine(ZoneStore()),
                ScoringPipeline([]), QueuePolicy(),
                MachineConfig(zone_guard_enabled=True,
                              staleness_threshold=float("inf")))
            machine.metadata_handlers["zone"] = machine.handle_zone_update
            self.bus.subscribe(CDN_CHANNEL, machine)
            self.machines.append(machine)
        self.canaries = self.machines[:n_canaries]
        self.coordinator = RolloutCoordinator(
            self.loop, self.bus, canaries=self.canaries,
            fleet=self.machines, params=PARAMS)
        self.keys = KeyRing(seed, ORIGIN)
        self.signer = ZoneSigner(self.keys)
        self.baseline = baseline_zone()
        self.signer.sign(self.baseline, self.loop.now)
        for machine in self.machines:
            machine.install_zone(self.baseline)
        self.coordinator.set_baseline(self.baseline)
        self.controller = KeyRolloverController(
            self.loop, self.coordinator, self.signer)

    def fleet_dnskey_tags(self):
        """Per-machine sets of DNSKEY tags actually being served."""
        out = []
        for machine in self.machines:
            zone = machine.engine.store.get(ORIGIN)
            rrset = zone.get_rrset(ORIGIN, RType.DNSKEY)
            out.append({r.rdata.key_tag() for r in rrset.records})
        return out

    def served_zone(self, machine=0):
        return self.machines[machine].engine.store.get(ORIGIN)


class TestZskPrepublish:
    def test_three_steps_promote_and_switch_signer(self):
        train = SignedTrain()
        old_zsk = train.keys.zone_signer
        state = train.controller.start(RolloverKind.ZSK_PREPUBLISH)
        assert state.steps == ROLLOVER_STEPS[RolloverKind.ZSK_PREPUBLISH]
        train.loop.run_until(120.0)
        assert state.status == "complete"
        assert len(state.release_ids) == 3
        successor = state.successor
        assert train.keys.zone_signer is successor
        assert old_zsk not in train.keys.published
        # The whole fleet serves the successor's DNSKEY, not the old ZSK.
        for tags in train.fleet_dnskey_tags():
            assert successor.key_tag in tags
            assert old_zsk.key_tag not in tags

    def test_final_zone_verifies_under_new_zsk(self):
        train = SignedTrain()
        train.controller.start(RolloverKind.ZSK_PREPUBLISH)
        train.loop.run_until(120.0)
        zone = train.served_zone()
        dnskeys = [r.rdata for r in
                   zone.get_rrset(ORIGIN, RType.DNSKEY).records]
        rrset = zone.get_rrset(name("www.r.example"), RType.A)
        sig = covering_rrsigs(zone, rrset.name, RType.A).records[0].rdata
        assert sig.key_tag == train.keys.zone_signer.key_tag
        assert verify_rrsig(rrset, sig, dnskeys, train.loop.now) is None

    def test_prepublish_interval_serves_both_dnskeys(self):
        train = SignedTrain()
        old_zsk = train.keys.zone_signer
        state = train.controller.start(RolloverKind.ZSK_PREPUBLISH)
        # After step 1 promotes but before step 3: successor published,
        # old key still present (caches may hold either).
        train.loop.run_until(14.0)
        assert state.step_index >= 1
        canary_tags = train.fleet_dnskey_tags()[0]
        assert old_zsk.key_tag in canary_tags
        assert state.successor.key_tag in canary_tags


class TestKskDoubleSignature:
    def test_two_steps_hand_over_the_sep(self):
        train = SignedTrain()
        old_ksk = train.keys.active_ksk
        state = train.controller.start(RolloverKind.KSK_DOUBLE_SIGNATURE)
        train.loop.run_until(120.0)
        assert state.status == "complete"
        assert len(state.release_ids) == 2
        assert train.keys.active_ksk is state.successor
        assert train.keys.dnskey_signers == [state.successor]
        assert old_ksk not in train.keys.published

    def test_double_signature_window_covers_both_ksks(self):
        train = SignedTrain()
        old_ksk = train.keys.active_ksk
        state = train.controller.start(RolloverKind.KSK_DOUBLE_SIGNATURE)
        train.loop.run_until(14.0)   # step 1 promoted, step 2 not yet
        assert state.step_index == 1
        zone = train.served_zone()
        sigs = covering_rrsigs(zone, ORIGIN, RType.DNSKEY)
        tags = {r.rdata.key_tag for r in sigs.records}
        assert tags == {old_ksk.key_tag, state.successor.key_tag}

    def test_final_dnskey_signed_by_successor_only(self):
        train = SignedTrain()
        state = train.controller.start(RolloverKind.KSK_DOUBLE_SIGNATURE)
        train.loop.run_until(120.0)
        zone = train.served_zone()
        sigs = covering_rrsigs(zone, ORIGIN, RType.DNSKEY)
        tags = {r.rdata.key_tag for r in sigs.records}
        assert tags == {state.successor.key_tag}
        dnskeys = [r.rdata for r in
                   zone.get_rrset(ORIGIN, RType.DNSKEY).records]
        rrset = zone.get_rrset(ORIGIN, RType.DNSKEY)
        assert verify_rrsig(rrset, sigs.records[0].rdata, dnskeys,
                            train.loop.now) is None


class TestAbort:
    def test_no_baseline_aborts_and_restores_ring(self):
        train = SignedTrain()
        # A coordinator that never learned a last-known-good zone.
        fresh = RolloutCoordinator(train.loop, train.bus,
                                   canaries=train.canaries,
                                   fleet=train.machines, params=PARAMS)
        controller = KeyRolloverController(train.loop, fresh, train.signer)
        before = (train.keys.zone_signer, list(train.keys.published))
        state = controller.start(RolloverKind.ZSK_PREPUBLISH)
        assert state.status == "aborted"
        assert "no last-known-good" in state.events[-1][2]
        assert train.keys.zone_signer is before[0]
        assert train.keys.published == before[1]

    def test_timeline_is_human_readable(self):
        train = SignedTrain()
        state = train.controller.start(RolloverKind.ZSK_PREPUBLISH)
        train.loop.run_until(120.0)
        lines = state.timeline()
        assert len(lines) == len(state.events)
        assert any("promoted" in line for line in lines)
