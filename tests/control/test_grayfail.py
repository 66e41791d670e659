"""External gray-failure detection: conviction, probation, quorum.

A gray-failed machine keeps passing its *own* health suite — an
in-process call that never crosses the data path — while silently
corrupting, dropping, or freezing the answers real clients see. Only
the external prober can convict it: vantage points co-located at the
PoP routers issue real anycast queries, a differential auditor
cross-checks the answers against the machine's peers, and the verdict
state machine routes every suspension through the quorum coordinator,
then rejoins the machine via staged probation.

These tests drive full (small) deployments end to end so the probes
traverse the same netsim path as client traffic.
"""

from dataclasses import replace

import pytest

from repro.control.grayfail import PROBE_PERIOD, Verdict
from repro.control.pubsub import CDN_CHANNEL
from repro.dnscore import RType, Zone, make_rrset, name
from repro.netsim.builder import InternetParams
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.server.machine import MachineConfig, MachineState
from repro.server.pop import ResponseEnvelope

from ..resolver.test_wire_mode import (
    _empty_txt_rdata,
    _inflated_answer_count,
    _truncated,
)

AKAM_ORIGIN = name("akam.net")


def build(n_pops=6, machines_per_pop=1, seed=7,
          machine_config: MachineConfig | None = None):
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=seed, n_pops=n_pops, deployed_clouds=n_pops,
        machines_per_pop=machines_per_pop, pops_per_cloud=2,
        n_edge_servers=6,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=24),
        filters_enabled=False,
        machine_config=machine_config or MachineConfig()))
    deployment.settle(30)
    controller = deployment.enable_grayfail()
    return deployment, controller


def run_for(deployment, seconds):
    deployment.run_until(deployment.loop.now + seconds)


def gray_target(deployment, index=0):
    return deployment.regular_deployments()[index]


def akam_zone(deployment):
    return next(z for z in deployment.akamai_zones
                if z.origin == AKAM_ORIGIN)


def bumped_copy(zone, delta=1):
    """A copy of ``zone`` with its SOA serial advanced by ``delta``."""
    copy = Zone(zone.origin)
    soa = zone.soa
    rdata = soa.records[0].rdata
    copy.add_rrset(make_rrset(soa.name, RType.SOA, soa.ttl,
                              [replace(rdata, serial=rdata.serial + delta)]))
    for rrset in zone.iter_rrsets():
        if rrset.rtype is not RType.SOA:
            copy.add_rrset(rrset)
    return copy


class TestNoHarm:
    def test_prober_alone_never_churns_verdicts(self):
        deployment, controller = build()
        run_for(deployment, 60.0)
        assert controller.probes_sent > 0
        assert controller.convictions == 0
        assert controller.timeline == []
        assert all(controller.verdict(d.machine.machine_id)
                   is Verdict.HEALTHY
                   for d in deployment.regular_deployments())
        assert deployment.coordinator.active_suspensions() == set()


class TestConvictionLifecycle:
    def test_corrupt_machine_convicted_suspended_and_rejoined(self):
        deployment, controller = build()
        target = gray_target(deployment)
        machine = target.machine

        machine.set_gray_fault("corrupt")
        run_for(deployment, 20.0)

        # Convicted by external differential evidence (and possibly
        # already shadow-probed in probation by now)...
        assert controller.verdict(machine.machine_id) in \
            (Verdict.CONVICTED, Verdict.PROBATION)
        assert controller.convictions >= 1
        assert controller.detections, "detection latency must be recorded"
        # ...suspended through the quorum, never directly...
        assert controller.suspensions == 1
        assert machine.machine_id in \
            deployment.coordinator.active_suspensions()
        assert machine.state is MachineState.SUSPENDED
        assert not target.speaker.advertised
        # ...while the machine's own monitoring suite stays green: the
        # gray property. health_probe never crosses the data path.
        assert target.agent.run_suite().healthy

        # The fault heals; probation shadow-probes the suspended
        # machine and restores traffic after consecutive clean rounds.
        machine.set_gray_fault(None)
        run_for(deployment, 40.0)
        assert controller.rejoins == 1
        assert controller.verdict(machine.machine_id) is Verdict.HEALTHY
        assert machine.state is MachineState.RUNNING
        assert target.speaker.advertised
        assert deployment.coordinator.active_suspensions() == set()

    def test_probation_relapses_while_fault_persists(self):
        deployment, controller = build()
        machine = gray_target(deployment).machine
        machine.set_gray_fault("corrupt")
        # Long enough for conviction + probation entry + shadow probes
        # to observe the still-corrupt answers and re-convict.
        run_for(deployment, 40.0)
        assert controller.verdict(machine.machine_id) is Verdict.CONVICTED
        assert controller.rejoins == 0
        assert machine.state is MachineState.SUSPENDED
        # The relapse is visible in the timeline: probation entered,
        # then conviction again.
        verdicts = [v for _, mid, v in controller.timeline
                    if mid == machine.machine_id]
        assert "probation" in verdicts
        assert verdicts.count("convicted") >= 2


class TestGrayKinds:
    def test_blackhole_and_partial_drop_both_convicted(self):
        deployment, controller = build()
        deployments = deployment.regular_deployments()
        blackhole = deployments[0].machine
        lossy = deployments[1].machine
        blackhole.set_gray_fault("blackhole")
        lossy.set_gray_fault("partial_drop", severity=0.75)
        run_for(deployment, 25.0)
        assert controller.verdict(blackhole.machine_id) \
            is Verdict.CONVICTED
        assert controller.verdict(lossy.machine_id) is Verdict.CONVICTED
        assert blackhole.metrics.dropped_gray > 0
        assert lossy.metrics.dropped_gray > 0

    def test_stale_machine_convicted_after_grace(self):
        deployment, controller = build()
        machine = gray_target(deployment).machine
        machine.set_gray_fault("stale")
        # The fleet moves on to a newer serial; the stale machine's
        # installs silently no-op while it keeps reporting success.
        deployment.bus.publish_zone(CDN_CHANNEL, "akam.net",
                                    bumped_copy(akam_zone(deployment)))
        run_for(deployment, 28.0)
        # Inside the 30 s grace window lag is tolerated (zone pushes
        # take time to propagate legitimately).
        assert controller.verdict(machine.machine_id) is Verdict.HEALTHY
        run_for(deployment, 20.0)
        assert controller.verdict(machine.machine_id) is Verdict.CONVICTED
        assert any("behind fleet" in reason
                   for reason in controller.last_reasons(
                       machine.machine_id))


class TestQuorumGuard:
    def test_correlated_gray_faults_do_not_mass_suspend(self):
        deployment, controller = build(n_pops=8, seed=11)
        budget = deployment.coordinator.max_concurrent
        deployments = deployment.regular_deployments()
        liars = [d.machine for d in deployments[:budget + 1]]
        for machine in liars:
            machine.set_gray_fault("corrupt")
        run_for(deployment, 25.0)
        # All convicted, but the coordinator refuses to take more
        # capacity down than the budget allows.
        assert controller.convictions == len(liars)
        assert controller.suspensions == budget
        assert controller.denials >= 1
        suspended = [m for m in liars
                     if m.state is MachineState.SUSPENDED]
        assert len(suspended) == budget
        # Denied machines keep serving (degraded beats dark) and keep
        # retrying each round.
        serving = [d.machine for d in deployments
                   if d.machine.state is MachineState.RUNNING]
        assert len(serving) == len(deployments) - budget

        # Once the faults heal, everyone rejoins or is exonerated.
        for machine in liars:
            machine.set_gray_fault(None)
        run_for(deployment, 45.0)
        assert all(controller.verdict(d.machine.machine_id)
                   is Verdict.HEALTHY for d in deployments)
        assert all(d.machine.state is MachineState.RUNNING
                   for d in deployments)
        assert controller.rejoins == budget
        assert deployment.coordinator.active_suspensions() == set()


class TestLeaseLifecycle:
    def test_crash_while_suspended_releases_grayfail_lease(self):
        deployment, controller = build()
        machine = gray_target(deployment).machine
        machine.set_gray_fault("corrupt")
        run_for(deployment, 20.0)
        assert machine.machine_id in \
            deployment.coordinator.active_suspensions()

        machine.set_gray_fault(None)
        machine.crash()
        # The crash listener must free the quorum slot immediately —
        # a crash-looping machine must not pin the suspension budget.
        assert machine.machine_id not in \
            deployment.coordinator.active_suspensions()
        assert controller.verdict(machine.machine_id) is Verdict.HEALTHY
        # After the restart timer the machine comes back and the
        # prober holds a clean verdict.
        run_for(deployment, 40.0)
        assert machine.state is MachineState.RUNNING
        assert controller.verdict(machine.machine_id) is Verdict.HEALTHY

    def test_rollback_delivery_reaches_machine_in_probation(self):
        deployment, controller = build()
        machine = gray_target(deployment).machine
        machine.set_gray_fault("corrupt")
        run_for(deployment, 16.0)
        assert machine.state is MachineState.SUSPENDED

        # A zone rollback (serial bump republish) lands while the
        # machine sits in probation: metadata delivery must not depend
        # on suspension state, or rejoining machines would serve the
        # very release that was rolled back.
        machine.set_gray_fault(None)
        fixed = bumped_copy(akam_zone(deployment))
        deployment.bus.publish_zone(CDN_CHANNEL, "akam.net", fixed)
        run_for(deployment, 40.0)
        assert machine.engine.store.get(AKAM_ORIGIN).serial \
            == fixed.serial
        assert controller.verdict(machine.machine_id) is Verdict.HEALTHY
        assert machine.state is MachineState.RUNNING
        assert deployment.coordinator.active_suspensions() == set()


class TestMalformedResponses:
    """The mutations of tests/resolver/test_wire_mode.py, delivered to a
    probe vantage in wire mode: dropped and counted, never raised into
    the event loop; the machine shows one unanswered probe that round."""

    @pytest.mark.parametrize("mutate", [_truncated, _inflated_answer_count,
                                        _empty_txt_rdata])
    def test_dropped_counted_and_probe_left_unanswered(self, mutate):
        # Two bad rounds in a row make a suspect, so one machine loses
        # a probe in each of two rounds: the drops are visible on the
        # timeline and two clean rounds clear them.
        deployment, controller = build(
            machine_config=MachineConfig(wire_responses=True))
        network = deployment.network
        loop = deployment.loop
        deliver = network.send
        corrupted = []   # (time, machine id)

        def corrupt_one_response_in_each_of_two_rounds(dgram):
            if (len(corrupted) < 2 and dgram.dst.startswith("gray-vp-")
                    and isinstance(dgram.payload, ResponseEnvelope)
                    and (not corrupted or (
                        dgram.payload.machine_id == corrupted[0][1]
                        and loop.now - corrupted[0][0] > PROBE_PERIOD / 2))):
                corrupted.append((loop.now, dgram.payload.machine_id))
                dgram.payload.wire = mutate(dgram.payload.wire)
            deliver(dgram)

        network.send = corrupt_one_response_in_each_of_two_rounds
        run_for(deployment, 30.0)

        (first_drop, victim), (_, again) = corrupted
        assert again == victim
        assert controller.malformed_responses == 2
        assert controller.last_reasons(victim)[0].startswith("answered ")
        assert [(m, v) for _t, m, v in controller.timeline] == [
            (victim, "suspect"), (victim, "exonerated"),
            (victim, "healthy")]
        # Suspect at the audit of the second bad round, not the first;
        # cleared at the audit of the second clean one.
        suspected, cleared, _ = (t for t, _m, _v in controller.timeline)
        assert PROBE_PERIOD < suspected - first_drop <= 2 * PROBE_PERIOD
        assert cleared - suspected == 2 * PROBE_PERIOD
        assert controller.convictions == 0
