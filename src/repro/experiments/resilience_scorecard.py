"""Platform resilience scorecard: chaos campaigns vs. SLO targets.

The paper's core claim is not a figure but a property: "Akamai DNS
[...] serves as a life line" and must hold answers available through
"failures of infrastructure", "network partitions that disconnect
subsets of [the] platform from the rest of the Internet", and
operational faults — via the resiliency ladder of section 4.2 (anycast
failover, self-suspension with quorum, staleness checks, input-delayed
machines).

This experiment grades that property directly. Each standard campaign
injects one failure mode (plus one combined "everything at once"
campaign) into a freshly built 24-cloud deployment while an SLO probe
issues steady legitimate queries; the scorecard rows compare measured
worst-window availability and post-clear time-to-recovery against the
targets each resilience mechanism implies. Runs are pure functions of
the seed: rerunning with the same seed reproduces every fault edge,
probe, and scorecard digit bit-for-bit.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..analysis.report import ExperimentResult
from ..chaos import (
    Campaign,
    ChaosEngine,
    FaultKind,
    FaultSpec,
    Schedule,
    SLOProbe,
    SLOReport,
)
from ..chaos.probe import WINDOW as PROBE_WINDOW
from ..control.defense import (
    ATTACK_QPS_ALERT,
    DefenseController,
    FilterInsertRung,
    FirewallRuleRung,
    QueueTightenRung,
    TrafficEngRung,
    known_resolver_estimator,
)
from ..control.rollout import RolloutParams, RolloutPhase
from ..dnscore.name import name
from ..dnscore.rrtypes import RCode, RType
from ..filters.ratelimit import RateLimitFilter
from ..netsim.builder import InternetParams
from ..platform.deployment import AkamaiDNSDeployment, DeploymentParams
from ..platform.traffic_eng import AttackSituation, TrafficEngineer
from ..server.machine import MachineConfig
from ..telemetry import (
    AlertSeverity,
    RateDetector,
    RatioDetector,
    Telemetry,
    TelemetryConfig,
)
from ..telemetry import state as _telemetry_state

PROBE_ZONE = "slozone.net"
#: Zone a chaos-campaign flood pretends to resolve: provisioned (so the
#: attack is the paper's pseudo-random-subdomain class — real zone,
#: nonexistent names) but never probed, so a firewall rung targeting it
#: has zero probe collateral.
VICTIM_ZONE = "victim.net"
#: Soak of the deliberately over-broad firewall rung in the guardrail
#: campaign; the auto-revert must land within it.
OVERBLOCK_SOAK = 8.0
WARMUP = 20.0              # healthy baseline before the first fault
COOLDOWN = 30.0            # post-campaign window so recovery is observable
#: Canary soak window of the rollout campaigns. Long enough that the
#: full detect->rollback->redeliver chain (worst-case CDN delivery of
#: the corrupt zone ~20s + one gate window + worst-case delivery of the
#: rollback ~20s) completes *within* the soak, which is what the
#: blast-radius SLO asserts.
ROLLOUT_SOAK = 45.0


#: Recovery budget every campaign must meet (availability targets are
#: per-campaign, in :class:`CampaignSLO`).
MAX_RECOVERY_SECONDS = 25.0
#: What "a visible dip" means, once: more than this share of one probe
#: window's probes failing (four of the twenty a window holds at paper
#: scale, two of ten at ``--fast``). It is the probe-failure detector's
#: threshold and the bound the grader holds the worst window to, so a
#: dip the availability row accepts is one the detection row can see.
VISIBLE_DIP_RATIO = 0.15
#: Budget from first fault injection to the telemetry pipeline's
#: probe-failure alert, for campaigns that expect a visible dip.
#: Measured from *injection*, so it includes fault-propagation time (a
#: corrupted zone publishing to the fleet) and the stretch where the
#: resiliency ladder still absorbs the fault invisibly (the combined
#: storm's crash loops are masked by the input-delayed machine until its
#: PoP is partitioned too) — not just the detector's window latency.
MAX_DETECTION_SECONDS = 30.0
#: Escalation levels the ladder must reach under sustained attack.
DEFENSE_MIN_CLIMB = 3
#: Known-resolver availability floor from the first rung engaging to the
#: attack ending.
DEFENSE_FLOOR = 0.60
#: Budget from the flood stopping to the ladder back at level 0.
DEFENSE_UNWIND_SECONDS = 30.0
#: Fleet availability floor over the gray-fault window in the
#: quorum-guard campaign (degraded-but-serving beats dark).
GRAY_FLOOR = 0.50


@dataclass(slots=True)
class ScorecardParams:
    """Scale knobs; defaults match the paper-scale 24-cloud platform."""

    seed: int = 42
    internet: InternetParams = field(
        default_factory=lambda: InternetParams(n_tier1=5, n_tier2=16,
                                               n_stub=48))
    n_pops: int = 24
    deployed_clouds: int = 24
    machines_per_pop: int = 2
    n_edge_servers: int = 24
    probe_period: float = 0.25

    @classmethod
    def fast(cls, seed: int = 42) -> "ScorecardParams":
        """Shrunk platform for smoke runs (``--fast``, ``make chaos``)."""
        return cls(seed=seed,
                   internet=InternetParams(n_tier1=4, n_tier2=10,
                                           n_stub=30),
                   n_pops=8, deployed_clouds=8, machines_per_pop=1,
                   n_edge_servers=8, probe_period=0.5)


@dataclass(slots=True)
class CampaignSLO:
    """What a specific campaign is allowed to cost users.

    Most failure modes must be absorbed nearly invisibly (the
    resiliency ladder exists exactly for them); zone corruption and the
    combined storm are *expected* to dip — a dip that the probe fails
    to see would mean the measurement is broken, so ``expect_dip``
    asserts the degradation too.
    """

    min_overall: float = 0.97
    min_worst_window: float = 0.50
    expect_dip: bool = False
    #: Build the campaign's deployment with the safe-rollout train and
    #: per-machine zone guard enabled (control.rollout).
    rollout: bool = False
    #: Grade blast-radius containment: no machine outside the canary
    #: cohort may ever serve a wrong answer for the probe zone, at
    #: least one canary must (proving the corruption actually landed),
    #: and the automatic rollback must complete within the soak window.
    contain_blast: bool = False
    #: Grade validator rejection: exactly this many releases must be
    #: rejected up front, with zero machines serving a wrong answer.
    expect_reject: int = 0
    #: Grade canary containment of a release that *passes* validation
    #: but goes bogus while soaking (DNSSEC signature expiry): the
    #: canary health gate must trip and the rollback must land within
    #: the soak window, while the data plane — every non-validating
    #: client — never sees a wrong answer or a dip.
    expect_rollback: bool = False
    #: Arm the closed-loop defense ladder (control.defense) on this
    #: campaign's deployment and grade detection, climb, the
    #: legitimate-availability floor while mitigations hold, and the
    #: full symmetric unwind after the attack ends.
    defense: bool = False
    #: Prepend a deliberately over-broad firewall rung (it drops the
    #: probe zone itself) and grade that the collateral-damage guardrail
    #: auto-reverts and latches it within its soak window.
    defense_overblock: bool = False
    #: Enable the external gray-failure prober (control.grayfail) on
    #: this campaign's deployment and grade conviction through the
    #: suspension quorum, self-monitor blindness, detection latency,
    #: and probationary rejoin.
    gray: bool = False
    #: Grade the quorum guard instead of single-machine conviction:
    #: correlated gray faults beyond the suspension budget must NOT
    #: mass-suspend — suspensions stay within budget, at least one
    #: request is denied, and the fleet degrades but keeps serving.
    gray_quorum_guard: bool = False


@dataclass(slots=True)
class CampaignOutcome:
    """One campaign's measured resilience."""

    campaign: Campaign
    report: SLOReport
    recoveries: list[tuple[str, float, float | None]]  # (fault, clear, ttr)
    fault_log: str
    #: Seconds from the first fault injection to the telemetry
    #: pipeline's probe-failure alert; None when no alert fired (the
    #: resiliency ladder absorbed the fault below the SLO surface).
    detection_seconds: float | None = None
    #: machine_id -> first time it served a wrong answer for the probe
    #: zone (rollout campaigns only; empty otherwise).
    blast: dict[str, float] = field(default_factory=dict)
    #: The deployment's canary cohort (rollout campaigns only).
    canary_ids: tuple[str, ...] = ()
    #: Seconds from publishing the corrupt release to the last canary
    #: installing the rollback; None when no rollback happened.
    rollback_complete_seconds: float | None = None
    #: Releases the rollout validator rejected before any publish.
    rollout_rejections: int = 0
    #: Defense-ladder measurements (defense campaigns only).
    defense_max_level: int = 0
    defense_final_level: int = 0
    defense_reverts: int = 0
    #: Seconds from the first flood inject to the attack-qps alert.
    defense_attack_detect_seconds: float | None = None
    #: When the first rung engaged / the last flood cleared / the
    #: ladder last returned to level 0 (loop-absolute seconds).
    defense_engaged_at: float | None = None
    defense_attack_end: float | None = None
    defense_unwound_at: float | None = None
    #: Engage-to-revert delta of the first guardrail-reverted rung.
    defense_revert_after: float | None = None
    defense_timeline: list[str] = field(default_factory=list)
    #: Gray-failure prober measurements (gray campaigns only).
    gray_convictions: int = 0
    gray_suspensions: int = 0
    gray_denials: int = 0
    gray_rejoins: int = 0
    gray_budget: int = 0
    #: verdict value -> machine count when the campaign ended.
    gray_final_verdicts: dict[str, int] = field(default_factory=dict)
    #: Seconds from the first gray inject to the first conviction.
    gray_ttd_seconds: float | None = None
    #: Slowest first-differential-evidence-to-conviction latency.
    gray_detection_latency: float | None = None
    #: machine_id -> its *own* health suite verdict at conviction time
    #: (True == still calling itself healthy: the gray property).
    gray_self_healthy: dict[str, bool] = field(default_factory=dict)
    #: (first inject, last clear) across the campaign's gray faults.
    gray_window: tuple[float, float] | None = None

    @property
    def worst_recovery(self) -> float | None:
        """Slowest measured recovery; None if the campaign never recovers.

        Mid-campaign clears can be masked by faults still active (their
        TTR is None because recovery was impossible, not slow) — only
        the *final* clear decides whether the platform came back.
        """
        if not self.recoveries:
            return 0.0
        final = max(self.recoveries, key=lambda r: r[1])
        if final[2] is None:
            return None
        measured = [ttr for _, _, ttr in self.recoveries if ttr is not None]
        return max(measured)


class SuiteEntry(NamedTuple):
    """One suite row: what is known about a campaign without a world.

    ``slo`` carries the platform build flags (``rollout`` / ``defense``
    / ``gray``), so :func:`run_campaign` knows which platform to build;
    ``bind`` then picks the campaign's targets deterministically off
    *that* platform (first PoPs, one whole cloud's PoP set, sorted
    machine ids), so the suite itself is part of the seed. The bound
    campaign is named ``name``; :func:`run_campaign` gives it the seed.
    """

    name: str
    slo: CampaignSLO
    bind: Callable[[AkamaiDNSDeployment], Campaign]


def _probe_clouds(deployment: AkamaiDNSDeployment):
    """The probed enterprise's delegation and its first deployed cloud."""
    delegation = deployment.assigner.assign("slo-enterprise")
    return delegation, next(c for c in delegation if c in deployment.clouds)


def _pop_loss(deployment: AkamaiDNSDeployment) -> Campaign:
    c = Campaign("pop-loss", duration=70.0,
                 description="one PoP partitioned off the Internet; "
                             "anycast reroutes to surviving PoPs")
    return c.add(FaultSpec(FaultKind.PARTITION, sorted(deployment.pops)[0],
                           Schedule.once(WARMUP, 25.0)))


def _machine_attrition(deployment: AkamaiDNSDeployment) -> Campaign:
    pops = sorted(deployment.pops)
    c = Campaign("machine-attrition", duration=80.0,
                 description="machines crash across two PoPs; restart "
                             "timers and quorum-bounded suspension recover")
    c.add(FaultSpec(FaultKind.MACHINE_CRASH, pops[0],
                    Schedule.once(WARMUP, 20.0)))
    return c.add(FaultSpec(FaultKind.MACHINE_CRASH, pops[1],
                           Schedule.once(WARMUP + 10.0, 20.0)))


def _metadata_freeze(deployment: AkamaiDNSDeployment) -> Campaign:
    c = Campaign("metadata-freeze", duration=80.0,
                 description="publisher-side metadata freeze; staleness "
                             "clocks run but answers keep flowing")
    return c.add(FaultSpec(FaultKind.METADATA_FREEZE, "platform",
                           Schedule.once(WARMUP, 30.0)))


def _bgp_churn(deployment: AkamaiDNSDeployment) -> Campaign:
    pops = sorted(deployment.pops)
    c = Campaign("bgp-churn", duration=80.0,
                 description="control-plane resets and a degraded uplink "
                             "while the data plane stays up")
    c.add(FaultSpec(FaultKind.BGP_RESET, pops[2],
                    Schedule.periodic(WARMUP, 15.0, 6.0, 2)))
    return c.add(FaultSpec(FaultKind.LINK_DEGRADE, pops[1], severity=0.3,
                           schedule=Schedule.once(WARMUP + 5.0, 25.0)))


def _zone_corruption(deployment: AkamaiDNSDeployment) -> Campaign:
    c = Campaign("zone-corruption", duration=80.0,
                 description="truncated zone transfer installs cleanly, "
                             "serves NXDOMAIN invisibly to SOA probes, "
                             "then republication restores contents")
    return c.add(FaultSpec(FaultKind.ZONE_CORRUPTION, PROBE_ZONE,
                           Schedule.once(WARMUP, 25.0)))


def _combined_storm(deployment: AkamaiDNSDeployment) -> Campaign:
    pops = sorted(deployment.pops)
    # Every PoP advertising the probed enterprise's first assigned
    # cloud: taking all of them out at once defeats anycast failover
    # *within* the cloud and forces the resolver to fail over *across*
    # clouds — the visible-degradation case.
    cloud_pops = deployment.cloud_pops[_probe_clouds(deployment)[1].index]
    c = Campaign("combined-storm", duration=110.0,
                 description="crash loops across a whole cloud, its "
                             "input-delayed refuge partitioned, pubsub "
                             "partition + link flaps on top: graceful "
                             "degradation, then full recovery")
    for pop_id in cloud_pops:
        c.add(FaultSpec(FaultKind.CRASH_LOOP, pop_id,
                        Schedule.once(WARMUP, 35.0)))
    # The cloud's first PoP hosts its input-delayed machine — the
    # machine that would otherwise keep the cloud answering through the
    # crash loop (section 4.2.3 working as designed). Partitioning that
    # PoP darkens the whole cloud, so the dip becomes client-visible.
    c.add(FaultSpec(FaultKind.PARTITION, cloud_pops[0],
                    Schedule.once(WARMUP + 4.0, 30.0)))
    c.add(FaultSpec(FaultKind.PUBSUB_PARTITION, pops[1],
                    Schedule.once(WARMUP + 5.0, 35.0)))
    c.add(FaultSpec(FaultKind.LINK_FLAP, pops[2],
                    Schedule.periodic(WARMUP + 2.0, 12.0, 5.0, 3)))
    return c.add(FaultSpec(FaultKind.SLOW_IO, pops[0], severity=0.5,
                           schedule=Schedule.once(WARMUP + 8.0, 30.0)))


def _defense_ladder(deployment: AkamaiDNSDeployment) -> Campaign:
    prefix = _probe_clouds(deployment)[1].prefix
    c = Campaign("defense-ladder", duration=110.0,
                 description="escalating random-subdomain flood at the "
                             "probe zone's cloud; the defense ladder "
                             "detects, climbs rung by rung, contains the "
                             "attack, then fully unwinds")
    c.add(FaultSpec(FaultKind.ATTACK_FLOOD, prefix,
                    Schedule.once(WARMUP, 30.0), severity=250.0,
                    note=VICTIM_ZONE))
    return c.add(FaultSpec(FaultKind.ATTACK_FLOOD, prefix,
                           Schedule.once(WARMUP + 30.0, 30.0),
                           severity=500.0, note=VICTIM_ZONE))


def _defense_guardrail(deployment: AkamaiDNSDeployment) -> Campaign:
    # A cloud *outside* the probe zone's delegation: attacking it leaves
    # legitimate traffic untouched (attack damage ~0), so an over-broad
    # mitigation is the only thing shedding good traffic — the cleanest
    # possible guardrail trip.
    delegation, probe_cloud = _probe_clouds(deployment)
    offside_cloud = next((c for c in deployment.clouds
                          if c not in delegation), probe_cloud)
    c = Campaign("defense-guardrail", duration=90.0,
                 description="flood at a cloud outside the probe zone's "
                             "delegation; a deliberately over-broad "
                             "firewall rung sheds good traffic and the "
                             "collateral-damage guardrail reverts and "
                             "latches it, then the safe rungs climb")
    return c.add(FaultSpec(FaultKind.ATTACK_FLOOD, offside_cloud.prefix,
                           Schedule.once(WARMUP, 40.0), severity=300.0,
                           note=VICTIM_ZONE))


def _rollout_containment(deployment: AkamaiDNSDeployment) -> Campaign:
    c = Campaign("rollout-containment", duration=90.0,
                 description="semantically valid but content-corrupt zone "
                             "rides the rollout train; canary probes trip "
                             "the health gate and the rollback lands "
                             "before the fleet ever sees it")
    # "renamed" keeps the SOA/NS apex intact and bumps the serial, so
    # the validator passes it — only the canary health gate stands
    # between it and the fleet. That is the blast-radius case.
    return c.add(FaultSpec(FaultKind.BAD_ZONE_PUBLISH, PROBE_ZONE,
                           Schedule.once(WARMUP, 55.0), note="renamed"))


def _rollout_validation(deployment: AkamaiDNSDeployment) -> Campaign:
    c = Campaign("rollout-validation", duration=70.0,
                 description="regressive, truncated and SOA-less zone "
                             "updates are all rejected by the validator "
                             "before a single machine sees them")
    c.add(FaultSpec(FaultKind.BAD_ZONE_PUBLISH, PROBE_ZONE,
                    Schedule.once(WARMUP, 8.0), note="regressive"))
    c.add(FaultSpec(FaultKind.BAD_ZONE_PUBLISH, PROBE_ZONE,
                    Schedule.once(WARMUP + 12.0, 8.0), note="truncated"))
    return c.add(FaultSpec(FaultKind.BAD_ZONE_PUBLISH, PROBE_ZONE,
                           Schedule.once(WARMUP + 24.0, 8.0),
                           note="missing-soa"))


def _dnssec_expiry_rollback(deployment: AkamaiDNSDeployment) -> Campaign:
    c = Campaign("dnssec-expiry-rollback", duration=90.0,
                 description="a correctly signed zone whose RRSIGs lapse "
                             "mid-soak rides the rollout train; canary "
                             "probes go bogus, the health gate trips, "
                             "and the rollback lands inside the soak "
                             "window with zero client-visible damage")
    # Validity (severity) must leave room for gate detection plus
    # worst-case rollback delivery inside the ROLLOUT_SOAK window.
    return c.add(FaultSpec(FaultKind.SIGNATURE_EXPIRY, PROBE_ZONE,
                           Schedule.once(WARMUP, 8.0), severity=15.0))


def _dnssec_key_mismatch(deployment: AkamaiDNSDeployment) -> Campaign:
    c = Campaign("dnssec-key-mismatch-reject", duration=70.0,
                 description="a zone signed by keys its DNSKEY RRset "
                             "does not publish is rejected by the "
                             "validator before any canary serves it")
    return c.add(FaultSpec(FaultKind.KEY_MISMATCH, PROBE_ZONE,
                           Schedule.once(WARMUP, 8.0)))


def _gray_machines(deployment: AkamaiDNSDeployment) -> list[str]:
    return sorted(d.machine.machine_id
                  for d in deployment.regular_deployments())


def _gray_corruption(deployment: AkamaiDNSDeployment) -> Campaign:
    c = Campaign("gray-corruption", duration=95.0,
                 description="one machine silently strips every answer "
                             "section while its own health probes stay "
                             "green; the external prober convicts it by "
                             "differential comparison, the quorum "
                             "suspends it, and probation rejoins it "
                             "after the fault clears")
    return c.add(FaultSpec(FaultKind.GRAY_CORRUPT,
                           _gray_machines(deployment)[0],
                           Schedule.once(WARMUP, 35.0)))


def _gray_quorum_guard(deployment: AkamaiDNSDeployment) -> Campaign:
    machine_ids = _gray_machines(deployment)
    budget = deployment.coordinator.max_concurrent
    # More gray machines than the coordinator will ever suspend at
    # once, but still a strict minority of the probed fleet (the
    # majority-answer reference needs honest peers to out-vote liars).
    correlated = min(budget + 2, (len(machine_ids) - 1) // 2)
    c = Campaign("gray-quorum-guard", duration=100.0,
                 description=f"{correlated} machines go gray at once — "
                             f"beyond the suspension budget of {budget}; "
                             "the quorum refuses to mass-suspend and the "
                             "fleet degrades but keeps serving")
    for machine_id in machine_ids[:correlated]:
        c.add(FaultSpec(FaultKind.GRAY_CORRUPT, machine_id,
                        Schedule.once(WARMUP, 40.0)))
    return c


#: suite name -> its campaigns, in scorecard order. The opt-in suites
#: are kept out of ``standard`` so the standard scorecard's output stays
#: byte-identical whether or not their subsystems are exercised.
SUITES: dict[str, tuple[SuiteEntry, ...]] = {
    # The fixed suite every scorecard run grades: one failure mode
    # each, plus one combined "everything at once" campaign.
    "standard": (
        SuiteEntry("pop-loss", CampaignSLO(), _pop_loss),
        SuiteEntry("machine-attrition", CampaignSLO(), _machine_attrition),
        SuiteEntry("metadata-freeze", CampaignSLO(), _metadata_freeze),
        SuiteEntry("bgp-churn", CampaignSLO(), _bgp_churn),
        SuiteEntry("zone-corruption",
                   CampaignSLO(min_overall=0.55, min_worst_window=0.0,
                               expect_dip=True), _zone_corruption),
        SuiteEntry("combined-storm",
                   CampaignSLO(min_overall=0.80, min_worst_window=0.30,
                               expect_dip=True), _combined_storm),
        SuiteEntry("defense-ladder",
                   CampaignSLO(min_overall=0.70, min_worst_window=0.0,
                               defense=True), _defense_ladder),
        SuiteEntry("defense-guardrail",
                   CampaignSLO(min_overall=0.80, min_worst_window=0.0,
                               expect_dip=True, defense=True,
                               defense_overblock=True), _defense_guardrail),
        SuiteEntry("rollout-containment",
                   CampaignSLO(min_overall=0.55, min_worst_window=0.0,
                               rollout=True, contain_blast=True),
                   _rollout_containment),
        SuiteEntry("rollout-validation",
                   CampaignSLO(rollout=True, expect_reject=3),
                   _rollout_validation),
    ),
    # ``--dnssec`` brackets the two ways a key rollover goes wrong:
    # dynamically detectable only (signatures valid at publish, lapsing
    # mid-soak — the canary health gate is the only line of defense,
    # and containment must be invisible to non-validating clients) and
    # statically detectable (zone signed by unpublished keys — the
    # validator must reject it before any machine sees it).
    "dnssec": (
        SuiteEntry("dnssec-expiry-rollback",
                   CampaignSLO(rollout=True, expect_rollback=True),
                   _dnssec_expiry_rollback),
        SuiteEntry("dnssec-key-mismatch-reject",
                   CampaignSLO(rollout=True, expect_reject=1),
                   _dnssec_key_mismatch),
    ),
    # ``--gray`` brackets the two failure modes that matter for gray
    # faults: a single machine silently corrupting answers while its
    # own health probes stay green (only external differential probing
    # can see it, and the response must route through the suspension
    # quorum, then probation, then rejoin), and correlated gray faults
    # on *more* machines than the suspension budget allows (the quorum
    # coordinator must refuse to mass-suspend, because a degraded
    # platform that answers beats a "clean" platform that is dark —
    # section 4.2.2's capacity bound).
    "gray": (
        SuiteEntry("gray-corruption",
                   CampaignSLO(min_overall=0.70, min_worst_window=0.0,
                               gray=True), _gray_corruption),
        SuiteEntry("gray-quorum-guard",
                   CampaignSLO(min_overall=0.55, min_worst_window=0.0,
                               gray=True, gray_quorum_guard=True),
                   _gray_quorum_guard),
    ),
}


class _BlastRecorder:
    """Observes every machine's responses, recording wrong answers.

    A "wrong answer" is a response to a concrete name strictly under
    the probe zone (the wildcard guarantees every such A query a
    NOERROR answer from a healthy zone) that is NXDOMAIN, SERVFAIL, or
    empty. The recorder keeps the *first* wrong-answer time per
    machine: the set of keys is the campaign's blast radius.
    """

    def __init__(self, deployment: AkamaiDNSDeployment) -> None:
        self.first_wrong: dict[str, float] = {}
        self._apex = name(PROBE_ZONE)
        self._loop = deployment.loop
        for machine in deployment.machines():
            machine.engine.response_observers.append(
                lambda query, response, mid=machine.machine_id:
                self._observe(mid, query, response))

    def _observe(self, machine_id, query, response) -> None:
        if machine_id in self.first_wrong or not query.questions:
            return
        question = query.questions[0]
        if (question.qtype is not RType.A
                or question.qname == self._apex
                or not question.qname.is_subdomain_of(self._apex)):
            return
        answered = response.rcode is RCode.NOERROR and bool(response.answers)
        if not answered:
            self.first_wrong[machine_id] = self._loop.now


def build_deployment(params: ScorecardParams, *,
                     rollout: bool = False,
                     defense: bool = False,
                     gray: bool = False) -> AkamaiDNSDeployment:
    """A fresh platform with the probe zone (wildcard answers) live.

    With ``rollout`` the safe-rollout train is wired in (canary cohort,
    health gate, ``ROLLOUT_SOAK`` soak) and every machine validates
    zone updates before install.

    With ``gray`` the external gray-failure prober
    (:class:`~repro.control.grayfail.GrayFailController`) is enabled
    after settle, so the baseline before the first fault is already
    under differential audit.

    With ``defense`` the machines are deliberately under-provisioned
    (a few hundred qps of compute, a short queue) so a chaos-campaign
    flood genuinely saturates them — the regime the defense ladder is
    graded in — and the flood's victim zone is provisioned so the
    attack is the paper's pseudo-random-subdomain class.
    """
    machine_config = MachineConfig(zone_guard_enabled=rollout)
    if defense:
        machine_config = MachineConfig(zone_guard_enabled=rollout,
                                       compute_capacity_qps=150.0,
                                       io_capacity_qps=3_000.0,
                                       queue_depth=500)
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=params.seed, internet=params.internet,
        n_pops=params.n_pops, deployed_clouds=params.deployed_clouds,
        machines_per_pop=params.machines_per_pop,
        n_edge_servers=params.n_edge_servers,
        filters_enabled=False,
        rollout_enabled=rollout,
        rollout=RolloutParams(soak_seconds=ROLLOUT_SOAK,
                              check_period=1.0) if rollout else None,
        machine_config=machine_config))
    deployment.provision_enterprise(
        "slo-enterprise", PROBE_ZONE, "* IN A 203.0.113.53\n")
    if defense:
        deployment.provision_enterprise("victim-enterprise", VICTIM_ZONE)
    deployment.settle(30)
    if gray:
        deployment.enable_grayfail()
    return deployment


def _wire_defense(deployment: AkamaiDNSDeployment, telemetry: Telemetry,
                  campaign: Campaign,
                  slo: CampaignSLO) -> DefenseController:
    """Arm the standard four-rung ladder for an attack campaign.

    Wired after ``settle`` so warm-up traffic never feeds the attack
    detector. The ladder is mildest-first: tighten penalty-queue bands,
    insert per-source rate limiting, firewall the flooded zone's shape,
    and finally withdraw a fraction of peering links at the attacked
    cloud's first PoP (Figure 9 action III). With
    ``slo.defense_overblock`` a rung that firewalls the *probe* zone is
    prepended — deliberate collateral, which the guardrail must revert.
    """
    machines = deployment.machines()
    for machine in machines:
        machine.known_sources.add("slo-resolver")
    telemetry.alerts.add(
        RateDetector(ATTACK_QPS_ALERT, window=1.0, threshold=120.0,
                     for_windows=2, severity=AlertSeverity.CRITICAL),
        "queries_received_total")
    spec = next(f for f in campaign.faults
                if f.kind is FaultKind.ATTACK_FLOOD)
    cloud = next(c for c in deployment.clouds if c.prefix == spec.target)
    pop_router = deployment.cloud_pops[cloud.index][0]
    engineer = TrafficEngineer(deployment.network, cloud.prefix)
    te_plan = engineer.plan(
        AttackSituation(resolvers_dosed=True,
                        peering_links_congested=False,
                        compute_saturated=True,
                        can_spread_attack=False),
        pop_router_id=pop_router,
        attack_peers=deployment.network.topology.bgp_neighbors(pop_router),
        fraction=0.34)
    ladder: list = [
        QueueTightenRung(machines),
        FilterInsertRung(machines, lambda machine: RateLimitFilter(),
                         name="rate-limit"),
        FirewallRuleRung(machines, name(f"x.{VICTIM_ZONE}"), RType.A,
                         name="victim-firewall"),
        TrafficEngRung(engineer, te_plan),
    ]
    if slo.defense_overblock:
        ladder.insert(0, FirewallRuleRung(
            machines, name(f"x.{PROBE_ZONE}"), RType.A,
            name="overblock-firewall", soak_seconds=OVERBLOCK_SOAK,
            cool_off_seconds=300.0))
    controller = DefenseController(
        deployment.loop, ladder,
        estimator=known_resolver_estimator(machines), machines=machines)
    return controller.arm(telemetry)


def run_campaign(params: ScorecardParams,
                 entry: SuiteEntry) -> CampaignOutcome:
    """One campaign on one fresh deployment, probe running throughout.

    The deployment is the only one built: the entry's SLO says which
    platform to build, and the campaign's targets are bound on it
    before the chaos engine arms.

    A campaign-local telemetry session watches the probe's failed
    outcomes with a :class:`RatioDetector`, so the scorecard can report
    not only whether the platform degraded but how quickly the
    observability pipeline *noticed* (time-to-detection). Telemetry is passive: the
    session changes no simulation behaviour, only what gets recorded.
    """
    slo = entry.slo
    rollout, defense = slo.rollout, slo.defense
    # Defense campaigns arm mitigations: the controller mutates sim
    # state (policies, filters, firewall rules, BGP exports) by design.
    # Every other campaign keeps the session passive.
    telemetry = Telemetry(TelemetryConfig(seed=params.seed,
                                          trace_sample_rate=0.0,
                                          arm_mitigations=defense))
    detector = RatioDetector("probe-failure",
                             window=PROBE_WINDOW,
                             threshold=VISIBLE_DIP_RATIO, min_count=2)
    telemetry.alerts.add(detector, "probe_outcomes_total", "outcome=failed")
    with _telemetry_state.session(telemetry):
        deployment = build_deployment(params, rollout=rollout,
                                      defense=defense, gray=slo.gray)
        campaign = entry.bind(deployment)
        campaign.seed = params.seed
        recorder = _BlastRecorder(deployment) if rollout else None
        grayfail = deployment.grayfail
        gray_self: dict[str, bool] = {}
        if grayfail is not None:
            # At the instant the external prober convicts a machine,
            # snapshot what the machine's *own* monitoring suite says.
            # A green self-report here is the gray-failure property
            # itself: internal probes blind, external evidence damning.
            agents = {d.machine.machine_id: d.agent
                      for d in deployment.regular_deployments()}
            def _snapshot_self_view(machine_id: str) -> None:
                agent = agents.get(machine_id)
                if agent is not None and machine_id not in gray_self:
                    gray_self[machine_id] = agent.run_suite().healthy
            grayfail.on_convict.append(_snapshot_self_view)
        controller = (_wire_defense(deployment, telemetry, campaign, slo)
                      if defense else None)
        resolver = deployment.add_resolver("slo-resolver")
        probe = SLOProbe(deployment.loop, resolver, PROBE_ZONE,
                         period=params.probe_period)
        probe.start()
        engine = ChaosEngine(deployment)
        engine.run(campaign)
        deployment.run_until(deployment.loop.now + COOLDOWN)
        probe.stop()
        deployment.run_until(deployment.loop.now + 5.0)
        telemetry.finalize()

    report = probe.report()
    recoveries = []
    injects = [e.time for e in engine.events if e.action == "inject"]
    for event in engine.clears():
        # Attribute recovery only up to the next *inject*: failures
        # after a fresh fault lands are that fault's doing.
        later = [t for t in injects if t > event.time]
        horizon = min(later) if later else None
        ttr = report.time_to_recovery(event.time, until=horizon)
        recoveries.append((event.spec.describe(), event.time, ttr))
    detection = None
    if injects:
        first_inject = min(injects)
        alert = telemetry.alerts.first_raise_after(
            first_inject, name="probe-failure")
        if alert is not None:
            detection = alert.raised_at - first_inject

    blast: dict[str, float] = {}
    canary_ids: tuple[str, ...] = ()
    rollback_complete = None
    rejections = 0
    if rollout and deployment.rollout is not None:
        blast = dict(recorder.first_wrong)
        train = deployment.rollout
        canary_ids = tuple(m.machine_id for m in train.canaries)
        rejections = train.rejections
        probe_origin = str(name(PROBE_ZONE))
        rolled = [r for r in train.releases
                  if r.phase is RolloutPhase.ROLLED_BACK
                  and str(r.origin) == probe_origin]
        rollback_installs = [
            t for machine in train.canaries
            for t, action, origin, _serial in machine.zone_install_log
            if action == "rollback" and origin == probe_origin]
        if rolled and rollback_installs:
            rollback_complete = (max(rollback_installs)
                                 - min(r.published_at for r in rolled))

    outcome = CampaignOutcome(campaign=campaign, report=report,
                              recoveries=recoveries,
                              fault_log=engine.describe_log(),
                              detection_seconds=detection,
                              blast=blast, canary_ids=canary_ids,
                              rollback_complete_seconds=rollback_complete,
                              rollout_rejections=rejections)
    if controller is not None:
        outcome.defense_max_level = controller.max_level
        outcome.defense_final_level = controller.level
        outcome.defense_reverts = controller.reverts
        outcome.defense_unwound_at = controller.unwound_at()
        outcome.defense_timeline = controller.timeline()
        flood_injects = [e.time for e in engine.events
                         if e.action == "inject"
                         and e.spec.kind is FaultKind.ATTACK_FLOOD]
        flood_clears = [e.time for e in engine.clears()
                        if e.spec.kind is FaultKind.ATTACK_FLOOD]
        if flood_clears:
            outcome.defense_attack_end = max(flood_clears)
        if flood_injects:
            alert = telemetry.alerts.first_raise_after(
                min(flood_injects), name=ATTACK_QPS_ALERT)
            if alert is not None:
                outcome.defense_attack_detect_seconds = (
                    alert.raised_at - min(flood_injects))
        engages = [t for t in controller.transitions
                   if t.action == "engage"]
        if engages:
            outcome.defense_engaged_at = engages[0].time
        for i, transition in enumerate(controller.transitions):
            if transition.action != "revert":
                continue
            prior = [p for p in controller.transitions[:i]
                     if p.rung == transition.rung and p.action == "engage"]
            if prior:
                outcome.defense_revert_after = (transition.time
                                                - prior[-1].time)
            break
    if grayfail is not None:
        outcome.gray_convictions = grayfail.convictions
        outcome.gray_suspensions = grayfail.suspensions
        outcome.gray_denials = grayfail.denials
        outcome.gray_rejoins = grayfail.rejoins
        outcome.gray_budget = deployment.coordinator.max_concurrent
        outcome.gray_final_verdicts = grayfail.verdict_counts()
        outcome.gray_self_healthy = dict(gray_self)
        if grayfail.detections:
            outcome.gray_detection_latency = max(
                latency for _, latency in grayfail.detections)
        gray_injects = [e.time for e in engine.events
                        if e.action == "inject"
                        and e.spec.kind.value.startswith("gray_")]
        gray_clears = [e.time for e in engine.clears()
                       if e.spec.kind.value.startswith("gray_")]
        if gray_injects and gray_clears:
            outcome.gray_window = (min(gray_injects), max(gray_clears))
        if gray_injects:
            convicted_at = [t for t, _, verdict in grayfail.timeline
                            if verdict == "convicted"
                            and t >= min(gray_injects)]
            if convicted_at:
                outcome.gray_ttd_seconds = (min(convicted_at)
                                            - min(gray_injects))
    return outcome


_TITLE = "Platform resilience scorecard (section 4.2 failure modes)"


def unit_count(suite: str = "standard") -> int:
    """Number of independent campaign work units in a suite."""
    return len(SUITES[suite])


def run_unit(params: ScorecardParams, index: int,
             verbose: bool = False,
             suite: str = "standard") -> ExperimentResult:
    """Score one campaign of a suite on its own fresh deployment.

    Campaigns share nothing (each builds a new deployment from the same
    seed), so units may run in separate processes; :func:`assemble`
    concatenates the fragments in suite order to reproduce the serial
    result exactly.
    """
    entry = SUITES[suite][index]
    slo = entry.slo
    result = ExperimentResult("resilience", _TITLE)
    outcome = run_campaign(params, entry)
    campaign, report = outcome.campaign, outcome.report
    if verbose:
        print(f"-- {campaign.name}: {campaign.description}",
              file=sys.stderr)
        print(outcome.fault_log, file=sys.stderr)
        for line in outcome.defense_timeline:
            print(line, file=sys.stderr)

    prefix = campaign.name
    result.metrics[f"{prefix}.availability"] = \
        report.overall_availability
    result.metrics[f"{prefix}.worst_window"] = \
        report.worst_window_availability
    result.metrics[f"{prefix}.servfails"] = float(
        report.total_servfails)
    result.metrics[f"{prefix}.timeouts"] = float(report.total_timeouts)
    worst_ttr = outcome.worst_recovery
    if worst_ttr is not None:
        result.metrics[f"{prefix}.worst_ttr_s"] = worst_ttr
    if outcome.detection_seconds is not None:
        result.metrics[f"{prefix}.ttd_s"] = outcome.detection_seconds

    baseline = report.availability_between(0.0, WARMUP)
    final_clear = max((t for _, t, _ in outcome.recoveries),
                      default=0.0)
    recovered = report.availability_between(
        final_clear + (worst_ttr or 0.0) + 1.0, float("inf"))

    availability_holds = (
        report.overall_availability >= slo.min_overall
        and report.worst_window_availability >= slo.min_worst_window
        and baseline == 1.0)
    if slo.expect_dip:
        # The probe must actually *see* the degradation: a perfect
        # score here would mean the measurement is blind, not that
        # the platform is invincible.
        availability_holds = (availability_holds
                              and report.worst_window_availability
                              < 1.0 - VISIBLE_DIP_RATIO)
        target = (f">= {slo.min_overall:.0%}, with a visible dip")
    else:
        target = f">= {slo.min_overall:.0%}"
    result.compare(
        f"{prefix}: availability through the campaign",
        target,
        f"{report.overall_availability:.1%} "
        f"(worst window {report.worst_window_availability:.0%})",
        availability_holds)
    result.compare(
        f"{prefix}: full recovery after faults clear",
        f"100% within {MAX_RECOVERY_SECONDS:.0f}s",
        ("never recovered" if worst_ttr is None else
         f"TTR {worst_ttr:.1f}s, then {recovered:.0%}"),
        worst_ttr is not None
        and worst_ttr <= MAX_RECOVERY_SECONDS
        and recovered == 1.0)
    if slo.contain_blast:
        canaries = set(outcome.canary_ids)
        hit = set(outcome.blast)
        escaped = sorted(hit - canaries)
        result.metrics[f"{prefix}.blast_machines"] = float(len(hit))
        result.metrics[f"{prefix}.blast_escaped"] = float(len(escaped))
        rollback_s = outcome.rollback_complete_seconds
        if rollback_s is not None:
            result.metrics[f"{prefix}.rollback_s"] = rollback_s
        result.compare(
            f"{prefix}: blast radius confined to the canary cohort",
            f"wrong answers only from canaries "
            f"(cohort of {len(canaries)}), and at least one",
            (f"{len(hit)} machine(s) served wrong answers, "
             f"{len(escaped)} outside the cohort"
             + (f": {', '.join(escaped)}" if escaped else "")),
            bool(hit) and not escaped)
        result.compare(
            f"{prefix}: automatic rollback within the soak window",
            f"last canary rolled back <= {ROLLOUT_SOAK:.0f}s after "
            f"the corrupt publish",
            ("no rollback happened" if rollback_s is None
             else f"rollback complete after {rollback_s:.1f}s"),
            rollback_s is not None and rollback_s <= ROLLOUT_SOAK)
    if slo.expect_rollback:
        rollback_s = outcome.rollback_complete_seconds
        escaped = sorted(set(outcome.blast) - set(outcome.canary_ids))
        if rollback_s is not None:
            result.metrics[f"{prefix}.rollback_s"] = rollback_s
        result.compare(
            f"{prefix}: bogus release rolled back within the soak window",
            f"canary health gate trips and the rollback lands "
            f"<= {ROLLOUT_SOAK:.0f}s after the bogus publish",
            ("no rollback happened" if rollback_s is None
             else f"rollback complete after {rollback_s:.1f}s"),
            rollback_s is not None and rollback_s <= ROLLOUT_SOAK)
        result.compare(
            f"{prefix}: containment invisible to non-validating clients",
            "zero wrong answers fleet-wide, availability ~100%",
            (f"{len(outcome.blast)} machine(s) served wrong answers "
             f"({len(escaped)} outside the cohort), availability "
             f"{report.overall_availability:.1%}"),
            not outcome.blast
            and report.overall_availability >= 0.99)
    if slo.expect_reject:
        result.metrics[f"{prefix}.rejections"] = float(
            outcome.rollout_rejections)
        result.compare(
            f"{prefix}: validator rejects every bad release up front",
            f"{slo.expect_reject} rejected, zero wrong answers served",
            (f"{outcome.rollout_rejections} rejected, "
             f"{len(outcome.blast)} machine(s) served wrong answers"),
            outcome.rollout_rejections == slo.expect_reject
            and not outcome.blast)
    if slo.defense:
        result.metrics[f"{prefix}.defense_max_level"] = float(
            outcome.defense_max_level)
        result.metrics[f"{prefix}.defense_reverts"] = float(
            outcome.defense_reverts)
        attack_ttd = outcome.defense_attack_detect_seconds
        if attack_ttd is not None:
            result.metrics[f"{prefix}.attack_ttd_s"] = attack_ttd
        result.compare(
            f"{prefix}: attack detected on the qps surface",
            f"{ATTACK_QPS_ALERT} alert within "
            f"{MAX_DETECTION_SECONDS:.0f}s of the first flood",
            ("no alert" if attack_ttd is None
             else f"TTD {attack_ttd:.1f}s"),
            attack_ttd is not None
            and attack_ttd <= MAX_DETECTION_SECONDS)
        result.compare(
            f"{prefix}: ladder climbs under sustained attack",
            f">= {DEFENSE_MIN_CLIMB} rungs engaged",
            f"max level {outcome.defense_max_level}",
            outcome.defense_max_level >= DEFENSE_MIN_CLIMB)
        floor = None
        if (outcome.defense_engaged_at is not None
                and outcome.defense_attack_end is not None):
            floor = report.availability_between(
                outcome.defense_engaged_at, outcome.defense_attack_end)
            result.metrics[f"{prefix}.mitigation_availability"] = floor
        result.compare(
            f"{prefix}: legitimate availability floor while mitigating",
            f">= {DEFENSE_FLOOR:.0%} from first rung to attack end",
            ("ladder never engaged" if floor is None
             else f"{floor:.1%}"),
            floor is not None and floor >= DEFENSE_FLOOR)
        unwind_s = None
        if (outcome.defense_unwound_at is not None
                and outcome.defense_attack_end is not None):
            unwind_s = (outcome.defense_unwound_at
                        - outcome.defense_attack_end)
            result.metrics[f"{prefix}.unwind_s"] = unwind_s
        result.compare(
            f"{prefix}: every mitigation unwinds after the attack",
            f"ladder back to level 0 <= {DEFENSE_UNWIND_SECONDS:.0f}s "
            f"after the flood stops",
            (f"still at level {outcome.defense_final_level}"
             if outcome.defense_final_level else
             ("never engaged" if unwind_s is None
              else f"unwound {unwind_s:.1f}s after the attack ended")),
            outcome.defense_final_level == 0
            and unwind_s is not None
            and unwind_s <= DEFENSE_UNWIND_SECONDS)
        if slo.defense_overblock:
            revert_after = outcome.defense_revert_after
            if revert_after is not None:
                result.metrics[f"{prefix}.revert_after_s"] = revert_after
            result.compare(
                f"{prefix}: guardrail reverts the over-blocking rung",
                f"auto-revert + latch within its {OVERBLOCK_SOAK:.0f}s "
                f"soak window",
                ("no revert happened" if revert_after is None
                 else f"{outcome.defense_reverts} revert(s), first "
                      f"{revert_after:.1f}s after engage"),
                outcome.defense_reverts >= 1
                and revert_after is not None
                and revert_after <= OVERBLOCK_SOAK)
    if slo.gray:
        result.metrics[f"{prefix}.gray_convictions"] = float(
            outcome.gray_convictions)
        result.metrics[f"{prefix}.gray_suspensions"] = float(
            outcome.gray_suspensions)
        result.metrics[f"{prefix}.gray_denials"] = float(
            outcome.gray_denials)
        result.metrics[f"{prefix}.gray_rejoins"] = float(
            outcome.gray_rejoins)
        if outcome.gray_ttd_seconds is not None:
            result.metrics[f"{prefix}.gray_ttd_s"] = \
                outcome.gray_ttd_seconds
        if outcome.gray_detection_latency is not None:
            result.metrics[f"{prefix}.gray_evidence_to_conviction_s"] = \
                outcome.gray_detection_latency
        verdicts = outcome.gray_final_verdicts
        healthy_fleet = set(verdicts) <= {"healthy"}
        verdict_text = ", ".join(f"{count} {verdict}"
                                 for verdict, count in sorted(
                                     verdicts.items()))
        if slo.gray_quorum_guard:
            result.compare(
                f"{prefix}: quorum refuses to mass-suspend",
                f"suspensions <= budget of {outcome.gray_budget}, "
                f">= 1 denial",
                f"{outcome.gray_convictions} convicted, "
                f"{outcome.gray_suspensions} suspended, "
                f"{outcome.gray_denials} denied",
                0 < outcome.gray_suspensions <= outcome.gray_budget
                and outcome.gray_denials >= 1)
            floor = None
            if outcome.gray_window is not None:
                floor = report.availability_between(*outcome.gray_window)
                result.metrics[f"{prefix}.gray_window_availability"] = \
                    floor
            result.compare(
                f"{prefix}: degraded but serving through the gray storm",
                f">= {GRAY_FLOOR:.0%} availability over the "
                f"fault window",
                ("no gray fault window" if floor is None
                 else f"{floor:.1%}"),
                floor is not None and floor >= GRAY_FLOOR)
            result.compare(
                f"{prefix}: fleet heals after the faults clear",
                "all verdicts healthy, suspended machines rejoined",
                f"final verdicts: {verdict_text}; "
                f"{outcome.gray_rejoins} rejoined",
                healthy_fleet and outcome.gray_rejoins >= 1)
        else:
            result.compare(
                f"{prefix}: gray machine convicted and quorum-suspended",
                "conviction routed through the suspension quorum",
                f"{outcome.gray_convictions} conviction(s), "
                f"{outcome.gray_suspensions} quorum-granted "
                f"suspension(s)",
                outcome.gray_convictions >= 1
                and outcome.gray_suspensions >= 1)
            blind = outcome.gray_self_healthy
            result.compare(
                f"{prefix}: self-monitoring stays blind (gray property)",
                "machine's own health suite green at conviction time",
                (f"{sum(blind.values())}/{len(blind)} convicted "
                 f"machine(s) self-reported healthy" if blind
                 else "no conviction recorded"),
                bool(blind) and all(blind.values()))
            gray_ttd = outcome.gray_ttd_seconds
            result.compare(
                f"{prefix}: external prober detects within budget",
                f"conviction <= {MAX_DETECTION_SECONDS:.0f}s "
                f"after inject",
                ("never convicted" if gray_ttd is None
                 else f"TTD {gray_ttd:.1f}s"),
                gray_ttd is not None
                and gray_ttd <= MAX_DETECTION_SECONDS)
            result.compare(
                f"{prefix}: probationary rejoin after the fault clears",
                ">= 1 rejoin, fleet back to all-healthy verdicts",
                f"{outcome.gray_rejoins} rejoin(s), final verdicts: "
                f"{verdict_text}",
                outcome.gray_rejoins >= 1 and healthy_fleet)
    ttd = outcome.detection_seconds
    if slo.expect_dip:
        # Client-visible degradation must also be *operator*-visible:
        # the probe-failure detector has to fire, and quickly.
        result.compare(
            f"{prefix}: telemetry detects the degradation",
            f"alert within {MAX_DETECTION_SECONDS:.0f}s "
            f"of first fault",
            ("no alert" if ttd is None else f"TTD {ttd:.1f}s"),
            ttd is not None and ttd <= MAX_DETECTION_SECONDS)
    else:
        # Absorbed faults should stay below the SLO alert surface;
        # informational only — an early alert here is noisy, not wrong.
        result.compare(
            f"{prefix}: time to detection (informational)",
            "absorbed faults need not alert",
            ("no alert (fault absorbed)" if ttd is None
             else f"TTD {ttd:.1f}s"),
            True)
    return result


def assemble(fragments: list[ExperimentResult]) -> ExperimentResult:
    """Merge per-campaign fragments (in suite order) into one result."""
    result = ExperimentResult("resilience", _TITLE)
    for fragment in fragments:
        result.series.update(fragment.series)
        result.metrics.update(fragment.metrics)
        result.comparisons.extend(fragment.comparisons)
    return result


def select_campaigns(suite: str, only: str | None) -> list[int]:
    """Indices of the suite's campaigns whose name contains ``only``."""
    names = [entry.name for entry in SUITES[suite]]
    indices = [i for i, campaign_name in enumerate(names)
               if only is None or only in campaign_name]
    if not indices:
        raise ValueError(f"no campaign of the {suite} suite matches "
                         f"{only!r} (choose from {', '.join(names)})")
    return indices


def run(params: ScorecardParams | None = None,
        verbose: bool = False,
        only: str | None = None,
        suite: str = "standard") -> ExperimentResult:
    """Run one suite of :data:`SUITES` and emit the pass/fail scorecard.

    ``only`` restricts the suite to campaigns whose name contains the
    given substring (``ValueError`` if nothing matches).
    """
    params = params or ScorecardParams()
    return assemble([run_unit(params, index, verbose, suite)
                     for index in select_campaigns(suite, only)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="shrunk platform for smoke runs")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--verbose", action="store_true",
                        help="print per-campaign fault logs to stderr")
    parser.add_argument("--campaign", default=None, metavar="SUBSTR",
                        help="run only campaigns whose name contains "
                             "this substring")
    suite = parser.add_mutually_exclusive_group()
    suite.add_argument("--dnssec", action="store_const", dest="suite",
                       const="dnssec", default="standard",
                       help="run the opt-in DNSSEC rollover-containment "
                            "suite instead of the standard one")
    suite.add_argument("--gray", action="store_const", dest="suite",
                       const="gray", default="standard",
                       help="run the opt-in gray-failure detection "
                            "suite instead of the standard one")
    args = parser.parse_args(argv)
    try:
        select_campaigns(args.suite, args.campaign)
    except ValueError as exc:
        parser.error(str(exc))
    params = ScorecardParams.fast(args.seed) if args.fast \
        else ScorecardParams(seed=args.seed)
    result = run(params, verbose=args.verbose, only=args.campaign,
                 suite=args.suite)
    print(result.render())
    return 0 if result.all_hold else 1


if __name__ == "__main__":
    raise SystemExit(main())
