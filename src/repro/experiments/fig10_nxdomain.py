"""Figure 10: legitimate queries answered vs attack rate, +- NXDOMAIN filter.

Mirrors the paper's two-machine testbed (section 4.3.4): one traffic
source drives legitimate queries (names sampled from a hosted zone) at a
fixed rate L while a random-subdomain attack ramps its rate A. The
nameserver machine has a compute capacity (answers/sec) and an I/O
capacity (packets/sec the stack can hand to the application). We measure
the percentage of legitimate queries answered at each attack rate, with
the NXDOMAIN filter enabled and disabled.

Shape targets (three regions):
* A <= A1 (= compute - L): everything answered either way.
* A1 < A <= A2 (= I/O limit): without the filter, legitimate goodput
  decays like compute/(A+L); with the filter, prioritization keeps it
  near 100%.
* A > A2: drops move below the application; both configurations decay.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..analysis.report import ExperimentResult
from ..dnscore.edns import EDNSOptions
from ..dnscore.message import Flags, Message
from ..dnscore.name import name
from ..dnscore.records import Question
from ..dnscore.rrtypes import RCode, RType
from ..dnscore.zone import Zone
from ..dnscore.zonefile import parse_zone_text
from ..dnssec import KeyRing, SigningPolicy, ZoneSigner, verify_message
from ..dnssec.denial import DenialMode
from ..filters.base import ScoringPipeline
from ..filters.nxdomain import NXDomainConfig, NXDomainFilter
from ..filters.scoring import QueuePolicy
from ..netsim.clock import EventLoop
from ..netsim.packet import Datagram
from ..server.engine import AuthoritativeEngine, ZoneStore
from ..server.machine import MachineConfig, NameserverMachine, QueryEnvelope
from ..workload.attacks import random_label

VICTIM_ZONE = "victim.example"
#: The testbed, rates in queries/sec: the legitimate stream, what the
#: nameserver answers, and what its stack hands the application.
LEGIT_RATE = 400.0
COMPUTE_CAPACITY = 1_000.0
IO_CAPACITY = 4_000.0
N_RESOLVER_SOURCES = 40
N_SIGNED_HOSTS = 200


@dataclass(slots=True)
class Fig10Params:
    """The sweep and its scale."""

    seed: int = 42
    attack_rates: tuple[float, ...] = (
        0.0, 200.0, 400.0, 600.0, 1_000.0, 1_500.0, 2_000.0, 3_000.0,
        3_600.0, 4_500.0, 6_000.0, 9_000.0)
    measure_seconds: float = 20.0
    warmup_seconds: float = 5.0
    n_valid_hosts: int = 400


def _build_zone(n_valid_hosts: int):
    lines = [f"$ORIGIN {VICTIM_ZONE}.", "$TTL 300",
             f"@ IN SOA ns1.{VICTIM_ZONE}. admin.{VICTIM_ZONE}. "
             "1 7200 3600 1209600 300",
             f"@ IN NS ns1.{VICTIM_ZONE}."]
    for i in range(n_valid_hosts):
        lines.append(f"h{i} IN A 10.9.{i // 250}.{i % 250 + 1}")
    return parse_zone_text("\n".join(lines) + "\n")


def _testbed(zone: Zone, filter_enabled: bool = False) -> NameserverMachine:
    """The nameserver half of the testbed: one machine serving ``zone``
    on an event loop of its own."""
    store = ZoneStore([zone])
    engine = AuthoritativeEngine(store)
    filters = []
    if filter_enabled:
        filters.append(NXDomainFilter(
            store, NXDomainConfig(trigger_count=50, window_seconds=10.0)))
    return NameserverMachine(
        EventLoop(), "testbed-ns", engine, ScoringPipeline(filters),
        QueuePolicy(),
        MachineConfig(compute_capacity_qps=COMPUTE_CAPACITY,
                      io_capacity_qps=IO_CAPACITY,
                      io_burst_seconds=0.05,
                      queue_depth=400))


def _drive(params: Fig10Params | Fig10SignedParams,
           machine: NameserverMachine, attack_rate: float, *,
           source_prefix: str, n_valid_hosts: int, do_cut: int = 0
           ) -> float:
    """The traffic-source half: Poisson legitimate and attack streams
    through warm-up and the measured window. The first ``do_cut``
    sources set DO=1. Returns the fraction of legit queries answered."""
    rng = random.Random(params.seed)
    loop = machine.loop
    sources = [f"{source_prefix}.{i + 1}"
               for i in range(N_RESOLVER_SOURCES)]
    valid = [name(f"h{i}.{VICTIM_ZONE}")
             for i in range(n_valid_hosts)]
    victim = name(VICTIM_ZONE)
    msg_id = [0]
    measure_start = params.warmup_seconds
    measure_end = params.warmup_seconds + params.measure_seconds
    counters = {"legit_sent": 0}

    # This closure runs hundreds of thousands of times per point, so the
    # stdlib RNG conveniences are replaced with the exact primitives they
    # wrap (choice -> seq[_randbelow(n)], randint(a, b) ->
    # a + _randbelow(b - a + 1)) — identical bit consumption, no wrapper
    # frames — and hot globals are bound as defaults.
    def send(is_attack: bool, *, randbelow=rng._randbelow,
             n_valid=len(valid), n_sources=len(sources),
             receive=machine.receive_query) -> None:
        mid = msg_id[0] = (msg_id[0] + 1) & 0xFFFF
        if is_attack:
            qname = victim.prepend(random_label(rng))
        else:
            qname = valid[randbelow(n_valid)]
        src_index = randbelow(n_sources)
        query = Message(msg_id=mid, flags=Flags())
        query.questions.append(Question(qname, RType.A))
        if src_index < do_cut:
            query.edns = EDNSOptions(payload_size=1232, dnssec_ok=True)
        if not is_attack and measure_start <= loop.now < measure_end:
            counters["legit_sent"] += 1
        receive(Datagram(
            src=sources[src_index], dst="testbed",
            payload=QueryEnvelope(query, is_attack=is_attack),
            src_port=1024 + randbelow(64512)))

    def schedule_stream(rate: float, is_attack: bool) -> None:
        if rate <= 0:
            return

        # expovariate inlined: -log(1 - random()) / rate, same draw.
        def fire(*, random=rng.random, log=math.log,
                 call_later=loop.call_later) -> None:
            if loop.now >= measure_end:
                return
            send(is_attack)
            call_later(-log(1.0 - random()) / rate, fire)

        loop.call_later(rng.expovariate(rate), fire)

    schedule_stream(LEGIT_RATE, is_attack=False)
    schedule_stream(attack_rate, is_attack=True)

    loop.run_until(measure_start)
    legit_answered_at_start = machine.metrics.legit_answered
    loop.run_until(measure_end + 2.0)
    answered = machine.metrics.legit_answered - legit_answered_at_start
    sent = counters["legit_sent"]
    return answered / sent if sent else 0.0


def _run_point(params: Fig10Params, attack_rate: float,
               filter_enabled: bool) -> float:
    """One testbed run; returns the fraction of legit queries answered."""
    machine = _testbed(_build_zone(params.n_valid_hosts), filter_enabled)
    return _drive(params, machine, attack_rate, source_prefix="172.20.0",
                  n_valid_hosts=params.n_valid_hosts)


def sweep_halves(params: Fig10Params) -> tuple[tuple[float, ...], ...]:
    """The attack rates cut in two runs of about equal work (a point
    costs about its packet rate), in sweep order: the runner's two work
    units. Cutting the sweep, not the two series apart, keeps the points
    in the order a serial sweep runs them, which a telemetry session
    over the run records."""
    rates = params.attack_rates
    half = sum(rate + LEGIT_RATE for rate in rates) / 2.0
    done = 0.0
    for cut, rate in enumerate(rates, 1):
        done += rate + LEGIT_RATE
        if done >= half:
            break
    return rates[:cut], rates[cut:]


def run_points(params: Fig10Params,
               rates: tuple[float, ...]) -> list[tuple[float, float]]:
    """(goodput with the NXDOMAIN filter, without it) at each of
    ``rates``. Every point seeds a testbed of its own."""
    return [(_run_point(params, rate, True), _run_point(params, rate, False))
            for rate in rates]


def assemble(params: Fig10Params,
             points: list[tuple[float, float]]) -> ExperimentResult:
    """The figure from every rate's point, and the regions' checks."""
    result = ExperimentResult(
        "fig10", "Legitimate queries answered vs attack rate")
    with_filter = [with_ for with_, _ in points]
    without_filter = [without for _, without in points]
    rates = list(params.attack_rates)
    result.series["w/ filter"] = (rates, with_filter)
    result.series["w/o filter"] = (rates, without_filter)

    a1 = COMPUTE_CAPACITY - LEGIT_RATE
    a2 = IO_CAPACITY - LEGIT_RATE
    region1 = [i for i, r in enumerate(rates) if r <= a1]
    region2 = [i for i, r in enumerate(rates) if a1 < r <= a2]
    region3 = [i for i, r in enumerate(rates) if r > a2]

    r1_min = min(min(with_filter[i] for i in region1),
                 min(without_filter[i] for i in region1))
    result.metrics["region1_min_goodput"] = r1_min
    result.compare("A <= A1: both configurations answer ~all legit",
                   "100%", f"{r1_min:.0%}", r1_min >= 0.95)

    r2_with = min(with_filter[i] for i in region2)
    r2_without = min(without_filter[i] for i in region2)
    result.metrics["region2_with_filter_min"] = r2_with
    result.metrics["region2_without_filter_min"] = r2_without
    result.compare("A1 < A <= A2: filter keeps legit near 100%",
                   "~100%", f"{r2_with:.0%}", r2_with >= 0.90)
    result.compare("A1 < A <= A2: without filter legit degrades",
                   "declines toward C/(A+L)", f"min {r2_without:.0%}",
                   r2_without <= 0.75)

    if region3:
        r3_with = with_filter[region3[-1]]
        result.metrics["region3_with_filter_last"] = r3_with
        result.compare("A > A2: I/O saturation hits even the filter",
                       "both decline", f"{r3_with:.0%}",
                       r3_with < max(0.90, r2_with))
    return result


def run(params: Fig10Params | None = None) -> ExperimentResult:
    """Sweep attack rates with and without the NXDOMAIN filter."""
    params = params or Fig10Params()
    return assemble(params, run_points(params, params.attack_rates))


# -- signed variant ----------------------------------------------------


@dataclass(slots=True)
class Fig10SignedParams:
    """The same two-machine testbed, with the victim zone DNSSEC-signed.

    Every query carries DO=1, so each NXDOMAIN must ship a denial
    proof. The sweep runs once per denial mode: the precomputed NSEC
    chain plans each signed negative per qname — which a unique-qname
    flood churns — while compact (black-lies) denial keeps one negative
    plan per zone.
    """

    seed: int = 42
    attack_rates: tuple[float, ...] = (0.0, 1_500.0, 3_600.0)
    measure_seconds: float = 12.0
    warmup_seconds: float = 3.0


def _run_signed_point(params: Fig10SignedParams, attack_rate: float,
                      mode: DenialMode) -> dict:
    """One signed testbed run; returns goodput plus cache observables."""
    zone = _build_zone(N_SIGNED_HOSTS)
    keys = KeyRing(params.seed, zone.origin)
    signer = ZoneSigner(keys, SigningPolicy(sig_validity=86_400.0))
    signer.sign(zone, 0.0)
    machine = _testbed(zone)
    loop, engine = machine.loop, machine.engine
    engine.dnssec.register_keyring(keys)
    engine.dnssec.clock = lambda: loop.now
    engine.dnssec.denial_mode = mode
    dnskeys = [r.rdata for r in
               zone.get_rrset(zone.origin, RType.DNSKEY).records]
    counters = {"denials": 0, "denial_records": 0, "bogus": 0, "checked": 0}

    def observe(query: Message, response: Message) -> None:
        if response.answers or not response.authority:
            return
        if (response.flags.rcode is RCode.NXDOMAIN
                or any(r.rtype == RType.NSEC for r in response.authority)):
            counters["denials"] += 1
            counters["denial_records"] += len(response.authority)
            # Spot-check validity on a sample; full verification per
            # response would dominate the run.
            if counters["denials"] % 512 == 1:
                counters["checked"] += 1
                if verify_message(response, dnskeys, loop.now,
                                  require_signatures=False):
                    counters["bogus"] += 1

    engine.response_observers.append(observe)
    goodput = _drive(params, machine, attack_rate,
                     source_prefix="172.21.0",
                     n_valid_hosts=N_SIGNED_HOSTS,
                     do_cut=N_RESOLVER_SOURCES)
    return {
        "goodput": goodput,
        "plan_cache_wipes": engine.plan_cache_wipes,
        "neg_plans": engine.signed_negative_plans,
        "denial_records_avg": (counters["denial_records"]
                               / counters["denials"]
                               if counters["denials"] else 0.0),
        "bogus": counters["bogus"],
        "checked": counters["checked"],
    }


#: The signed sweep's denial modes, in series (and work unit) order.
DENIAL_MODES = (DenialMode.NSEC_CHAIN, DenialMode.COMPACT)


def run_signed_mode(params: Fig10SignedParams,
                    mode: DenialMode) -> list[dict]:
    """One denial mode's sweep, a runner work unit: each attack rate's
    point, every one on a testbed of its own."""
    return [_run_signed_point(params, rate, mode)
            for rate in params.attack_rates]


def assemble_signed(params: Fig10SignedParams,
                    *series: list[dict]) -> ExperimentResult:
    """The signed figure from each of :data:`DENIAL_MODES`' sweeps."""
    result = ExperimentResult(
        "fig10-signed",
        "Signed zone under random-subdomain flood, by denial mode")
    rates = list(params.attack_rates)
    points = dict(zip(DENIAL_MODES, series))
    for mode, series in points.items():
        result.series[mode.value] = (rates,
                                     [p["goodput"] for p in series])

    chain_top = points[DenialMode.NSEC_CHAIN][-1]
    compact_top = points[DenialMode.COMPACT][-1]
    result.metrics["chain_plan_cache_wipes"] = \
        chain_top["plan_cache_wipes"]
    result.metrics["compact_plan_cache_wipes"] = \
        compact_top["plan_cache_wipes"]
    result.metrics["compact_negative_plans"] = compact_top["neg_plans"]
    result.metrics["chain_denial_records_avg"] = \
        chain_top["denial_records_avg"]
    result.metrics["compact_denial_records_avg"] = \
        compact_top["denial_records_avg"]

    result.compare(
        "chain mode plans signed NXDOMAINs per qname (cache churn)",
        ">= 1 wipe at top rate", str(chain_top["plan_cache_wipes"]),
        chain_top["plan_cache_wipes"] >= 1)
    result.compare(
        "compact mode keeps negative state per-zone",
        "0 wipes, <= 1 plan",
        f"{compact_top['plan_cache_wipes']} wipes, "
        f"{compact_top['neg_plans']} plans",
        compact_top["plan_cache_wipes"] == 0
        and compact_top["neg_plans"] <= 1)
    result.compare(
        "chain proofs carry more denial records than compact",
        "chain > compact",
        f"{chain_top['denial_records_avg']:.1f} vs "
        f"{compact_top['denial_records_avg']:.1f}",
        chain_top["denial_records_avg"]
        > compact_top["denial_records_avg"])
    bogus = sum(points[m][-1]["bogus"] for m in points)
    checked = sum(points[m][-1]["checked"] for m in points)
    result.compare(
        "sampled signed responses all validate",
        "0 bogus", f"{bogus}/{checked} bogus", bogus == 0 and checked > 0)
    return result


def run_signed(params: Fig10SignedParams | None = None) -> ExperimentResult:
    """Sweep the flood against a signed zone under both denial modes."""
    params = params or Fig10SignedParams()
    return assemble_signed(params, *(run_signed_mode(params, mode)
                                     for mode in DENIAL_MODES))
