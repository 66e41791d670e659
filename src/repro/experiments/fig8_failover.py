"""Figure 8: anycast failover time for prefix advertisement/withdrawal.

Reproduces the paper's methodology (section 4.1) on the simulated
Internet: vantage points probe a test prefix every 100 ms and log which
PoP answered (or timeout). For a new advertisement from PoP X while PoP
Y serves, failover time per vantage point is t_X - t_L, where t_L is
when X's local vantage point first reaches X. For a withdrawal from X,
failover time is t_Y - t_phi: from the first probe that timed out to
the first answered by Y (vantage points rerouted without any timeout
count as instantaneous).

The shape targets: most failovers complete well under BGP's full
convergence time (paper: 76% < 1 s for 2-PoP advertisement); withdrawal
has a heavy tail (5.8% >= 10 s) caused by path hunting through routers
with MRAI timers; larger clouds (21 PoPs) fail over faster than 2-PoP
clouds; a small fraction of advertisement measurements time out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..analysis.report import ExperimentResult
from ..analysis.stats import fraction_at_least, fraction_below
from ..netsim.builder import (
    Internet,
    InternetParams,
    attach_pop,
    build_internet,
)
from ..netsim.clock import EventLoop
from ..netsim.network import Network
from ..netsim.packet import Datagram
from ..netsim.topology import LinkRelation, Node, NodeKind

TEST_PREFIX = "192.0.2.0"
PROBE_INTERVAL = 0.1
PROBE_TIMEOUT = 1.0
#: Fraction of transit routers with a slow MRAI timer, and its range.
MRAI_FRACTION = 0.30
MRAI_RANGE = (5.0, 30.0)
#: Fraction of transit routers with slow RIB->FIB programming under
#: churn, and the delay ranges. Slow FIB sync keeps packets flowing
#: toward a withdrawn origin after BGP has moved on — the mechanism
#: behind the withdrawal-timeout tail.
SLOW_FIB_FRACTION = 0.12
SLOW_FIB_RANGE = (4.0, 25.0)
FAST_FIB_RANGE = (0.01, 0.15)


@dataclass(slots=True)
class Fig8Params:
    """Scale knobs; defaults sized for the benchmark harness."""

    seed: int = 42
    internet: InternetParams = field(
        default_factory=lambda: InternetParams(n_tier1=6, n_tier2=24,
                                               n_stub=80))
    n_pops: int = 24
    n_vantage: int = 30
    trials: int = 8
    measure_window: float = 40.0
    converge_time: float = 40.0


@dataclass(slots=True)
class _ProbeRecord:
    sent_at: float
    responder: str | None = None   # PoP id, or None (pending/timeout)


class _VantagePoint:
    """Sends a probe every 100 ms and records who answered."""

    def __init__(self, loop: EventLoop, network: Network, host_id: str,
                 rng: random.Random) -> None:
        self.loop = loop
        self.network = network
        self.host_id = host_id
        self.rng = rng
        self.records: list[_ProbeRecord] = []
        self._pending: dict[int, _ProbeRecord] = {}
        self._seq = 0
        self._running = False
        network.attach_endpoint(host_id, self)

    def start(self) -> None:
        self._running = True
        self._tick()

    def stop(self) -> None:
        self._running = False
        self._pending.clear()
        self.records.clear()

    def _tick(self) -> None:
        if not self._running:
            return
        self._seq += 1
        record = _ProbeRecord(sent_at=self.loop.now)
        self.records.append(record)
        self._pending[self._seq] = record
        self.network.send(Datagram(
            src=self.host_id, dst=TEST_PREFIX,
            payload=("probe", self.host_id, self._seq),
            src_port=self._seq & 0xFFFF))
        self.loop.call_later(PROBE_INTERVAL, self._tick)

    def handle_datagram(self, dgram: Datagram) -> None:
        kind, seq, pop_id = dgram.payload
        if kind != "probe-reply":
            return
        record = self._pending.pop(seq, None)
        if record is not None and self.loop.now - record.sent_at \
                <= PROBE_TIMEOUT:
            record.responder = pop_id


class _PopResponder:
    """Answers probes at a PoP, identifying the PoP in the reply."""

    def __init__(self, network: Network, pop_id: str) -> None:
        self.network = network
        self.pop_id = pop_id
        network.register_local_delivery(pop_id, TEST_PREFIX, self.handle)

    def handle(self, dgram: Datagram) -> None:
        kind, host_id, seq = dgram.payload
        if kind != "probe":
            return
        self.network.send(Datagram(
            src=self.pop_id, dst=host_id,
            payload=("probe-reply", seq, self.pop_id)))


@dataclass(slots=True)
class FailoverSamples:
    """Collected failover times (seconds) plus timeout counts."""

    times: list[float] = field(default_factory=list)
    timeouts: int = 0
    observations: int = 0


def _first_answer_time(records: list[_ProbeRecord], pop_id: str,
                       after: float) -> float | None:
    for record in records:
        if record.sent_at >= after and record.responder == pop_id:
            return record.sent_at
    return None


def _build_world(params: Fig8Params) -> tuple[EventLoop, Network,
                                              Internet, list[str],
                                              list[_VantagePoint]]:
    rng = random.Random(params.seed)
    internet = build_internet(rng, params.internet)
    pops = [attach_pop(internet, rng) for _ in range(params.n_pops)]
    # Local vantage points hang directly off each PoP router; remote
    # vantage points attach to random stub ASes.
    loop = EventLoop()
    vantage: list[_VantagePoint] = []
    for i in range(params.n_vantage):
        host_id = f"vp-{i}"
        stub = rng.choice(internet.stubs)
        anchor = internet.topology.node(stub)
        internet.topology.add_node(Node(
            host_id, anchor.asn, NodeKind.HOST, anchor.location,
            anchor.region))
        internet.topology.connect(stub, host_id, LinkRelation.ACCESS,
                                  latency_ms=max(0.5, rng.gauss(3.0, 1.5)))
        internet.hosts.append(host_id)
    for pop_id in pops:
        host_id = f"lvp-{pop_id}"
        pop_node = internet.topology.node(pop_id)
        internet.topology.add_node(Node(
            host_id, pop_node.asn, NodeKind.HOST, pop_node.location,
            pop_node.region))
        internet.topology.connect(pop_id, host_id, LinkRelation.ACCESS,
                                  latency_ms=0.3)
        internet.hosts.append(host_id)

    network = Network(loop, internet.topology, rng)
    mrai_rng = random.Random(params.seed + 1)

    def mrai_for(router_id: str) -> float:
        if router_id.startswith("pop-"):
            return 0.0
        if mrai_rng.random() < MRAI_FRACTION:
            return mrai_rng.uniform(*MRAI_RANGE)
        return 0.0

    network.build_speakers(mrai_for=mrai_for)

    fib_rng = random.Random(params.seed + 2)
    fib_base: dict[str, float] = {}
    for node in internet.topology.routers():
        if node.node_id.startswith("pop-"):
            fib_base[node.node_id] = 0.0
        elif fib_rng.random() < SLOW_FIB_FRACTION:
            fib_base[node.node_id] = fib_rng.uniform(*SLOW_FIB_RANGE)
        else:
            fib_base[node.node_id] = fib_rng.uniform(*FAST_FIB_RANGE)
    jitter_rng = random.Random(params.seed + 3)

    def fib_delay_for(router_id: str) -> float:
        base = fib_base.get(router_id, 0.0)
        return base * jitter_rng.uniform(0.6, 1.4)

    network.fib_delay_for = fib_delay_for
    for pop_id in pops:
        _PopResponder(network, pop_id)
    for i in range(params.n_vantage):
        vantage.append(_VantagePoint(loop, network, f"vp-{i}",
                                     random.Random(params.seed + 100 + i)))
    return loop, network, internet, pops, vantage


def _run_case(params: Fig8Params, cloud_size: int
              ) -> tuple[FailoverSamples, FailoverSamples]:
    """One (advertise, withdraw) sample set for a given cloud size."""
    loop, network, internet, pops, vantage = _build_world(params)
    rng = random.Random(params.seed + 7)
    advertise = FailoverSamples()
    withdraw = FailoverSamples()
    order = list(pops)
    rng.shuffle(order)

    local_vps = {pop_id: _VantagePoint(loop, network, f"lvp-{pop_id}",
                                       random.Random(params.seed + 999))
                 for pop_id in pops}

    for trial in range(params.trials):
        x = order[trial % len(order)]
        others = [p for p in order if p != x]
        rng.shuffle(others)
        background = others[:cloud_size - 1]

        # Baseline: background PoPs advertise; converge.
        for pop_id in background:
            network.speaker(pop_id).originate(TEST_PREFIX)
        loop.run_until(loop.now + params.converge_time)

        # --- Advertisement case -------------------------------------------------
        for vp in vantage:
            vp.start()
        local_vps[x].start()
        loop.run_until(loop.now + 1.0)
        advert_time = loop.now
        network.speaker(x).originate(TEST_PREFIX)
        loop.run_until(loop.now + params.measure_window)
        t_l = _first_answer_time(local_vps[x].records, x, advert_time)
        for vp in vantage:
            advertise.observations += 1
            t_x = _first_answer_time(vp.records, x, advert_time)
            if t_l is None:
                continue
            if t_x is None:
                # Still served by another PoP (fine: different catchment)
                # unless probes started timing out entirely.
                tail = [r for r in vp.records if r.sent_at >= advert_time]
                answered = [r for r in tail
                            if r.responder is not None]
                if len(answered) < len(tail) * 0.5:
                    advertise.timeouts += 1
                continue
            advertise.times.append(max(0.0, t_x - t_l))
        for vp in vantage:
            vp.stop()
        local_vps[x].stop()
        loop.run_until(loop.now + 5.0)

        # --- Withdrawal case ---------------------------------------------------
        for vp in vantage:
            vp.start()
        loop.run_until(loop.now + 1.0)
        withdraw_time = loop.now
        network.speaker(x).withdraw_origin(TEST_PREFIX)
        loop.run_until(loop.now + params.measure_window)
        for vp in vantage:
            answered_before = [r for r in vp.records
                               if r.sent_at < withdraw_time
                               and r.responder is not None]
            # Only vantage points that were in X's catchment experience
            # failover.
            if not answered_before or answered_before[-1].responder != x:
                continue
            withdraw.observations += 1
            after = [r for r in vp.records if r.sent_at >= withdraw_time]
            t_phi = None
            t_y = None
            for record in after:
                if record.responder is None and t_phi is None \
                        and record.sent_at <= loop.now - PROBE_TIMEOUT:
                    t_phi = record.sent_at
                if record.responder is not None \
                        and record.responder != x:
                    t_y = record.sent_at
                    break
            if t_y is None:
                withdraw.timeouts += 1
            elif t_phi is None or t_y <= t_phi:
                withdraw.times.append(0.0)   # instantaneous reroute
            else:
                withdraw.times.append(t_y - t_phi)
        for vp in vantage:
            vp.stop()

        # Tear down: withdraw background, let state settle.
        for pop_id in background:
            network.speaker(pop_id).withdraw_origin(TEST_PREFIX)
        loop.run_until(loop.now + params.converge_time)
    return advertise, withdraw


def case_sizes(params: Fig8Params) -> tuple[int, int]:
    """The two cloud sizes one run compares (small, large)."""
    return max(2, min(2, params.n_pops)), min(21, params.n_pops - 1)


def run_case(params: Fig8Params, index: int) -> tuple[FailoverSamples,
                                                      FailoverSamples]:
    """One independent work unit: the small (0) or large (1) cloud case.

    Each case builds its own world from the same seed, so the two may
    run in separate processes; :func:`assemble` merges them in fixed
    order and yields the same result as a serial :func:`run`.
    """
    return _run_case(params, case_sizes(params)[index])


def assemble(params: Fig8Params,
             case_small: tuple[FailoverSamples, FailoverSamples],
             case_large: tuple[FailoverSamples, FailoverSamples],
             ) -> ExperimentResult:
    """Build the figure's result from the two cases' samples."""
    result = ExperimentResult("fig8", "Anycast failover time CDFs")
    _, large = case_sizes(params)
    adv2, wd2 = case_small
    adv21, wd21 = case_large

    for label, samples in (("advertise 2 PoPs", adv2),
                           ("withdraw 2 PoPs", wd2),
                           (f"advertise {large} PoPs", adv21),
                           (f"withdraw {large} PoPs", wd21)):
        arr = np.asarray(sorted(samples.times)) if samples.times \
            else np.asarray([0.0])
        result.series[label] = (arr, np.arange(1, len(arr) + 1) / len(arr))

    sub1s = fraction_below(adv2.times, 1.0) if adv2.times else 0.0
    result.metrics["advertise2_under_1s"] = sub1s
    result.compare("advertise (2 PoPs): most failovers < 1 s", "76%",
                   f"{sub1s:.0%}", sub1s >= 0.55)

    tail = fraction_at_least(wd2.times, 10.0) if wd2.times else 0.0
    result.metrics["withdraw2_tail_ge_10s"] = tail
    result.compare("withdraw (2 PoPs): heavy tail >= 10 s", "5.8%",
                   f"{tail:.1%}", 0.005 <= tail <= 0.30)

    med2 = float(np.median(wd2.times)) if wd2.times else 0.0
    med21 = float(np.median(wd21.times)) if wd21.times else 0.0
    meda2 = float(np.median(adv2.times)) if adv2.times else 0.0
    meda21 = float(np.median(adv21.times)) if adv21.times else 0.0
    result.metrics.update({
        "withdraw2_median": med2, "withdraw_large_median": med21,
        "advertise2_median": meda2, "advertise_large_median": meda21,
    })
    result.compare(f"{large}-PoP failover faster than 2-PoP (median)",
                   "~200 ms faster",
                   f"adv {meda2:.2f}->{meda21:.2f}s "
                   f"wd {med2:.2f}->{med21:.2f}s",
                   meda21 <= meda2 + 0.05 and med21 <= med2 + 0.05)

    timeout_frac = (adv2.timeouts / adv2.observations
                    if adv2.observations else 0.0)
    result.metrics["advertise2_timeout_fraction"] = timeout_frac
    result.compare("advertise timeouts are rare", "3%",
                   f"{timeout_frac:.1%}", timeout_frac <= 0.10)
    return result


def run(params: Fig8Params | None = None) -> ExperimentResult:
    """Regenerate the four Figure 8 CDFs."""
    params = params or Fig8Params()
    return assemble(params, run_case(params, 0), run_case(params, 1))
