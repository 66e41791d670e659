"""Figure 11: speedup of Two-Tier delegation over a single toplevel tier.

Follows the paper's methodology (section 5.2): measure per-probe RTTs to
the 13 anycast toplevel clouds (T) and to the mapping-chosen lowlevel
nameservers (L) — here on the simulated Internet instead of RIPE Atlas —
and combine them with per-resolver toplevel-contact fractions rT derived
from a calibrated demand distribution (mean rT ~0.48, query-weighted
mean ~0.008 in the paper). Speedup S follows Eq. 1; the figure's four
CDFs are S by resolvers and by queries, under uniform ("avg RTT") and
RTT-inverse ("wgt RTT") delegation selection.

Shape targets: L < T for the large majority of probes; S > 1 for 47-64%
of resolvers which carry 87-98% of queries; the query-weighted lines
dominate the resolver lines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from ..analysis.report import ExperimentResult
from ..netsim.anycast import AnycastCloud
from ..netsim.builder import (
    InternetParams,
    attach_host,
    attach_pop,
    build_internet,
)
from ..netsim.clock import EventLoop
from ..netsim.network import Network
from ..platform.twotier import (
    HOSTNAME_TTL,
    average_rtt,
    expected_rt,
    speedup,
    weighted_rtt,
)

N_TOPLEVEL_CLOUDS = 13
POPS_PER_CLOUD = 3
#: Nearest reachable lowlevels a probe averages over.
LOWLEVELS_PER_PROBE = 2
#: Lognormal end-user demand per resolver, calibrated so mean rT is
#: ~0.48 while the query-weighted mean is ~0.008 (section 5.2).
DEMAND_MEDIAN_QPS = 1e-3
DEMAND_SIGMA = 3.6


@dataclass(slots=True)
class Fig11Params:
    """Scale and calibration knobs."""

    seed: int = 42
    internet: InternetParams = field(
        default_factory=lambda: InternetParams(n_tier1=6, n_tier2=24,
                                               n_stub=90))
    n_probes: int = 120
    n_edges: int = 80
    n_resolvers: int = 4_000


@dataclass(slots=True)
class TwoTierDataset:
    """Everything figs 11 and 12 derive their numbers from."""

    avg_T: np.ndarray
    wgt_T: np.ndarray
    L: np.ndarray
    r_t: np.ndarray
    query_weight: np.ndarray
    lowlevel_beats_avg: float
    lowlevel_beats_wgt: float


def build_dataset(params: Fig11Params | None = None) -> TwoTierDataset:
    """Measure (T, L) per probe and sample rT per simulated resolver."""
    params = params or Fig11Params()
    rng = random.Random(params.seed)
    internet = build_internet(rng, params.internet)
    n_pops = N_TOPLEVEL_CLOUDS * POPS_PER_CLOUD
    pops = [attach_pop(internet, rng) for _ in range(n_pops)]
    # CDN edges deploy *inside* eyeball networks (1,600 networks in the
    # paper): spread them across distinct stub ASes.
    stub_cycle = list(internet.stubs)
    rng.shuffle(stub_cycle)
    edges = [attach_host(internet, rng, host_id=f"edge-{i}",
                         attach_to=stub_cycle[i % len(stub_cycle)])
             for i in range(params.n_edges)]
    probes = [attach_host(internet, rng, host_id=f"probe-{i}")
              for i in range(params.n_probes)]

    loop = EventLoop()
    network = Network(loop, internet.topology, rng)
    network.build_speakers()

    clouds = []
    for c in range(N_TOPLEVEL_CLOUDS):
        prefix = f"toplevel-{c}"
        cloud = AnycastCloud(prefix, network)
        for k in range(POPS_PER_CLOUD):
            pop = pops[(c * POPS_PER_CLOUD + k) % len(pops)]
            network.register_local_delivery(pop, prefix, lambda d: None)
            cloud.advertise(pop)
        clouds.append(cloud)
    loop.run_until(120)

    avg_T: list[float] = []
    wgt_T: list[float] = []
    low_L: list[float] = []
    for probe in probes:
        toplevel_rtts = []
        for cloud in clouds:
            pop = cloud.catchment_of(probe)
            if pop is None:
                continue
            rtt = network.unicast_rtt_ms(probe, pop)
            if rtt is not None:
                toplevel_rtts.append(rtt)
        if not toplevel_rtts:
            continue
        # Mapping picks edges by measured network proximity (the Akamai
        # mapping system measures the network, not the map [11]).
        edge_rtts = [(network.unicast_rtt_ms(probe, edge), edge)
                     for edge in edges]
        reachable = sorted((r, e) for r, e in edge_rtts if r is not None)
        lowlevel_rtts = [r for r, _ in reachable[:LOWLEVELS_PER_PROBE]]
        if not lowlevel_rtts:
            continue
        avg_T.append(average_rtt(toplevel_rtts))
        wgt_T.append(weighted_rtt(toplevel_rtts))
        low_L.append(average_rtt(lowlevel_rtts))

    avg_arr, wgt_arr, low_arr = (np.asarray(avg_T), np.asarray(wgt_T),
                                 np.asarray(low_L))

    # Per-resolver demand -> rT and query weight (lowlevel fetch rate).
    demand_rng = random.Random(params.seed + 1)
    mu = math.log(DEMAND_MEDIAN_QPS)
    demands = np.array([demand_rng.lognormvariate(mu, DEMAND_SIGMA)
                        for _ in range(params.n_resolvers)])
    r_t = np.array([expected_rt(q) for q in demands])
    query_weight = demands / (1.0 + HOSTNAME_TTL * demands)

    # Pair each simulated resolver with a probe's (T, L) measurement,
    # cycling through probes — the paper's cross-product combination.
    idx = np.arange(params.n_resolvers) % len(avg_arr)
    return TwoTierDataset(
        avg_T=avg_arr[idx], wgt_T=wgt_arr[idx], L=low_arr[idx],
        r_t=r_t, query_weight=query_weight,
        lowlevel_beats_avg=float(np.mean(low_arr < avg_arr)),
        lowlevel_beats_wgt=float(np.mean(low_arr < wgt_arr)))


def speedups(dataset: TwoTierDataset) -> dict[str, np.ndarray]:
    """Per-resolver speedup under both RTT aggregation models."""
    out = {}
    for label, T in (("avg", dataset.avg_T), ("wgt", dataset.wgt_T)):
        out[label] = np.array([
            speedup(t, l, r)
            for t, l, r in zip(T, dataset.L, dataset.r_t)])
    return out


def run(params: Fig11Params | None = None) -> ExperimentResult:
    """Regenerate the four Figure 11 CDFs and headline fractions."""
    params = params or Fig11Params()
    dataset = build_dataset(params)
    s = speedups(dataset)
    result = ExperimentResult(
        "fig11", "Speedup of Two-Tier over a single tier of toplevels")

    weights = dataset.query_weight
    for label in ("avg", "wgt"):
        values = s[label]
        order = np.argsort(values)
        result.series[f"{label} RTT - R"] = (
            values[order], np.arange(1, len(values) + 1) / len(values))
        w = weights[order]
        result.series[f"{label} RTT - Q"] = (values[order],
                                             np.cumsum(w) / np.sum(w))

    frac_r_avg = float(np.mean(s["avg"] > 1.0))
    frac_r_wgt = float(np.mean(s["wgt"] > 1.0))
    frac_q_avg = float(np.sum(weights[s["avg"] > 1.0]) / np.sum(weights))
    frac_q_wgt = float(np.sum(weights[s["wgt"] > 1.0]) / np.sum(weights))
    mean_rt = float(np.mean(dataset.r_t))
    wgt_rt = float(np.average(dataset.r_t, weights=weights))
    result.metrics.update({
        "resolvers_speedup_avg": frac_r_avg,
        "resolvers_speedup_wgt": frac_r_wgt,
        "queries_speedup_avg": frac_q_avg,
        "queries_speedup_wgt": frac_q_wgt,
        "mean_rt": mean_rt,
        "weighted_mean_rt": wgt_rt,
        "lowlevel_beats_avg": dataset.lowlevel_beats_avg,
        "lowlevel_beats_wgt": dataset.lowlevel_beats_wgt,
    })

    result.compare("lowlevel RTT < toplevel RTT (avg) for ~98% of probes",
                   "98%", f"{dataset.lowlevel_beats_avg:.0%}",
                   dataset.lowlevel_beats_avg >= 0.80)
    result.compare("lowlevel RTT < toplevel RTT (wgt) for ~87% of probes",
                   "87%", f"{dataset.lowlevel_beats_wgt:.0%}",
                   dataset.lowlevel_beats_wgt >= 0.65)
    result.compare("S>1 for 47-64% of resolvers",
                   "47% (wgt) / 64% (avg)",
                   f"{frac_r_wgt:.0%} (wgt) / {frac_r_avg:.0%} (avg)",
                   0.30 <= frac_r_wgt <= 0.80
                   and 0.40 <= frac_r_avg <= 0.90
                   and frac_r_avg >= frac_r_wgt - 0.02)
    result.compare("those resolvers carry 87-98% of queries",
                   "87% (wgt) / 98% (avg)",
                   f"{frac_q_wgt:.0%} (wgt) / {frac_q_avg:.0%} (avg)",
                   frac_q_wgt >= 0.75 and frac_q_avg >= 0.85)
    result.compare("mean rT ~0.48", "0.48", f"{mean_rt:.2f}",
                   0.35 <= mean_rt <= 0.60)
    result.compare("query-weighted mean rT << mean (paper 0.008)",
                   "0.008", f"{wgt_rt:.3f}", wgt_rt <= 0.08)
    return result
