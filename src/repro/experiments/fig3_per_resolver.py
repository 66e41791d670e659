"""Figure 3: avg/max queries per second per resolver at one nameserver.

The paper samples one modestly-loaded nameserver over 24 hours: ~60K
resolvers, most sending almost nothing (<1% average above 1 qps), the
busiest averaging 173 qps, and bursts peaking at 2,352 qps — a
peak-to-mean ratio above 10. We reproduce the distribution by pushing
the calibrated resolver population through bursty per-second arrival
processes, then building the avg and max CDFs.
"""

from __future__ import annotations

import random

import numpy as np

from ..analysis.report import ExperimentResult
from ..analysis.stats import cdf_points
from ..workload.arrivals import bursty_counts
from ..workload.population import ResolverPopulation

SECONDS = 86_400
#: The population size ``nameserver_share`` is calibrated at.
CALIBRATED_RESOLVERS = 20_000


def run(seed: int = 42, n_resolvers: int = CALIBRATED_RESOLVERS,
        nameserver_share: float = 0.0002,
        simulate_threshold_qps: float = 0.02) -> ExperimentResult:
    """Regenerate the avg/max per-resolver CDFs.

    ``nameserver_share`` scales the platform-wide population down to one
    modestly-loaded nameserver (one machine among tens of thousands).
    The population spreads one platform-wide ``total_qps`` over however
    many resolvers it is given, so the share shrinks with the population
    to keep each resolver's rate at this nameserver what it is at
    ``CALIBRATED_RESOLVERS``.
    Resolvers above ``simulate_threshold_qps`` get full per-second
    ON/OFF simulation; the long tail is handled analytically (a resolver
    sending k queries uniformly in a day has max >= 1 iff k >= 1).
    """
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    population = ResolverPopulation(rng, n_resolvers)
    nameserver_share *= n_resolvers / CALIBRATED_RESOLVERS

    averages: list[float] = []
    maxima: list[float] = []
    for resolver in population.resolvers:
        rate = resolver.base_rate * nameserver_share
        if rate >= simulate_threshold_qps:
            counts = bursty_counts(np_rng, rate, resolver.burstiness,
                                   SECONDS)
            averages.append(float(counts.mean()))
            maxima.append(float(counts.max()))
        else:
            total = np_rng.poisson(rate * SECONDS)
            averages.append(total / SECONDS)
            maxima.append(1.0 if total > 0 else 0.0)

    avg_arr = np.asarray(averages)
    max_arr = np.asarray(maxima)
    result = ExperimentResult(
        "fig3", "Avg/max queries per second per resolver, 24 hours")
    result.series["avg"] = cdf_points(avg_arr[avg_arr > 0])
    result.series["max"] = cdf_points(max_arr[max_arr > 0])

    over_1qps = float(np.mean(avg_arr > 1.0))
    top_avg = float(avg_arr.max())
    top_max = float(max_arr.max())
    busy = avg_arr >= simulate_threshold_qps
    peak_to_mean = float(np.median(max_arr[busy] / avg_arr[busy])) \
        if busy.any() else 0.0
    result.metrics.update({
        "fraction_over_1qps": over_1qps,
        "highest_avg_qps": top_avg,
        "highest_max_qps": top_max,
        "median_peak_to_mean_busy": peak_to_mean,
    })
    result.compare("<1% of resolvers average over 1 qps", "<1%",
                   f"{over_1qps:.2%}", over_1qps < 0.01)
    result.compare("highest average ~173 qps", "173",
                   f"{top_avg:.0f}", 50 <= top_avg <= 600)
    result.compare("highest 1-sec burst ~2352 qps", "2352",
                   f"{top_max:.0f}", 500 <= top_max <= 8000)
    result.compare("bursty: max >> avg for busy resolvers",
                   "2352/173 ~= 13.6x",
                   f"median {peak_to_mean:.1f}x", peak_to_mean >= 3.0)
    return result
