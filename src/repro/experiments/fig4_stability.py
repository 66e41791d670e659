"""Figure 4: week-over-week change in per-resolver query rate.

The paper takes two one-hour samples exactly one week apart at one
nameserver and computes per-resolver percent difference in queries
sent, weighted by query volume: 53% of the weighted mass lies within
+-10%. We reproduce with the population's weekly drift model plus
Poisson sampling noise for the one-hour windows.
"""

from __future__ import annotations

import random

import numpy as np

from ..analysis.report import ExperimentResult
from ..analysis.stats import pdf_histogram
from ..workload.population import ResolverPopulation

HOUR = 3600


def run(seed: int = 42, n_resolvers: int = 20_000,
        nameserver_share: float = 0.0002) -> ExperimentResult:
    """Regenerate the weighted PDF of percent rate change."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    population = ResolverPopulation(rng, n_resolvers)

    rates_before = {r.address: r.base_rate * nameserver_share
                    for r in population.resolvers}
    population.advance_week()
    changes: list[float] = []
    weights: list[float] = []
    for resolver in population.resolvers:
        before_rate = rates_before.get(resolver.address)
        if before_rate is None:
            continue  # churned in this week
        after_rate = resolver.base_rate * nameserver_share
        sample_before = np_rng.poisson(before_rate * HOUR)
        sample_after = np_rng.poisson(after_rate * HOUR)
        if sample_before == 0:
            continue  # not observed in the first sample
        change = (sample_after - sample_before) / sample_before
        changes.append(float(np.clip(change, -1.0, 1.0)))
        weights.append(float(sample_after))

    changes_arr = np.asarray(changes)
    weights_arr = np.asarray(weights)
    result = ExperimentResult(
        "fig4", "Change in query rate of resolvers in a week")
    result.series["pdf"] = pdf_histogram(changes_arr, weights=weights_arr,
                                         bins=41, value_range=(-1.0, 1.0))

    total = weights_arr.sum()
    within_10 = float(weights_arr[np.abs(changes_arr) <= 0.10].sum()
                      / total)
    within_25 = float(weights_arr[np.abs(changes_arr) <= 0.25].sum()
                      / total)
    result.metrics["weighted_within_10pct"] = within_10
    result.metrics["weighted_within_25pct"] = within_25
    result.compare("~53% of weighted resolvers within +-10%", "53%",
                   f"{within_10:.1%}", 0.40 <= within_10 <= 0.70)
    result.compare("distribution concentrated near zero",
                   "mode at 0%", f"within +-25%: {within_25:.1%}",
                   within_25 >= within_10 and within_25 >= 0.6)
    return result
