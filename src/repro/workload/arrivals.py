"""Arrival processes: diurnal platform load and per-resolver burstiness.

Figure 1 shows platform load cycling 3.9M-5.6M qps with a daily rhythm
and a weekend dip; Figure 3 shows individual resolvers are bursty (the
busiest averages 173 qps but peaks at 2,352). The diurnal model is a
harmonic profile over the week; per-resolver traffic is an ON/OFF
modulated Poisson process whose peak-to-mean ratio is the resolver's
``burstiness``.
"""

from __future__ import annotations

import math

import numpy as np

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
#: Figure 1's range, 3.9M-5.6M qps, with weekends ~8% below weekdays.
TROUGH_QPS = 3_900_000.0
PEAK_QPS = 5_600_000.0
WEEKEND_DIP = 0.92
PEAK_HOUR_UTC = 15.0   # aggregate peak across world regions


class DiurnalModel:
    """Weekly query-rate profile calibrated to Figure 1.

    ``rate(t)`` returns platform qps at second ``t`` of the week
    (t=0 is Sunday 00:00).
    """

    def rate(self, t: float) -> float:
        day_fraction = (t % SECONDS_PER_DAY) / SECONDS_PER_DAY
        phase = 2 * math.pi * (day_fraction - PEAK_HOUR_UTC / 24.0)
        mid = (PEAK_QPS + TROUGH_QPS) / 2
        amplitude = (PEAK_QPS - TROUGH_QPS) / 2
        base = mid + amplitude * math.cos(phase)
        day_index = int(t // SECONDS_PER_DAY) % 7
        if day_index in (0, 6):  # Sunday, Saturday
            base *= WEEKEND_DIP
        return base

    def series(self, step_seconds: float = 3600.0,
               duration: float = SECONDS_PER_WEEK
               ) -> tuple[np.ndarray, np.ndarray]:
        """(times, rates) sampled across a week, for Figure 1."""
        times = np.arange(0.0, duration, step_seconds)
        rates = np.array([self.rate(t) for t in times])
        return times, rates


def bursty_counts(rng: np.random.Generator, mean_qps: float,
                  burstiness: float, seconds: int,
                  on_fraction: float | None = None) -> np.ndarray:
    """Per-second counts for an ON/OFF modulated Poisson process.

    During ON periods the instantaneous rate is ``burstiness`` times the
    value that preserves the requested mean; OFF periods are silent.
    ``on_fraction`` defaults to 1/burstiness so the long-run mean equals
    ``mean_qps`` while peaks reach ``burstiness * mean_qps``.
    """
    if burstiness < 1.0:
        raise ValueError("burstiness must be >= 1")
    if on_fraction is None:
        on_fraction = 1.0 / burstiness
    on_rate = mean_qps / on_fraction
    # Alternate ON/OFF periods with geometric lengths (mean 60 s ON).
    # Hot loop (called per resolver-zone pair): the RNG draws are scalar
    # and order-dependent, so only call/lookup overhead is trimmed here —
    # the draw sequence must stay bit-identical to the naive loop.
    counts = np.zeros(seconds, dtype=np.int64)
    t = 0
    on = rng.random() < on_fraction
    exponential = rng.exponential
    poisson = rng.poisson
    mean_on = 60.0
    mean_off = 60.0 * (1 - on_fraction) / on_fraction
    while t < seconds:
        length = int(exponential(mean_on if on else mean_off))
        if length < 1:
            length = 1
        end = t + length
        if end > seconds:
            end = seconds
        if on:
            counts[t:end] = poisson(on_rate, size=end - t)
        t = end
        on = not on
    return counts
