"""Distribution helpers shared by experiments and benchmarks."""

from __future__ import annotations

import numpy as np


def cdf_points(values, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (x, F(x)) pairs; optionally weighted (e.g. by query rate)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one value")
    order = np.argsort(values)
    x = values[order]
    if weights is None:
        y = np.arange(1, len(x) + 1) / len(x)
    else:
        w = np.asarray(weights, dtype=float)[order]
        y = np.cumsum(w) / np.sum(w)
    return x, y


def fraction_below(values, threshold, weights=None) -> float:
    """Weighted fraction of values strictly below ``threshold``."""
    values = np.asarray(values, dtype=float)
    mask = values < threshold
    if weights is None:
        return float(np.mean(mask))
    w = np.asarray(weights, dtype=float)
    total = np.sum(w)
    return float(np.sum(w[mask]) / total) if total else 0.0


def fraction_at_least(values, threshold, weights=None) -> float:
    """Weighted fraction of values >= ``threshold``."""
    return 1.0 - fraction_below(values, threshold, weights)


def pdf_histogram(values, weights=None, bins=50,
                  value_range=None) -> tuple[np.ndarray, np.ndarray]:
    """(bin centers, normalized density) for PDF-style figures."""
    density, edges = np.histogram(np.asarray(values, dtype=float),
                                  bins=bins, range=value_range,
                                  weights=weights, density=True)
    centers = (edges[:-1] + edges[1:]) / 2
    return centers, density
