"""Statistics helpers and experiment reporting."""

from .asciiplot import PlotConfig, ascii_plot
from .report import Comparison, ExperimentResult, render_results
from .stats import (
    cdf_points,
    fraction_at_least,
    fraction_below,
    pdf_histogram,
)

__all__ = [
    "Comparison", "ExperimentResult", "PlotConfig", "ascii_plot",
    "cdf_points", "fraction_at_least", "fraction_below", "pdf_histogram",
    "render_results",
]
