"""Render every experiment's series as ASCII figures into markdown.

    python -m repro.tools.figures [--fast] [--out docs/FIGURES.md]

Produces a plotting-dependency-free visual record of the regenerated
figures, wrapped in a markdown code fence per experiment.
"""

from __future__ import annotations

import argparse
import sys

from ..analysis.asciiplot import PlotConfig, ascii_plot
from ..experiments.runner import run_all

LOG_X_EXPERIMENTS = {"fig3", "fig8", "fig11"}


def render_markdown(results, *, height: int = 14) -> str:
    """One markdown document with an ASCII figure per experiment."""
    parts = ["# Regenerated figures (ASCII)",
             "",
             "Produced by `python -m repro.tools.figures`. Each plot is",
             "the series an experiment regenerated; see EXPERIMENTS.md",
             "for the paper-vs-measured checks.", ""]
    for result in results:
        plottable = {}
        for label, series in result.series.items():
            if len(series) != 2 or not len(series[0]):
                continue
            try:
                xs = [float(v) for v in series[0]]
                ys = [float(v) for v in series[1]]
            except (TypeError, ValueError):
                continue
            plottable[label] = (xs, ys)
        if not plottable:
            continue
        parts.append(f"## {result.experiment_id}: {result.title}")
        parts.append("")
        parts.append("```")
        parts.append(ascii_plot(
            plottable,
            config=PlotConfig(height=height,
                              log_x=result.experiment_id
                              in LOG_X_EXPERIMENTS)))
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced-scale experiments")
    parser.add_argument("--out", default="docs/FIGURES.md",
                        help="output markdown path")
    args = parser.parse_args(argv)
    results = run_all(fast=args.fast)
    document = render_markdown(results)
    with open(args.out, "w") as handle:
        handle.write(document)
    print(f"wrote {args.out} ({len(document.splitlines())} lines)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
