"""Terminal rendering of experiment series: CDF/line plots in ASCII.

The experiment runner and examples use these to show the regenerated
figures without any plotting dependency. Output is deterministic, so
tests can assert on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_MARKS = "*o+x#@%&"
WIDTH = 64


@dataclass(slots=True)
class PlotConfig:
    """Canvas height and axis behaviour."""

    height: int = 16
    log_x: bool = False


def _scale(value: float, lo: float, hi: float, steps: int,
           log: bool = False) -> int:
    if log:
        value, lo, hi = (math.log10(max(v, 1e-12))
                         for v in (value, lo, hi))
    if hi <= lo:
        return 0
    position = (value - lo) / (hi - lo)
    return min(steps - 1, max(0, int(position * (steps - 1) + 0.5)))


def ascii_plot(series: dict[str, tuple], *,
               config: PlotConfig | None = None,
               title: str = "", x_label: str = "",
               y_label: str = "") -> str:
    """Render named (xs, ys) series onto one shared canvas.

    Each series gets a distinct mark; the legend maps marks to names.
    """
    config = config or PlotConfig()
    cleaned = {label: (list(map(float, xs)), list(map(float, ys)))
               for label, (xs, ys) in series.items()
               if len(xs) and len(xs) == len(ys)}
    if not cleaned:
        raise ValueError("nothing to plot")
    all_x = [x for xs, _ in cleaned.values() for x in xs]
    all_y = [y for _, ys in cleaned.values() for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if config.log_x:
        x_lo = max(x_lo, 1e-12)

    grid = [[" "] * WIDTH for _ in range(config.height)]
    for index, (label, (xs, ys)) in enumerate(cleaned.items()):
        mark = _MARKS[index % len(_MARKS)]
        for x, y in zip(xs, ys):
            col = _scale(x, x_lo, x_hi, WIDTH, config.log_x)
            row = config.height - 1 - _scale(y, y_lo, y_hi, config.height)
            grid[row][col] = mark

    lines = []
    if title:
        lines.append(title.center(WIDTH + 10))
    for row_index, row in enumerate(grid):
        y_value = y_hi - (y_hi - y_lo) * row_index / (config.height - 1)
        lines.append(f"{y_value:>9.3g} |" + "".join(row))
    lines.append(" " * 10 + "+" + "-" * WIDTH)
    left = f"{x_lo:.3g}"
    right = f"{x_hi:.3g}"
    pad = WIDTH - len(left) - len(right)
    lines.append(" " * 11 + left + " " * max(1, pad) + right)
    if x_label:
        lines.append(x_label.center(WIDTH + 10))
    legend = "   ".join(f"{_MARKS[i % len(_MARKS)]} {label}"
                        for i, label in enumerate(cleaned))
    lines.append(" " * 11 + legend)
    return "\n".join(lines)
