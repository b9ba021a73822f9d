"""Terminal rendering of the paper's figures.

No plotting library is available offline, so the CLI renders figures as
ASCII charts: multi-series line charts for the CDFs and search traces
(Figures 1, 2, 9, 10) and horizontal bar charts for per-VM comparisons
(Figures 4, 6, 8).  Output is deterministic, monospace-aligned text.
:func:`render_chart` draws a figure's registry chart
(:class:`repro.analysis.figures.Chart`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.figures import Chart

#: Glyphs assigned to series, in order.
SERIES_GLYPHS = "*o+x#@%&"


def _scale(value: float, low: float, high: float, size: int) -> int:
    """Map ``value`` in [low, high] to a cell index in [0, size - 1]."""
    if high <= low:
        return 0
    position = (value - low) / (high - low)
    return min(size - 1, max(0, int(round(position * (size - 1)))))


def line_chart(
    series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
    y_min: float | None = None,
    y_max: float | None = None,
) -> str:
    """Render one or more equal-length series as an ASCII line chart.

    Args:
        series: label -> values; x is the 1-based index.
        width, height: plot area size in characters.
        x_label, y_label: axis captions.
        y_min, y_max: fix the y range (defaults to the data range).

    Raises:
        ValueError: if there are no series, they are empty, or lengths
            differ.
    """
    if not series:
        raise ValueError("need at least one series")
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    (n_points,) = lengths
    if n_points == 0:
        raise ValueError("series must not be empty")

    all_values = [v for values in series.values() for v in values]
    low = min(all_values) if y_min is None else y_min
    high = max(all_values) if y_max is None else y_max
    if high == low:
        high = low + 1.0

    grid = [[" "] * width for _ in range(height)]
    for glyph, (label, values) in zip(SERIES_GLYPHS, series.items()):
        for index, value in enumerate(values):
            col = _scale(index, 0, max(n_points - 1, 1), width)
            row = height - 1 - _scale(value, low, high, height)
            grid[row][col] = glyph

    lines = []
    legend = "   ".join(
        f"{glyph} {label}" for glyph, label in zip(SERIES_GLYPHS, series)
    )
    if y_label:
        lines.append(f"{y_label}")
    for row_index, row in enumerate(grid):
        tick = high - (high - low) * row_index / max(height - 1, 1)
        lines.append(f"{tick:>8.2f} |{''.join(row)}|")
    lines.append(" " * 9 + "+" + "-" * width + "+")
    x_axis = f"1{'':>{width - len(str(n_points)) - 1}}{n_points}"
    lines.append(" " * 10 + x_axis)
    if x_label:
        lines.append(" " * 10 + x_label.center(width))
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def bar_chart(
    bars: Mapping[str, float],
    width: int = 48,
    unit: str = "",
    max_value: float | None = None,
) -> str:
    """Render a label -> value mapping as a horizontal ASCII bar chart.

    Raises:
        ValueError: if ``bars`` is empty or any value is negative.
    """
    if not bars:
        raise ValueError("need at least one bar")
    if any(value < 0 for value in bars.values()):
        raise ValueError("bar values must be non-negative")
    top = max(bars.values()) if max_value is None else max_value
    top = top or 1.0
    label_width = max(len(label) for label in bars)
    lines = []
    for label, value in bars.items():
        filled = _scale(value, 0.0, top, width + 1)
        lines.append(
            f"{label:<{label_width}} |{'#' * filled}{' ' * (width - filled)}|"
            f" {value:.2f}{unit}"
        )
    return "\n".join(lines)


def render_chart(chart: Chart, payload: dict) -> str:
    """Draw a registry chart over a figure payload, caption underneath.

    The terminal chart carries no title: ``arrow figure`` names the
    figure on its command line.
    """
    data = chart.series(payload)
    if chart.kind == "bar":
        text = bar_chart(data, unit=chart.unit)
    else:
        y_min, y_max = chart.y_range or (None, None)
        text = line_chart(
            data, x_label=chart.x_label, y_label=chart.y_label, y_min=y_min, y_max=y_max
        )
    if chart.caption:
        text += "\n\n" + chart.caption.format_map(payload)
    return text
