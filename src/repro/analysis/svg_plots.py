"""Standalone SVG rendering of the paper's figures.

No plotting library is installed offline, so this module emits
self-contained SVG documents (no external CSS/JS) for the two chart
shapes the reproduction needs: multi-series step/line charts for the
CDFs and search traces, and horizontal bar charts for per-VM
comparisons.  :func:`render_chart_svg` draws a figure's registry chart
(:class:`repro.analysis.figures.Chart`), and ``scripts/render_figures.py``
turns every cached figure JSON that has one into an ``.svg`` next to it.

The generator is deliberately small: fixed margins, a categorical
six-colour palette, text in a generic sans-serif stack.  Everything is
deterministic, so SVG outputs are diffable across runs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.figures import Chart

#: Categorical palette (colour-blind-safe Okabe-Ito subset).
PALETTE = ("#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9")

_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 28
_MARGIN_BOTTOM = 56


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _ticks(low: float, high: float, count: int = 5) -> list[float]:
    if high <= low:
        high = low + 1.0
    step = (high - low) / (count - 1)
    return [low + i * step for i in range(count)]


def line_chart_svg(
    series: Mapping[str, Sequence[float]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 560,
    height: int = 360,
    y_min: float | None = None,
    y_max: float | None = None,
) -> str:
    """Render equal-length series as an SVG line chart (x = 1-based index).

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

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def x_pos(index: int) -> float:
        return _MARGIN_LEFT + plot_w * (index / max(n_points - 1, 1))

    def y_pos(value: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (value - low) / (high - low))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="16" text-anchor="middle" font-size="13" '
            f'font-weight="bold">{_escape(title)}</text>'
        )

    # Axes, gridlines and tick labels.
    for tick in _ticks(low, high):
        y = y_pos(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.1f}" x2="{width - _MARGIN_RIGHT}" '
            f'y2="{y:.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{y + 4:.1f}" text-anchor="end">'
            f"{tick:.2f}</text>"
        )
    x_tick_step = max(1, (n_points - 1) // 8 or 1)
    for index in range(0, n_points, x_tick_step):
        x = x_pos(index)
        parts.append(
            f'<text x="{x:.1f}" y="{height - _MARGIN_BOTTOM + 16}" '
            f'text-anchor="middle">{index + 1}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333"/>'
    )
    if x_label:
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2}" y="{height - 20}" '
            f'text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        y_mid = _MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="14" y="{y_mid}" text-anchor="middle" '
            f'transform="rotate(-90 14 {y_mid})">{_escape(y_label)}</text>'
        )

    # Series polylines and legend.
    for colour, (label, values) in zip(PALETTE, series.items()):
        points = " ".join(
            f"{x_pos(i):.1f},{y_pos(v):.1f}" for i, v in enumerate(values)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{colour}" '
            f'stroke-width="2"/>'
        )
    legend_x = _MARGIN_LEFT + 8
    for row, (colour, label) in enumerate(zip(PALETTE, series)):
        y = height - 18 - 0  # single line legend below x label? keep inside plot
        y = _MARGIN_TOP + 14 + row * 14
        parts.append(
            f'<line x1="{legend_x}" y1="{y - 4}" x2="{legend_x + 18}" y2="{y - 4}" '
            f'stroke="{colour}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{legend_x + 24}" y="{y}">{_escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def bar_chart_svg(
    bars: Mapping[str, float],
    title: str = "",
    unit: str = "",
    width: int = 560,
    bar_height: int = 18,
) -> str:
    """Render a label -> value mapping as a horizontal SVG bar chart.

    Raises:
        ValueError: if ``bars`` is empty or any value is negative.
    """
    if not bars:
        raise ValueError("need at least one bar")
    if any(value < 0 for value in bars.values()):
        raise ValueError("bar values must be non-negative")

    top = max(bars.values()) or 1.0
    label_w = 110
    value_w = 64
    plot_w = width - label_w - value_w - 16
    height = _MARGIN_TOP + len(bars) * (bar_height + 6) + 12

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="16" text-anchor="middle" font-size="13" '
            f'font-weight="bold">{_escape(title)}</text>'
        )
    for row, (label, value) in enumerate(bars.items()):
        y = _MARGIN_TOP + row * (bar_height + 6)
        bar_w = plot_w * value / top
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_height - 5}" text-anchor="end">'
            f"{_escape(label)}</text>"
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{bar_w:.1f}" height="{bar_height}" '
            f'fill="{PALETTE[0]}"/>'
        )
        parts.append(
            f'<text x="{label_w + bar_w + 6:.1f}" y="{y + bar_height - 5}">'
            f"{value:.2f}{_escape(unit)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def render_chart_svg(chart: Chart, payload: dict) -> str:
    """Draw a registry chart over a figure payload as an SVG document."""
    data = chart.series(payload)
    title = chart.title.format_map(payload)
    if chart.kind == "bar":
        return bar_chart_svg(data, title=title, unit=chart.unit)
    y_min, y_max = chart.y_range or (None, None)
    return line_chart_svg(
        data,
        title=title,
        x_label=chart.x_label,
        y_label=chart.y_label,
        y_min=y_min,
        y_max=y_max,
    )
