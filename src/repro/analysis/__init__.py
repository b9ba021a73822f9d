"""Experiment harness and the paper's evaluation metrics.

* :mod:`repro.analysis.runner` — run optimisers over (workload, seed)
  grids with an on-disk cache, so every figure's data is computed once,
* :mod:`repro.analysis.regions` — the Region I/II/III classification of
  Figure 1,
* :mod:`repro.analysis.metrics` — search cost to optimum, CDF curves,
  win/draw/loss accounting (Figures 9, 12, 13),
* :mod:`repro.analysis.stats` — median/IQR summaries for the
  search-trace plots (Figure 10),
* :mod:`repro.analysis.figures` — the registry of the paper's tables and
  figures: build call, paper-vs-measured rows and chart of each.
"""

from repro.analysis.runner import ExperimentRunner, RunGrid
from repro.analysis.regions import Region, classify_region, region_counts
from repro.analysis.metrics import (
    Comparison,
    Outcome,
    compare_methods,
    cost_to_optimum,
    solved_fraction_curve,
)
from repro.analysis.stats import median_iqr_curve, summarize
from repro.analysis.ascii_plots import bar_chart, line_chart
from repro.analysis.svg_plots import bar_chart_svg, line_chart_svg

__all__ = [
    "ExperimentRunner",
    "RunGrid",
    "Region",
    "classify_region",
    "region_counts",
    "cost_to_optimum",
    "solved_fraction_curve",
    "Comparison",
    "Outcome",
    "compare_methods",
    "median_iqr_curve",
    "summarize",
    "line_chart",
    "bar_chart",
    "line_chart_svg",
    "bar_chart_svg",
]
