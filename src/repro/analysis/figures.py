"""The paper's evaluation as one registry: every claim, chart and build step.

Each table and figure of the paper's evaluation (Table I, Figures 1-13
and Section III-C) is one :class:`Figure` in :data:`FIGURES`, in the
order of the experiment index.  An entry states, once:

* its name and index title (``arrow experiments``, ``arrow figure``),
* the bench that asserts the shape of its claim
  (``benchmarks/<bench>``),
* how to build its JSON payload with an
  :class:`~repro.analysis.runner.ExperimentRunner`, and with how many
  repeats (``scripts/build_cache.py``, the benches),
* its paper-vs-measured table — heading, ``(quantity, paper, measured)``
  rows and an optional note, all computed from the payload (EXPERIMENTS.md
  and the benches' printed blocks),
* optionally a :class:`Chart`, which
  :func:`~repro.analysis.ascii_plots.render_chart` draws in the terminal
  and :func:`~repro.analysis.svg_plots.render_chart_svg` as SVG.

Headings, chart titles and captions are ``str.format_map`` templates
over the payload, so ``"{workload}"`` names the figure's workload.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from repro.analysis import experiments as exp
from repro.analysis.runner import ExperimentRunner
from repro.core.objectives import Objective

Row = tuple[str, str, str]


class Repeats(NamedTuple):
    """Repeats per grid point: the default and ``build_cache.py --fast``."""

    default: int
    fast: int


FULL = Repeats(exp.FULL_REPEATS, 3)
SINGLE = Repeats(exp.SINGLE_REPEATS, 5)
SWEEP = Repeats(exp.SWEEP_REPEATS, 2)


@dataclass(frozen=True)
class Chart:
    """A figure's chart: a line chart of curves or a bar chart of values.

    ``series`` maps the payload to ``label -> curve`` (line) or
    ``label -> value`` (bar).  ``caption`` is printed under the terminal
    chart only; the SVG carries the title instead.
    """

    kind: str  # "line" or "bar"
    series: Callable[[dict], Mapping[str, Sequence[float] | float]]
    title: str
    x_label: str = ""
    y_label: str = ""
    y_range: tuple[float, float] | None = None
    unit: str = ""
    caption: str = ""


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper's evaluation."""

    name: str
    title: str
    bench: str
    compute: Callable[[ExperimentRunner | None, int | None], dict]
    repeats: Repeats | None
    heading: str
    rows: Callable[[dict], list[Row]]
    note: str = ""
    chart: Chart | None = None

    def build(self, runner: ExperimentRunner | None = None, *, fast: bool = False) -> dict:
        """Compute the figure's JSON payload (``repeats`` is ``None`` for
        figures that only read the trace)."""
        if self.repeats is None:
            return self.compute(runner, None)
        return self.compute(runner, self.repeats.fast if fast else self.repeats.default)

    def heading_for(self, payload: dict) -> str:
        return self.heading.format_map(payload)


def _pct(x: float) -> str:
    return f"{x:.0%}"


def _counts(counts: dict) -> str:
    return f"{counts['win']} / {counts['same']} / {counts['draw']} / {counts['loss']}"


_SEARCH_COST = "search cost (# of measurements)"
_SOLVED = "fraction of workloads solved"


def _table1_rows(p: dict) -> list[Row]:
    cats = p["applications_by_category"]
    return [
        ("workloads", "107", str(p["n_workloads"])),
        ("applications", "30", str(p["n_applications"])),
        ("frameworks", "Hadoop 2.7, Spark 1.5, Spark 2.1", ", ".join(p["frameworks"])),
        ("micro / OLAP / statistics / ML apps", "4 / 3 / 9 / 14",
         " / ".join(str(len(cats[k])) for k in (
             "Micro Benchmark", "OLAP", "Statistics Function", "Machine Learning"))),
    ]


def _fig1_rows(p: dict) -> list[Row]:
    regions = p["regions"]
    return [
        ("workloads solved within 6 measurements", "~50%", _pct(p["solved_at_6"])),
        ("workloads solved within 12 measurements", "~85%", _pct(p["solved_at_12"])),
        ("Region I / II / III", "~54 / ~37 / ~16",
         f"{regions['Region I']} / {regions['Region II']} / {regions['Region III']}"),
    ]


def _fig2_rows(p: dict) -> list[Row]:
    return [
        ("normalised time after 5 measurements", "~1.75x", f"{p['median_at_5']:.2f}x"),
        ("median measurements to optimum", "~13", f"{p['steps_to_optimum_median']:.0f}"),
    ]


def _fig3_rows(p: dict) -> list[Row]:
    return [
        ("max execution-time spread", "up to 20x", f"{p['max_time_spread']:.1f}x"),
        ("max deployment-cost spread", "up to 10x", f"{p['max_cost_spread']:.1f}x"),
        ("worst-time workload", "classification/Spark 1.5", p["max_time_workload"]),
        ("worst-cost workload", "linear regression", p["max_cost_workload"]),
    ]


def _fig4_rows(p: dict) -> list[Row]:
    fastest = p["expensive_optimal_time_fraction"]
    cheapest = p["cheap_optimal_cost_fraction"]
    return [
        ("c4.2xlarge fastest for", "~50% of workloads", _pct(fastest["c4.2xlarge"])),
        ("m4.2xlarge / r4.2xlarge fastest for", "<50%",
         f"{_pct(fastest['m4.2xlarge'])} / {_pct(fastest['r4.2xlarge'])}"),
        ("c4.large cheapest-to-run for", "~50%", _pct(cheapest["c4.large"])),
        ("m4.large / r4.large cheapest for", "<50%",
         f"{_pct(cheapest['m4.large'])} / {_pct(cheapest['r4.large'])}"),
    ]


def _fig5_rows(p: dict) -> list[Row]:
    examples = "; ".join(
        f"{e['application']}/{e['framework']}: {e['best_cost_by_size']}"
        for e in p["examples"][:2]
    )
    return [
        ("(app, framework) pairs whose best-cost VM moves with size",
         "happens regularly", f"{p['changed_best_cost']} of {p['n_app_framework_pairs']}"),
        ("example", "bayes: optimum changes small->large", examples),
    ]


def _fig6_rows(p: dict) -> list[Row]:
    return [
        ("time worst/best", "~4x", f"{p['time_spread']:.1f}x"),
        ("cost worst/best", "~1.5x (compressed)", f"{p['cost_spread']:.1f}x"),
        ("VMs within 25% of best (time / cost)", "few / several",
         f"{p['time_competitive']} / {p['cost_competitive']}"),
    ]


def _fig7_rows(p: dict) -> list[Row]:
    rows = []
    for case in p["cases"]:
        medians = case["median_cost_by_kernel"]
        best, worst = case["best_kernel"], case["worst_kernel"]
        rows.append((
            f"{case['workload']} ({case['objective']}): best / worst kernel",
            "ranking flips between cases",
            f"{best} ({medians[best]:.0f}) / {worst} ({medians[worst]:.0f})",
        ))
    return rows


def _sec3c_rows(p: dict) -> list[Row]:
    return [
        (f"unsolved at 6 with clustered init {p['bad_initial']}",
         "~15%", _pct(p["bad_unsolved_at_6"])),
        (f"unsolved at 6 with distinct init {p['good_initial']}",
         "near 0%", _pct(p["good_unsolved_at_6"])),
    ]


def _fig8_rows(p: dict) -> list[Row]:
    slowest, fastest = p["rows"][0], p["rows"][-1]
    return [
        ("slowest VM (normalised time)", "c3.large, 14.8x",
         f"{slowest['vm']}, {slowest['normalised_time']:.1f}x"),
        ("its memory commit", "saturated (>100%)", f"{slowest['mem_commit_pct']:.0f}%"),
        ("fastest VM", "c4.2xlarge, 1.0x",
         f"{fastest['vm']}, {fastest['normalised_time']:.1f}x"),
        ("its memory commit", "healthy (<100%)", f"{fastest['mem_commit_pct']:.0f}%"),
    ]


def _fig9_rows(paper: tuple[str, str, str, str]) -> Callable[[dict], list[Row]]:
    """Rows of Figure 9(a)/(b); ``paper`` holds the four paper claims."""

    def rows(p: dict) -> list[Row]:
        solved = p["solved_at"]
        table = [
            ("naive solved at 6", paper[0], _pct(solved["naive"]["6"])),
            ("augmented solved at 6", paper[1], _pct(solved["augmented"]["6"])),
            ("naive solved at 10", paper[2], _pct(solved["naive"]["10"])),
            ("augmented solved at 10", paper[3], _pct(solved["augmented"]["10"])),
        ]
        if "hybrid" in solved:
            table.append(("hybrid solved at 6 / 10", ">= naive",
                          f"{_pct(solved['hybrid']['6'])} / {_pct(solved['hybrid']['10'])}"))
        return table

    return rows


def _fig10_rows(p: dict) -> list[Row]:
    rows = []
    for case in p["cases"]:
        naive = case["methods"]["naive"]
        augmented = case["methods"]["augmented"]
        rows.append((
            f"{case['workload']} ({case['objective']}): median cost, naive -> augmented",
            "augmented lower, tighter IQR",
            f"{naive['median_cost_to_optimum']:.0f} (IQR {naive['iqr_cost_to_optimum']:.0f})"
            f" -> {augmented['median_cost_to_optimum']:.0f}"
            f" (IQR {augmented['iqr_cost_to_optimum']:.0f})",
        ))
    return rows


def _fig11_rows(p: dict) -> list[Row]:
    def point(pt: dict) -> str:
        return (f"{pt['mean_search_cost']:.1f} meas, "
                f"{pt['mean_normalised_cost']:.2f}x cost")

    rows = [
        (f"augmented delta={threshold}, {region}", "cheaper search at lower thresholds",
         point(pt))
        for threshold in ("0.9", "1.1", "1.3")
        for region, pt in sorted(p["augmented_delta"].get(threshold, {}).items())
    ]
    rows += [
        (f"naive ei=0.1, {region}", "reference", point(pt))
        for region, pt in sorted(p["naive_ei"].get("0.1", {}).items())
    ]
    return rows


def _fig12_rows(p: dict) -> list[Row]:
    return [
        ("win / same / draw / loss", "46 / 39 / 17 / 5", _counts(p["counts"])),
        ("mean search-cost reduction", "~20%", _pct(p["mean_search_reduction"])),
        ("mean deployment-cost improvement", "~5%", _pct(p["mean_value_improvement"])),
    ]


def _fig13_rows(p: dict) -> list[Row]:
    return [
        ("naive long searches (>6)", "~24%", _pct(p["naive_long_search_fraction"])),
        ("naive very long searches (>=10)", "~13%",
         _pct(p["naive_very_long_search_fraction"])),
        ("augmented max search cost", "6", f"{p['augmented_max_search_cost']:.0f}"),
        ("win / same / draw / loss", "53 / 14 / 34 / 6", _counts(p["counts"])),
    ]


_FIG9_CHART = Chart(
    "line",
    lambda p: p["curves"],
    title="Figure 9 — solved fraction vs search cost ({objective})",
    x_label=_SEARCH_COST,
    y_label=_SOLVED,
    y_range=(0.0, 1.0),
)


#: Every table and figure of the paper, in experiment-index order.
FIGURES: dict[str, Figure] = {
    figure.name: figure
    for figure in (
        Figure(
            "table1", "Table I — applications and workloads",
            "test_table1_registry.py",
            lambda _runner, _repeats: exp.table1_registry(), None,
            "Table I — study population", _table1_rows,
        ),
        Figure(
            "fig1", "Figure 1 — Naive BO search-cost CDF",
            "test_fig01_naive_bo_cdf.py",
            lambda runner, repeats: exp.fig1_naive_cdf(runner, repeats=repeats), FULL,
            "Figure 1 — Naive BO search-cost CDF (time)", _fig1_rows,
            note="Fragility reproduced: a material share of workloads needs more "
                 "than a third of the search space.",
            chart=Chart(
                "line",
                lambda p: {"naive-bo": p["curve"]},
                title="Figure 1 — Naive BO search-cost CDF (time)",
                x_label=_SEARCH_COST,
                y_label=_SOLVED,
                y_range=(0.0, 1.0),
                caption="regions: {regions}",
            ),
        ),
        Figure(
            "fig2", "Figure 2 — Naive BO trace on ALS",
            "test_fig02_als_trace.py",
            lambda runner, repeats: exp.fig2_als_trace(runner, repeats=repeats), SINGLE,
            "Figure 2 — Naive BO on a fragile workload ({workload}; "
            "the paper's showcase is ALS)",
            _fig2_rows,
            chart=Chart(
                "line",
                lambda p: {"median": p["median_curve"], "q1": p["q1_curve"],
                           "q3": p["q3_curve"]},
                title="Figure 2 — Naive BO on {workload}",
                x_label=_SEARCH_COST,
                y_label="execution time (normalised)",
            ),
        ),
        Figure(
            "fig3", "Figure 3 — worst/best VM spreads",
            "test_fig03_worst_best_spread.py",
            lambda runner, _repeats: exp.fig3_worst_best_spread(runner), None,
            "Figure 3 — worst/best VM spreads", _fig3_rows,
        ),
        Figure(
            "fig4", "Figure 4 — extreme VMs are not optimal",
            "test_fig04_expensive_not_best.py",
            lambda runner, _repeats: exp.fig4_extreme_vms(runner), None,
            "Figure 4 — extreme VMs are not safe rules of thumb", _fig4_rows,
            note="Our cost optima are spread more evenly across cheap VMs than "
                 "the paper's (several families win), but the headline claim — "
                 "no extreme VM is optimal for even 60% of workloads — holds.",
        ),
        Figure(
            "fig5", "Figure 5 — input size moves the optimum",
            "test_fig05_input_size.py",
            lambda runner, _repeats: exp.fig5_input_size(runner), None,
            "Figure 5 — input size moves the optimum", _fig5_rows,
        ),
        Figure(
            "fig6", "Figure 6 — cost levels the playing field",
            "test_fig06_cost_levelling.py",
            lambda runner, _repeats: exp.fig6_cost_levelling(runner), None,
            "Figure 6 — cost creates a level playing field (regression/Spark 1.5)",
            _fig6_rows,
            chart=Chart(
                "bar",
                lambda p: {row["vm"]: row["time"] for row in p["rows"]},
                title="Figure 6 — normalised time (sorted by cost) of {workload}",
                unit="x",
            ),
        ),
        Figure(
            "fig7", "Figure 7 — kernel fragility",
            "test_fig07_kernel_fragility.py",
            lambda runner, repeats: exp.fig7_kernel_fragility(runner, repeats=repeats),
            SINGLE,
            "Figure 7 — kernel fragility of Naive BO", _fig7_rows,
            note="Paper: Matérn 1/2 is best for als/time yet worst for "
                 "bayes/cost.  Reproduced claim: the kernel ranking is not "
                 "stable across workloads/objectives.",
        ),
        Figure(
            "sec3c", "Section III-C — initial-point sensitivity",
            "test_sec3c_initial_points.py",
            lambda runner, repeats: exp.sec3c_initial_points(runner, repeats=repeats),
            Repeats(5, 2),
            "Section III-C — initial-point sensitivity", _sec3c_rows,
        ),
        Figure(
            "fig8", "Figure 8 — memory bottleneck in low-level metrics",
            "test_fig08_memory_bottleneck.py",
            lambda runner, _repeats: exp.fig8_memory_bottleneck(runner), None,
            "Figure 8 — low-level metrics expose the memory bottleneck (lr)",
            _fig8_rows,
            chart=Chart(
                "bar",
                lambda p: {row["vm"]: row["normalised_time"] for row in p["rows"]},
                title="Figure 8 — normalised time of {workload}",
                unit="x",
            ),
        ),
        Figure(
            "fig9a", "Figure 9(a) — CDFs, time objective",
            "test_fig09a_cdf_time.py",
            lambda runner, repeats: exp.fig9_cdf(runner, Objective.TIME, repeats=repeats),
            FULL,
            "Figure 9(a) — CDFs, time objective",
            _fig9_rows(("~60%", "similar", "~80%", "~96%")),
            chart=_FIG9_CHART,
        ),
        Figure(
            "fig9b", "Figure 9(b) — CDFs, cost objective",
            "test_fig09b_cdf_cost.py",
            lambda runner, repeats: exp.fig9_cdf(
                runner, Objective.COST, repeats=repeats, include_hybrid=False
            ),
            FULL,
            "Figure 9(b) — CDFs, cost objective",
            _fig9_rows(("~50%", "~60%", "(lower)", ">= naive")),
            chart=_FIG9_CHART,
        ),
        Figure(
            "fig10", "Figure 10 — example search traces",
            "test_fig10_example_traces.py",
            lambda runner, repeats: exp.fig10_example_traces(runner, repeats=repeats),
            SINGLE,
            "Figure 10 — example search traces", _fig10_rows,
        ),
        Figure(
            "fig11", "Figure 11 — stopping-criterion trade-off",
            "test_fig11_stopping_tradeoff.py",
            # Regions come from the full-grid Naive BO runs, so a fast
            # sweep classifies them at the fast full-grid count.
            lambda runner, repeats: exp.fig11_stopping_tradeoff(
                runner,
                repeats=repeats,
                region_repeats=FULL.fast if repeats == SWEEP.fast else FULL.default,
            ),
            SWEEP,
            "Figure 11 — stopping-criterion trade-off by region (cost)", _fig11_rows,
        ),
        Figure(
            "fig12", "Figure 12 — win/draw/loss, cost",
            "test_fig12_win_loss.py",
            lambda runner, repeats: exp.fig12_win_loss(runner, repeats=repeats), FULL,
            "Figure 12 — win/draw/loss, cost objective (EI 10% vs Delta 1.1)",
            _fig12_rows,
        ),
        Figure(
            "fig13", "Figure 13 — time-cost product",
            "test_fig13_timecost_product.py",
            lambda runner, repeats: exp.fig13_timecost_product(runner, repeats=repeats),
            FULL,
            "Figure 13 — time-cost product (EI 10% vs Delta 1.05)", _fig13_rows,
        ),
    )
}
