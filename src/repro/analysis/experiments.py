"""Canonical reproduction experiments — one function per paper figure.

Every table and figure of the paper's evaluation maps to one function
here, called through its entry in :mod:`repro.analysis.figures`; the
benchmark suite (``benchmarks/``) and ``scripts/build_cache.py`` both go
through that registry, so the numbers reported anywhere always come
from the same code path.  All functions return JSON-serialisable dicts.

Repeat counts default to smaller values than the paper's 100 because the
whole study runs on one core here; they are parameters everywhere, and
the cached runner makes re-running with more repeats incremental.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import (
    compare_methods,
    outcome_counts,
    solved_fraction_curve,
)
from repro.analysis.regions import Region, classify_region, region_counts
from repro.analysis.runner import ExperimentRunner, OptimizerFactory, RunGrid
from repro.analysis.stats import median_iqr_curve
from repro.core.augmented_bo import AugmentedBO
from repro.core.hybrid_bo import HybridBO
from repro.core.naive_bo import NaiveBO
from repro.core.objectives import Objective
from repro.core.stopping import EIThreshold, PredictionDeltaThreshold
from repro.ml.kernels import kernel_by_name
from repro.workloads.registry import default_registry
from repro.workloads.spec import InputSize

#: Default repeats for 107-workload grids (paper: 100).
FULL_REPEATS = 5

#: Default repeats for single-workload figures (paper: 100).
SINGLE_REPEATS = 30

#: Default repeats for the stopping-criteria sweeps.
SWEEP_REPEATS = 4

#: Example workloads used by the paper's per-workload figures.  The paper
#: picked its showcases (als, pagerank, lr) because they were fragile in
#: *its* dataset; we use the same applications at the input scales that
#: exhibit the fragility in *our* dataset (DESIGN.md: shape over identity).
ALS_WORKLOAD = "als/Spark 1.5/small"
BAYES_WORKLOAD = "bayes/Spark 2.1/medium"

#: The Region-II/III showcase for Figure 2 (the paper used ALS, which is
#: Region III in its data; lr at this scale is the equivalent here).
FRAGILE_WORKLOAD = "aggregation/Hadoop 2.7/large"
PAGERANK_WORKLOAD = "pagerank/Hadoop 2.7/small"
LR_WORKLOAD = "lr/Spark 1.5/medium"
REGRESSION_WORKLOAD = "regression/Spark 1.5/medium"

#: Default-catalog size (``aws-2017``, the paper's 18 types): the
#: figures replay searches that exhaust after this many measurements.
#: Large-catalog runs (``--catalog aws-large``/``multicloud``) are
#: bench/CLI territory, not paper figures, so this stays fixed.
MAX_STEPS = 18


# -- optimiser factories ----------------------------------------------------


def naive_factory(kernel_name: str = "matern52", **opts) -> OptimizerFactory:
    """Naive BO (CherryPick) with the given kernel."""

    def build(environment, objective, seed):
        return NaiveBO(
            environment,
            objective=objective,
            seed=seed,
            kernel=kernel_by_name(kernel_name),
            **opts,
        )

    return build


def augmented_factory(**opts) -> OptimizerFactory:
    """Augmented BO (the paper's method)."""

    def build(environment, objective, seed):
        return AugmentedBO(environment, objective=objective, seed=seed, **opts)

    return build


def hybrid_factory(**opts) -> OptimizerFactory:
    """Hybrid BO (Naive early, Augmented late)."""

    def build(environment, objective, seed):
        return HybridBO(environment, objective=objective, seed=seed, **opts)

    return build


def naive_stopping_factory(ei_fraction: float = 0.1) -> OptimizerFactory:
    """Naive BO with CherryPick's EI stopping rule."""

    def build(environment, objective, seed):
        return NaiveBO(
            environment,
            objective=objective,
            seed=seed,
            stopping=EIThreshold(fraction=ei_fraction),
        )

    return build


def augmented_stopping_factory(threshold: float = 1.1) -> OptimizerFactory:
    """Augmented BO with the Prediction-Delta stopping rule."""

    def build(environment, objective, seed):
        return AugmentedBO(
            environment,
            objective=objective,
            seed=seed,
            stopping=PredictionDeltaThreshold(threshold=threshold),
        )

    return build


def all_workload_ids() -> tuple[str, ...]:
    """Every workload id of the canonical registry."""
    return tuple(w.workload_id for w in default_registry())


# -- shared grids -------------------------------------------------------------


def _full_grid(
    runner: ExperimentRunner,
    key: str,
    factory: OptimizerFactory,
    objective: Objective,
    repeats: int,
    workload_ids: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> dict:
    return runner.run(
        RunGrid(
            key=key,
            factory=factory,
            objective=objective,
            workload_ids=workload_ids if workload_ids is not None else all_workload_ids(),
            repeats=repeats,
        ),
        workers=workers,
    )


def naive_costs_to_optimum(
    runner: ExperimentRunner,
    objective: Objective,
    repeats: int = FULL_REPEATS,
    workload_ids: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> dict[str, list[int | None]]:
    """Per-workload Naive-BO search costs to the optimum (shared by figures)."""
    results = _full_grid(
        runner, "naive-bo", naive_factory(), objective, repeats, workload_ids, workers
    )
    return runner.costs_to_optimum(results, objective)


# -- Table I ------------------------------------------------------------------


def table1_registry() -> dict:
    """Table I: application inventory and workload counts."""
    registry = default_registry()
    by_category: dict[str, list[str]] = {}
    for app_name in registry.applications():
        workload = next(w for w in registry if w.application == app_name)
        by_category.setdefault(workload.category.value, []).append(app_name)
    frameworks = sorted({w.framework.value for w in registry})
    return {
        "n_workloads": len(registry),
        "n_applications": len(registry.applications()),
        "frameworks": frameworks,
        "applications_by_category": by_category,
    }


# -- Figure 1 -----------------------------------------------------------------


def fig1_naive_cdf(
    runner: ExperimentRunner,
    repeats: int = FULL_REPEATS,
    workload_ids: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> dict:
    """Figure 1: CDF of Naive BO's search cost over the 107 workloads."""
    costs = naive_costs_to_optimum(runner, Objective.TIME, repeats, workload_ids, workers)
    curve = solved_fraction_curve(costs, MAX_STEPS)
    regions = region_counts(costs)
    return {
        "curve": curve.tolist(),
        "solved_at_6": float(curve[5]),
        "solved_at_12": float(curve[11]),
        "regions": {region.value: count for region, count in regions.items()},
    }


# -- Figure 2 -----------------------------------------------------------------


def fig2_als_trace(runner: ExperimentRunner, repeats: int = SINGLE_REPEATS) -> dict:
    """Figure 2: Naive BO's sluggish progress on a fragile workload.

    The paper's example is ALS on Spark (Region III in its dataset); the
    equivalent fragile workload in our dataset is ``FRAGILE_WORKLOAD``.
    """
    results = runner.run(
        RunGrid(
            key="naive-bo",
            factory=naive_factory(),
            objective=Objective.TIME,
            workload_ids=(FRAGILE_WORKLOAD,),
            repeats=repeats,
        )
    )[FRAGILE_WORKLOAD]
    optimum = runner.optimal_value(FRAGILE_WORKLOAD, Objective.TIME)
    median, q1, q3 = median_iqr_curve(results, MAX_STEPS, normalise_to=optimum)
    return {
        "workload": FRAGILE_WORKLOAD,
        "median_curve": median.tolist(),
        "q1_curve": q1.tolist(),
        "q3_curve": q3.tolist(),
        "median_at_5": float(median[4]),
        "steps_to_optimum_median": float(
            np.median([r.first_step_reaching(optimum) or MAX_STEPS for r in results])
        ),
    }


# -- Figures 3-6 and 8 (dataset-only figures) ---------------------------------


def fig3_worst_best_spread(runner: ExperimentRunner) -> dict:
    """Figure 3: worst/best VM ratios in time and cost across workloads."""
    trace = runner.trace
    time_spreads = {w.workload_id: trace.spread(w, "time") for w in trace.registry}
    cost_spreads = {w.workload_id: trace.spread(w, "cost") for w in trace.registry}
    return {
        "max_time_spread": max(time_spreads.values()),
        "max_time_workload": max(time_spreads, key=time_spreads.__getitem__),
        "median_time_spread": float(np.median(list(time_spreads.values()))),
        "max_cost_spread": max(cost_spreads.values()),
        "max_cost_workload": max(cost_spreads, key=cost_spreads.__getitem__),
        "median_cost_spread": float(np.median(list(cost_spreads.values()))),
    }


def fig4_extreme_vms(runner: ExperimentRunner) -> dict:
    """Figure 4: how often the priciest/cheapest VMs are actually optimal."""
    trace = runner.trace
    expensive = ("c4.2xlarge", "m4.2xlarge", "r4.2xlarge")
    cheap = ("c4.large", "m4.large", "r4.large")
    result: dict = {"expensive_optimal_time_fraction": {}, "cheap_optimal_cost_fraction": {}}
    n = len(trace.registry)
    for vm in expensive:
        wins = sum(1 for w in trace.registry if trace.best_vm(w, "time").name == vm)
        result["expensive_optimal_time_fraction"][vm] = wins / n
    for vm in cheap:
        wins = sum(1 for w in trace.registry if trace.best_vm(w, "cost").name == vm)
        result["cheap_optimal_cost_fraction"][vm] = wins / n
    result["any_expensive_time_fraction"] = sum(
        result["expensive_optimal_time_fraction"].values()
    )
    result["any_cheap_cost_fraction"] = sum(result["cheap_optimal_cost_fraction"].values())
    return result


def fig5_input_size(runner: ExperimentRunner) -> dict:
    """Figure 5: the optimal VM moves when the input size changes."""
    trace = runner.trace
    registry = trace.registry
    changed_time, changed_cost, examples = 0, 0, []
    pairs = sorted({(w.application, w.framework) for w in registry}, key=str)
    n_pairs = 0
    for application, framework in pairs:
        sizes = registry.filter(application=application, framework=framework)
        if len(sizes) < 2:
            continue
        n_pairs += 1
        best_time = {w.input_size.value: trace.best_vm(w, "time").name for w in sizes}
        best_cost = {w.input_size.value: trace.best_vm(w, "cost").name for w in sizes}
        if len(set(best_time.values())) > 1:
            changed_time += 1
        if len(set(best_cost.values())) > 1:
            changed_cost += 1
            if len(examples) < 5:
                examples.append(
                    {
                        "application": application,
                        "framework": framework.value,
                        "best_cost_by_size": best_cost,
                    }
                )
    return {
        "n_app_framework_pairs": n_pairs,
        "changed_best_time": changed_time,
        "changed_best_cost": changed_cost,
        "examples": examples,
    }


def fig6_cost_levelling(runner: ExperimentRunner) -> dict:
    """Figure 6: cost compresses the spread for the regression workload."""
    trace = runner.trace
    time_norm = trace.normalised(REGRESSION_WORKLOAD, "time")
    cost_norm = trace.normalised(REGRESSION_WORKLOAD, "cost")
    vms = [vm.name for vm in trace.catalog]
    return {
        "workload": REGRESSION_WORKLOAD,
        "rows": [
            {"vm": vm, "time": float(t), "cost": float(c)}
            for vm, t, c in sorted(zip(vms, time_norm, cost_norm), key=lambda r: r[2])
        ],
        "time_spread": float(time_norm.max()),
        "cost_spread": float(cost_norm.max()),
        # How many VMs are within 25% of optimal under each objective —
        # the "level playing field" measure.
        "time_competitive": int((time_norm <= 1.25).sum()),
        "cost_competitive": int((cost_norm <= 1.25).sum()),
    }


def fig8_memory_bottleneck(runner: ExperimentRunner) -> dict:
    """Figure 8: low-level metrics expose the memory bottleneck of lr."""
    trace = runner.trace
    norm_time = trace.normalised(LR_WORKLOAD, "time")
    rows = []
    for index, vm in enumerate(trace.catalog):
        metrics = trace.metrics_for(LR_WORKLOAD, vm)
        rows.append(
            {
                "vm": vm.name,
                "normalised_time": float(norm_time[index]),
                "mem_commit_pct": metrics.mem_commit_pct,
                "cpu_iowait_pct": metrics.cpu_iowait_pct,
                "cpu_user_pct": metrics.cpu_user_pct,
            }
        )
    rows.sort(key=lambda r: -r["normalised_time"])
    return {"workload": LR_WORKLOAD, "rows": rows}


# -- Figure 7 -----------------------------------------------------------------


def fig7_kernel_fragility(
    runner: ExperimentRunner, repeats: int = SINGLE_REPEATS
) -> dict:
    """Figure 7: kernel choice flips which workloads Naive BO handles well."""
    kernels = ("rbf", "matern12", "matern32", "matern52")
    cases = (
        {"workload": ALS_WORKLOAD, "objective": Objective.TIME},
        {"workload": BAYES_WORKLOAD, "objective": Objective.COST},
    )
    out: dict = {"cases": []}
    for case in cases:
        workload, objective = case["workload"], case["objective"]
        optimum = runner.optimal_value(workload, objective)
        medians = {}
        for kernel_name in kernels:
            results = runner.run(
                RunGrid(
                    key=f"naive-bo[{kernel_name}]",
                    factory=naive_factory(kernel_name),
                    objective=objective,
                    workload_ids=(workload,),
                    repeats=repeats,
                )
            )[workload]
            costs = [r.first_step_reaching(optimum) or MAX_STEPS for r in results]
            medians[kernel_name] = float(np.median(costs))
        out["cases"].append(
            {
                "workload": workload,
                "objective": objective.value,
                "median_cost_by_kernel": medians,
                "best_kernel": min(medians, key=medians.__getitem__),
                "worst_kernel": max(medians, key=medians.__getitem__),
            }
        )
    return out


# -- Section III-C ------------------------------------------------------------


def sec3c_initial_points(
    runner: ExperimentRunner,
    repeats: int = 5,
    workload_ids: tuple[str, ...] | None = None,
) -> dict:
    """Section III-C: Naive BO's sensitivity to the initial design.

    Compares two fixed initial triples — a deliberately clustered one and
    a maximally distinct one — by the fraction of workloads whose optimum
    is not found within 6 measurements.
    """
    trace = runner.trace
    catalog_names = [vm.name for vm in trace.catalog]

    def run_with_initial(initial_names: tuple[str, ...], label: str) -> float:
        initial = [catalog_names.index(name) for name in initial_names]

        def factory(environment, objective, seed):
            return NaiveBO(
                environment, objective=objective, seed=seed, initial_design=initial
            )

        results = _full_grid(
            runner, f"naive-bo[init={label}]", factory, Objective.TIME, repeats, workload_ids
        )
        costs = runner.costs_to_optimum(results, Objective.TIME)
        unsolved = 0
        for per_workload in costs.values():
            filled = [MAX_STEPS if c is None else c for c in per_workload]
            if float(np.median(filled)) > 6:
                unsolved += 1
        return unsolved / len(costs)

    # A clustered triple (all mid-size, same generation) vs a spread one.
    bad = ("m3.large", "m3.xlarge", "r3.large")
    good = ("c4.large", "m4.xlarge", "r3.2xlarge")
    return {
        "bad_initial": list(bad),
        "bad_unsolved_at_6": run_with_initial(bad, "clustered"),
        "good_initial": list(good),
        "good_unsolved_at_6": run_with_initial(good, "distinct"),
    }


# -- Figure 9 -----------------------------------------------------------------


def fig9_cdf(
    runner: ExperimentRunner,
    objective: Objective,
    repeats: int = FULL_REPEATS,
    include_hybrid: bool = True,
    workload_ids: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> dict:
    """Figure 9: search-cost CDFs of Naive vs Augmented (vs Hybrid) BO."""
    grids = {
        "naive": ("naive-bo", naive_factory()),
        "augmented": ("augmented-bo", augmented_factory()),
    }
    if include_hybrid:
        grids["hybrid"] = ("hybrid-bo", hybrid_factory())

    out: dict = {"objective": objective.value, "curves": {}, "solved_at": {}}
    for label, (key, factory) in grids.items():
        results = _full_grid(
            runner, key, factory, objective, repeats, workload_ids, workers
        )
        costs = runner.costs_to_optimum(results, objective)
        curve = solved_fraction_curve(costs, MAX_STEPS)
        out["curves"][label] = curve.tolist()
        out["solved_at"][label] = {
            "6": float(curve[5]),
            "10": float(curve[9]),
            "12": float(curve[11]),
        }
    return out


# -- Figure 10 ----------------------------------------------------------------


def fig10_example_traces(
    runner: ExperimentRunner, repeats: int = SINGLE_REPEATS
) -> dict:
    """Figure 10: per-workload search traces with median and IQR."""
    cases = (
        {"workload": PAGERANK_WORKLOAD, "objective": Objective.TIME},
        {"workload": ALS_WORKLOAD, "objective": Objective.TIME},
        {"workload": LR_WORKLOAD, "objective": Objective.COST},
    )
    out: dict = {"cases": []}
    for case in cases:
        workload, objective = case["workload"], case["objective"]
        optimum = runner.optimal_value(workload, objective)
        entry: dict = {"workload": workload, "objective": objective.value, "methods": {}}
        for label, key, factory in (
            ("naive", "naive-bo", naive_factory()),
            ("augmented", "augmented-bo", augmented_factory()),
        ):
            results = runner.run(
                RunGrid(
                    key=key,
                    factory=factory,
                    objective=objective,
                    workload_ids=(workload,),
                    repeats=repeats,
                )
            )[workload]
            median, q1, q3 = median_iqr_curve(results, MAX_STEPS, normalise_to=optimum)
            costs = [r.first_step_reaching(optimum) or MAX_STEPS for r in results]
            entry["methods"][label] = {
                "median_curve": median.tolist(),
                "q1_curve": q1.tolist(),
                "q3_curve": q3.tolist(),
                "median_cost_to_optimum": float(np.median(costs)),
                "iqr_cost_to_optimum": float(np.subtract(*np.percentile(costs, [75, 25]))),
            }
        out["cases"].append(entry)
    return out


# -- Figure 11 ----------------------------------------------------------------

#: EI stopping fractions swept for Naive BO (paper legend 0.05-0.2).
EI_FRACTIONS = (0.05, 0.1, 0.15, 0.2)

#: Prediction-Delta thresholds swept for Augmented BO (paper 0.9-1.3).
DELTA_THRESHOLDS = (0.9, 1.1, 1.3)


def fig11_stopping_tradeoff(
    runner: ExperimentRunner,
    repeats: int = SWEEP_REPEATS,
    workload_ids: tuple[str, ...] | None = None,
    region_repeats: int = FULL_REPEATS,
) -> dict:
    """Figure 11: search-cost vs deployment-cost trade-off by region."""
    objective = Objective.COST
    region_of = workload_regions(
        runner, repeats=region_repeats, workload_ids=workload_ids
    )

    def sweep(label: str, key_template: str, factory_of, values) -> dict:
        points: dict = {}
        for value in values:
            results = _full_grid(
                runner,
                key_template.format(value),
                factory_of(value),
                objective,
                repeats,
                workload_ids,
            )
            per_region: dict[Region, list[tuple[float, float]]] = {r: [] for r in Region}
            for workload_id, runs in results.items():
                optimum = runner.optimal_value(workload_id, objective)
                mean_cost = float(np.mean([r.search_cost for r in runs]))
                mean_value = float(np.mean([r.best_value / optimum for r in runs]))
                per_region[region_of[workload_id]].append((mean_cost, mean_value))
            points[str(value)] = {
                region.value: {
                    "mean_search_cost": float(np.mean([p[0] for p in pts])),
                    "mean_normalised_cost": float(np.mean([p[1] for p in pts])),
                }
                for region, pts in per_region.items()
                if pts
            }
        return points

    return {
        "naive_ei": sweep("naive", "naive-bo[stop-ei={}]", naive_stopping_factory, EI_FRACTIONS),
        "augmented_delta": sweep(
            "augmented",
            "augmented-bo[stop-delta={}]",
            augmented_stopping_factory,
            DELTA_THRESHOLDS,
        ),
    }


def workload_regions(
    runner: ExperimentRunner,
    repeats: int = FULL_REPEATS,
    workload_ids: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> dict[str, Region]:
    """Region of each workload under the cost objective (for Figs 11-12)."""
    costs = naive_costs_to_optimum(
        runner, Objective.COST, repeats=repeats, workload_ids=workload_ids, workers=workers
    )
    return {workload_id: classify_region(c) for workload_id, c in costs.items()}


# -- Figure 12 ----------------------------------------------------------------


def fig12_win_loss(
    runner: ExperimentRunner,
    repeats: int = FULL_REPEATS,
    objective: Objective = Objective.COST,
    delta_threshold: float = 1.1,
    workload_ids: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> dict:
    """Figure 12: per-workload win/draw/loss of Augmented vs Naive (cost)."""
    baseline = _full_grid(
        runner,
        "naive-bo[stop-ei=0.1]",
        naive_stopping_factory(0.1),
        objective,
        repeats,
        workload_ids,
        workers,
    )
    challenger = _full_grid(
        runner,
        f"augmented-bo[stop-delta={delta_threshold}]",
        augmented_stopping_factory(delta_threshold),
        objective,
        repeats,
        workload_ids,
        workers,
    )
    comparisons = compare_methods(baseline, challenger)
    counts = outcome_counts(comparisons)
    return {
        "objective": objective.value,
        "counts": {outcome.value: count for outcome, count in counts.items()},
        "mean_search_reduction": float(np.mean([c.search_reduction for c in comparisons])),
        "mean_value_improvement": float(np.mean([c.value_improvement for c in comparisons])),
        "comparisons": [
            {
                "workload": c.workload_id,
                "search_reduction": c.search_reduction,
                "value_improvement": c.value_improvement,
                "outcome": c.outcome.value,
            }
            for c in comparisons
        ],
    }


# -- Figure 13 ----------------------------------------------------------------


def fig13_timecost_product(
    runner: ExperimentRunner,
    repeats: int = FULL_REPEATS,
    workload_ids: tuple[str, ...] | None = None,
) -> dict:
    """Figure 13: the time-cost-product objective with threshold 1.05."""
    objective = Objective.TIME_COST_PRODUCT
    result = fig12_win_loss(
        runner,
        repeats=repeats,
        objective=objective,
        delta_threshold=1.05,
        workload_ids=workload_ids,
    )
    baseline = _full_grid(
        runner,
        "naive-bo[stop-ei=0.1]",
        naive_stopping_factory(0.1),
        objective,
        repeats,
        workload_ids,
    )
    challenger = _full_grid(
        runner,
        "augmented-bo[stop-delta=1.05]",
        augmented_stopping_factory(1.05),
        objective,
        repeats,
        workload_ids,
    )
    naive_costs = [
        float(np.median([r.search_cost for r in runs])) for runs in baseline.values()
    ]
    augmented_costs = [
        float(np.median([r.search_cost for r in runs])) for runs in challenger.values()
    ]
    result.update(
        {
            "naive_long_search_fraction": float(np.mean(np.array(naive_costs) > 6)),
            "naive_very_long_search_fraction": float(np.mean(np.array(naive_costs) >= 10)),
            "augmented_max_search_cost": float(np.max(augmented_costs)),
        }
    )
    return result
