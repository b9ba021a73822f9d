"""Ablations of Augmented BO's design choices (DESIGN.md section 5).

Two questions the paper's design section raises but does not isolate:

1. **Do the low-level metrics actually help**, or is the gain from the
   Extra-Trees + Prediction-Delta machinery alone?  We re-run Augmented
   BO with the metrics replaced by constants — everything else equal —
   and compare search cost to the optimum.
2. **Does the relational (log-ratio) target help** versus the literal
   absolute-performance target of Algorithm 2?

Both ablations run on a diverse workload slice with several repeats.
"""

import numpy as np
from conftest import show

from repro.analysis.experiments import ablation_grids
from repro.core.objectives import Objective


def median_costs(runner, key):
    results = runner.run(ablation_grids()[key])
    costs = runner.costs_to_optimum(results, Objective.TIME)
    per_workload = [
        float(np.median([18 if c is None else c for c in cs])) for cs in costs.values()
    ]
    return float(np.mean(per_workload))


def test_ablation_low_level_metrics(benchmark, runner):
    """Blanking the metrics must make the search more expensive."""

    def run():
        full = median_costs(runner, "ablation-augmented-full")
        blind = median_costs(runner, "ablation-augmented-blind")
        return full, blind

    full, blind = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — low-level metrics",
        [
            ("mean median search cost, full metrics", "(lower)", f"{full:.2f}"),
            ("mean median search cost, blanked metrics", "(higher)", f"{blind:.2f}"),
        ],
    )
    assert full <= blind + 0.35, (
        "low-level metrics should not hurt; expected full <= blind"
    )


def test_ablation_relational_target(benchmark, runner):
    """Compare relational (log-ratio) vs absolute surrogate targets."""

    def run():
        relational = median_costs(runner, "ablation-augmented-full")
        absolute = median_costs(runner, "ablation-augmented-absolute")
        return relational, absolute

    relational, absolute = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — relational vs absolute targets",
        [
            ("mean median search cost, relational", "(comparable)", f"{relational:.2f}"),
            ("mean median search cost, absolute", "(comparable)", f"{absolute:.2f}"),
        ],
    )
    # Informational ablation: both must at least work end to end.
    assert relational < 10 and absolute < 12
