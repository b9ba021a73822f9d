"""Ablation: Extra-Trees vs random forest as the augmented surrogate.

The paper picks the Extra-Trees algorithm (Section IV-B) from the family
of tree ensembles its related work uses (CART-based performance models).
This bench swaps in a bagged CART forest, everything else equal, to
document how sensitive Augmented BO is to that choice.
"""

import numpy as np
from conftest import show

from repro.analysis.experiments import ablation_grids
from repro.core.objectives import Objective


def mean_median_cost(runner, key):
    results = runner.run(ablation_grids()[key])
    costs = runner.costs_to_optimum(results, Objective.TIME)
    return float(
        np.mean(
            [np.median([18 if c is None else c for c in cs]) for cs in costs.values()]
        )
    )


def test_ablation_ensemble(benchmark, runner):
    def run():
        extra = mean_median_cost(runner, "ablation-augmented-et")
        forest = mean_median_cost(runner, "ablation-augmented-rf")
        return extra, forest

    extra, forest = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — surrogate ensemble family (time objective)",
        [
            ("mean median search cost, Extra-Trees", "(paper's choice)", f"{extra:.2f}"),
            ("mean median search cost, random forest", "(comparable)", f"{forest:.2f}"),
        ],
    )
    # Both ensembles must drive an effective search; the paper's choice
    # should not be materially worse than the alternative.
    assert extra < 10
    assert forest < 10
    assert extra <= forest + 1.5
