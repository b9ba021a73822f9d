"""Ablation: acquisition functions for the GP surrogate.

Section III-A lists PI, EI and GP-UCB as the common acquisition
functions and notes CherryPick's use of EI.  This bench compares the
three over a workload slice to document that the reproduction's Naive BO
is not hostage to one acquisition choice.
"""

import numpy as np
from conftest import show

from repro.analysis.experiments import ablation_grids
from repro.core.objectives import Objective


def mean_median_cost(runner, acquisition):
    results = runner.run(ablation_grids()[f"ablation-naive-acq-{acquisition}"])
    costs = runner.costs_to_optimum(results, Objective.TIME)
    return float(
        np.mean(
            [
                np.median([18 if c is None else c for c in cs])
                for cs in costs.values()
            ]
        )
    )


def test_ablation_acquisition(benchmark, runner):
    def run():
        return {acq: mean_median_cost(runner, acq) for acq in ("ei", "pi", "lcb")}

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — GP acquisition functions (time objective)",
        [
            ("mean median search cost, EI", "(CherryPick's pick)", f"{costs['ei']:.2f}"),
            ("mean median search cost, PI", "(greedier)", f"{costs['pi']:.2f}"),
            ("mean median search cost, LCB", "(explorative)", f"{costs['lcb']:.2f}"),
        ],
    )

    # All three must be functional searches, far better than brute force.
    assert all(cost < 12 for cost in costs.values())
    # EI should be competitive (within one measurement of the best).
    assert costs["ei"] <= min(costs.values()) + 1.0
