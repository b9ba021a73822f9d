"""Figure 10: per-workload search traces with median and IQR.

Paper: on pagerank (time), als (time) and lr (cost), Augmented BO
reaches the optimal VM in fewer measurements and with smaller
across-repeat variance (IQR) than Naive BO.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig10"]


def test_fig10_example_traces(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    wins = 0
    for case in result["cases"]:
        naive = case["methods"]["naive"]
        augmented = case["methods"]["augmented"]
        if augmented["median_cost_to_optimum"] <= naive["median_cost_to_optimum"]:
            wins += 1
    show(FIGURE.heading_for(result), FIGURE.rows(result))

    # Shape: Augmented matches or beats Naive's median search cost on at
    # least two of the three showcase workloads.
    assert wins >= 2
    # And every median trace ends at the optimum after a full sweep.
    for case in result["cases"]:
        for method in case["methods"].values():
            assert method["median_curve"][-1] <= 1.001
