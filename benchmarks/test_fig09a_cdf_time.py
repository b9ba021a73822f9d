"""Figure 9(a): Naive vs Augmented vs Hybrid BO CDFs, time objective.

Paper: Naive solves ~60% of workloads within 6 measurements; Augmented
overtakes it afterwards (96% vs 80% at 10 measurements) despite a slow
start in the first ~4 steps; Hybrid dominates Naive throughout.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig9a"]


def test_fig9a_cdf_time(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    naive = result["solved_at"]["naive"]
    augmented = result["solved_at"]["augmented"]
    hybrid = result["solved_at"]["hybrid"]
    show(FIGURE.heading_for(result), FIGURE.rows(result))
    for label, curve in result["curves"].items():
        print(f"{label:<10}", " ".join(f"{v:.2f}" for v in curve))

    # Shape claims (small slack for repeat noise):
    assert augmented["10"] >= naive["10"] - 0.03
    assert augmented["12"] >= naive["12"] - 0.03
    assert hybrid["6"] >= naive["6"] - 0.05
    assert hybrid["10"] >= naive["10"] - 0.05
    # Everyone finishes a full sweep having found the optimum.
    for curve in result["curves"].values():
        assert curve[-1] == 1.0
