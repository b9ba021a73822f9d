"""Figure 13: the time-cost-product objective (threshold 1.05).

Paper: Naive BO needs long searches (>6 measurements) on ~24% of
workloads and very long ones (>=10) on ~13%, while Augmented BO never
needs more than six actual evaluations across all 107 workloads.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig13"]


def test_fig13_timecost_product(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    counts = result["counts"]
    show(FIGURE.heading_for(result), FIGURE.rows(result))

    # Shape claims: Naive runs long searches on a material share of
    # workloads; Augmented's searches stay short and bounded.
    assert result["naive_long_search_fraction"] > 0.10
    assert result["augmented_max_search_cost"] <= 8
    assert counts["win"] >= counts["loss"]
