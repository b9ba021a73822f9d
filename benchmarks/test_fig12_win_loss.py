"""Figure 12: win/draw/loss of Augmented vs Naive BO (cost objective).

Paper: with the prescribed stopping rules (10% EI vs Delta 1.1),
Augmented BO wins on 46 of 107 workloads (lower search cost AND lower
deployment cost), performs the same on 39, trades on 17 and loses search
cost on only 5; on average it cuts search cost ~20% and deployment cost
~5%.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig12"]


def test_fig12_win_loss(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    counts = result["counts"]
    show(FIGURE.heading_for(result), FIGURE.rows(result))

    total = sum(counts.values())
    assert total == 107
    # Shape claims: wins dominate losses heavily, and the average search
    # cost drops.
    assert counts["win"] >= 3 * counts["loss"]
    assert counts["win"] + counts["same"] >= total * 0.4
    assert result["mean_search_reduction"] > 0.0
