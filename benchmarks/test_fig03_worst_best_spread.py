"""Figure 3: worst-vs-best VM spreads.

Paper: a wrong VM choice can cost up to 20x in execution time and up to
10x in deployment cost.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig3"]


def test_fig3_worst_best_spread(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    show(FIGURE.heading_for(result), FIGURE.rows(result))

    # Shape: order-of-magnitude spreads exist, and time spreads exceed
    # cost spreads (price partially compensates slowness).
    assert result["max_time_spread"] > 10
    assert result["max_cost_spread"] > 3.5
    assert result["max_time_spread"] > result["max_cost_spread"]
