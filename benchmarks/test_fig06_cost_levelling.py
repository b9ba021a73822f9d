"""Figure 6: cost creates a level playing field.

Paper: for the regression workload on Spark 1.5, execution times differ
widely across VM types while deployment costs are similar — several VMs
inferior in time become competitive in cost, making the cost search
harder.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig6"]


def test_fig6_cost_levelling(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    show(FIGURE.heading_for(result), FIGURE.rows(result))
    print(f"{'VM':<12} {'time':>6} {'cost':>6}   (normalised, sorted by cost)")
    for row in result["rows"]:
        print(f"{row['vm']:<12} {row['time']:>6.2f} {row['cost']:>6.2f}")

    # Shape: cost compresses the spread for this workload.
    assert result["cost_spread"] < result["time_spread"]
