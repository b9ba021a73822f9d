"""Figure 4: the priciest VM is not always fastest, nor the cheapest
VM always cheapest to run.

Paper: c4.2xlarge is the fastest VM for only ~50% of workloads; c4.large
is the cheapest-to-run for only ~50%.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig4"]


def test_fig4_extreme_vms(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    expensive = result["expensive_optimal_time_fraction"]
    cheap = result["cheap_optimal_cost_fraction"]
    show(FIGURE.heading_for(result), FIGURE.rows(result))

    # Shape: none of the rule-of-thumb extremes is optimal for even 60%
    # of workloads — "no VM rules all".
    assert all(fraction < 0.6 for fraction in expensive.values())
    assert all(fraction < 0.6 for fraction in cheap.values())
    # But they are not useless either: some workloads do pick them.
    assert expensive["c4.2xlarge"] > 0.05
    assert max(cheap.values()) > 0.05
