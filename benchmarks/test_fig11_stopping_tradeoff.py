"""Figure 11: stopping-criterion trade-off by region.

Paper: Augmented BO's Prediction-Delta threshold exposes a genuine
search-cost vs deployment-cost trade-off; at threshold 1.1 it matches or
beats Naive BO (10% EI rule) on both axes in Regions II and III, and in
Region I it trades a few percent of deployment cost for a much cheaper
search.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig11"]


def test_fig11_stopping_tradeoff(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    show(FIGURE.heading_for(result), FIGURE.rows(result))

    delta = result["augmented_delta"]
    # Shape 1: the trade-off exists — patient thresholds search longer...
    for region in delta["0.9"]:
        if region in delta["1.3"]:
            assert (
                delta["1.3"][region]["mean_search_cost"]
                >= delta["0.9"][region]["mean_search_cost"] - 1e-9
            )
    # ...and find results at least as good (lower normalised cost).
    for region in delta["0.9"]:
        if region in delta["1.3"]:
            assert (
                delta["1.3"][region]["mean_normalised_cost"]
                <= delta["0.9"][region]["mean_normalised_cost"] + 0.02
            )

    # Shape 2: at the recommended 1.1 threshold, Augmented reduces search
    # cost versus Naive's prescribed 10% EI rule in the fragile regions.
    naive_ref = result["naive_ei"]["0.1"]
    for region in ("Region II", "Region III"):
        if region in naive_ref and region in delta["1.1"]:
            assert (
                delta["1.1"][region]["mean_search_cost"]
                <= naive_ref[region]["mean_search_cost"] + 0.5
            )
