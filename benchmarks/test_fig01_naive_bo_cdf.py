"""Figure 1: Naive BO's search-cost CDF over the 107 workloads.

Paper: ~50% of workloads solved within 6 measurements (33% of the search
space), ~85% within 12 (66%); the rest form Regions II/III where BO is
fragile.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig1"]


def test_fig1_naive_bo_cdf(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    regions = result["regions"]
    show(FIGURE.heading_for(result), FIGURE.rows(result))
    print("CDF curve:", " ".join(f"{v:.2f}" for v in result["curve"]))

    curve = result["curve"]
    # Shape claims: the CDF rises monotonically, a material share of
    # workloads is solved early, and a material share is NOT solved at 6
    # (the fragility the paper is about).
    assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))
    assert 0.30 <= result["solved_at_6"] <= 0.85
    assert result["solved_at_6"] < result["solved_at_12"] <= 1.0
    assert regions["Region II"] + regions["Region III"] >= 10
    assert sum(regions.values()) == 107
