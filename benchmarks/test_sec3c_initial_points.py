"""Section III-C: Naive BO is sensitive to the initial design.

Paper: with one triple of initial VMs about 15% of workloads miss the
optimum within six attempts; with a different triple the same search
succeeds — so the initial points dramatically affect BO.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["sec3c"]


def test_sec3c_initial_points(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    show(FIGURE.heading_for(result), FIGURE.rows(result))

    # Shape: the clustered design leaves notably more workloads unsolved.
    assert result["bad_unsolved_at_6"] > result["good_unsolved_at_6"]
    assert result["bad_unsolved_at_6"] >= 0.08
