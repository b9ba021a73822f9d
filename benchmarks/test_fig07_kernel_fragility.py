"""Figure 7: the choice of covariance kernel flips winners.

Paper: Matérn 1/2 finds the optimal VM fastest for als (time objective)
but performs the worst for bayes (cost objective) — no single kernel is
a safe choice.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig7"]


def test_fig7_kernel_fragility(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    show(FIGURE.heading_for(result), FIGURE.rows(result))

    # Shape claims: kernels genuinely differ within each case, and the
    # ranking is not constant across the two cases (fragility).
    for case in result["cases"]:
        medians = case["median_cost_by_kernel"]
        assert max(medians.values()) > min(medians.values())

    case_a, case_b = result["cases"]

    def ranking(case):
        return tuple(sorted(case["median_cost_by_kernel"],
                            key=case["median_cost_by_kernel"].__getitem__))

    assert ranking(case_a) != ranking(case_b)
