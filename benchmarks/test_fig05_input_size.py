"""Figure 5: the same application with different input sizes favours
different VM types.

Paper: e.g. m4.2xlarge is the most cost-effective VM for bayes at the
small input but loses its optimality at the large input.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig5"]


def test_fig5_input_size(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    show(FIGURE.heading_for(result), FIGURE.rows(result))
    for example in result["examples"]:
        print(
            f"  {example['application']}/{example['framework']}: "
            f"{example['best_cost_by_size']}"
        )

    # Shape: optima move with scale for a substantial share of pairs.
    assert result["changed_best_cost"] >= result["n_app_framework_pairs"] * 0.3
    assert result["examples"]
