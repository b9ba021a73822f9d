"""Table I: the application/workload inventory."""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["table1"]


def test_table1_registry(benchmark):
    result = benchmark.pedantic(FIGURE.build, rounds=1, iterations=1)

    show(FIGURE.heading_for(result), FIGURE.rows(result))

    assert result["n_workloads"] == 107
    assert result["n_applications"] == 30
    assert result["frameworks"] == ["Hadoop 2.7", "Spark 1.5", "Spark 2.1"]
