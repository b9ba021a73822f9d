"""Figure 2: Naive BO is sluggish on a fragile workload.

Paper: on its Region-III showcase (ALS on Spark), after five measurements
the found VM is still ~1.75x slower than optimal and the optimum is not
found until around the thirteenth attempt.  Our dataset's equivalent
fragile workload takes the same role; the magnitudes are milder (see
DESIGN.md section 7) but the shape — still suboptimal past the initial
design, optimum only found deep into the search — is the claim.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig2"]


def test_fig2_fragile_trace(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)

    show(FIGURE.heading_for(result), FIGURE.rows(result))
    print("median curve:", " ".join(f"{v:.2f}" for v in result["median_curve"]))

    median = result["median_curve"]
    # Shape: progress is monotone, still above optimal after the initial
    # design + two acquisitions, optimal only well past the 33% mark,
    # and exact by the end of a full sweep.
    assert all(a >= b - 1e-12 for a, b in zip(median, median[1:]))
    assert result["median_at_5"] > 1.005
    assert result["steps_to_optimum_median"] >= 6
    assert median[-1] <= 1.001
