"""Figure 9(b): Naive vs Augmented BO CDFs, cost objective.

Paper: minimising deployment cost is harder than minimising time (both
methods need more measurements); Naive finds the best VM within six
attempts for only ~50% of workloads, Augmented raises that to ~60%, and
Augmented shows "a clear win ... after measuring five measurements".

Reproduced shape: cost is clearly harder than time for both methods, and
Augmented leads through the early search (measurements 4-6), which is the
region the stopping rules operate in (Figures 11-12).  In our dataset the
*tail* reverses — Naive's calibrated EI sweeps the many near-tied cheap
VMs more systematically than pure Prediction-Delta exploitation once the
easy wins are gone.  DESIGN.md section 7 records this divergence.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig9b"]


def test_fig9b_cdf_cost(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)
    time_result = FIGURES["fig9a"].build(runner)  # cached by fig9a

    naive = result["curves"]["naive"]
    augmented = result["curves"]["augmented"]
    show(FIGURE.heading_for(result), FIGURE.rows(result))
    for label, curve in result["curves"].items():
        print(f"{label:<10}", " ".join(f"{v:.2f}" for v in curve))

    # Cost is harder than time for Naive BO (the paper's central point
    # about the level playing field).
    assert naive[5] <= time_result["curves"]["naive"][5] - 0.05
    # Augmented leads (or ties) through the early search, where the
    # prescribed stopping criteria operate.
    assert augmented[3] >= naive[3] - 0.02
    assert augmented[4] >= naive[4] - 0.02
    assert augmented[5] >= naive[5] - 0.02
    # Both converge over a full sweep.
    assert naive[-1] == augmented[-1] == 1.0
