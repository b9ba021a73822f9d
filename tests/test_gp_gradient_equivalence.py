"""Seeded search-outcome equivalence: analytic GP gradients vs finite
differences of the log marginal likelihood.

The GP optimises its likelihood with exact (fused, analytic) gradients.
The reference below, :class:`FiniteDifferenceGP`, optimises the same
likelihood with L-BFGS-B's own finite differences of
``log_marginal_likelihood``.  The two L-BFGS-B runs can settle in
different — equally good — local optima of a multi-modal surface, so
individual hyperparameter fits differ beyond optimiser tolerance; what
must agree is the *search outcome*: on the tier-1 grid configuration
(the engine test workloads, ``run_seed`` seeding, CherryPick's EI
stopping rule) both must find a comparably good VM at a comparable
search cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunGrid
from repro.core import naive_bo
from repro.core.acquisition import expected_improvement
from repro.core.naive_bo import GPScorer, NaiveBO
from repro.core.objectives import Objective
from repro.core.stopping import EIThreshold
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import kernel_by_name
from tests.test_ml_kernel_gradients import FiniteDifferenceGP

WORKLOADS = ("kmeans/Spark 2.1/small", "lr/Spark 1.5/medium")
REPEATS = 2

#: The selected VM's objective may differ by at most this factor.
BEST_VALUE_RTOL = 0.10
#: Search costs may differ by at most this many measurements.
COST_SLACK = 4


def _factory(environment, objective, seed):
    return NaiveBO(
        environment,
        objective=objective,
        seed=seed,
        kernel=kernel_by_name("matern52"),
        stopping=EIThreshold(),
    )


def _run(trace, key):
    grid = RunGrid(
        key=key,
        factory=_factory,
        objective=Objective.TIME,
        workload_ids=WORKLOADS,
        repeats=REPEATS,
    )
    return ExperimentRunner(trace, cache_dir=None).run(grid)


@pytest.fixture(scope="module")
def outcomes(trace):
    results = {"analytic": _run(trace, "gp-gradient-equiv-analytic")}
    with pytest.MonkeyPatch.context() as patch:
        # Every scorer GP becomes the finite-difference reference.
        patch.setattr(naive_bo, "GaussianProcessRegressor", FiniteDifferenceGP)
        results["numeric"] = _run(trace, "gp-gradient-equiv-numeric")
    return results


class TestSearchOutcomeEquivalence:
    def test_equivalent_best_vm_quality(self, outcomes):
        """Both modes must find a VM of (near-)identical measured quality."""
        for workload in WORKLOADS:
            for analytic, numeric in zip(
                outcomes["analytic"][workload], outcomes["numeric"][workload]
            ):
                assert analytic.best_value == pytest.approx(
                    numeric.best_value, rel=BEST_VALUE_RTOL
                )

    def test_comparable_search_costs(self, outcomes):
        for workload in WORKLOADS:
            analytic_costs = [r.search_cost for r in outcomes["analytic"][workload]]
            numeric_costs = [r.search_cost for r in outcomes["numeric"][workload]]
            for a, n in zip(analytic_costs, numeric_costs):
                assert abs(a - n) <= COST_SLACK

    def test_same_initial_design(self, outcomes):
        """The seeded initial design does not depend on the optimiser."""
        for workload in WORKLOADS:
            for analytic, numeric in zip(
                outcomes["analytic"][workload], outcomes["numeric"][workload]
            ):
                assert (
                    analytic.measured_vm_names[:3] == numeric.measured_vm_names[:3]
                )


class TestScorerEquivalence:
    def test_scores_agree_at_fixed_hyperparameters(self):
        """With optimisation off, the incremental-geometry scoring path
        must reproduce a direct-evaluation GP."""
        rng = np.random.default_rng(11)
        design = rng.uniform(size=(14, 5))
        y = rng.uniform(1.0, 3.0, size=14)
        measured = [2, 7, 11, 4]
        unmeasured = [i for i in range(14) if i not in measured]

        scorer = GPScorer(design, seed=0)
        scorer.gp.optimise = False
        scores = scorer.score(measured, y[measured], None, unmeasured)

        scaled = scorer._scaled_design
        direct = GaussianProcessRegressor(optimise=False).fit(scaled[measured], y[measured])
        mean, std = direct.predict(scaled[unmeasured], return_std=True)
        ei = expected_improvement(mean, std, float(y[measured].min()))
        assert np.allclose(scores.scores, ei, atol=1e-9)
        assert np.allclose(scores.predicted, mean, atol=1e-9)

    def test_incremental_geometry_used_in_analytic_mode(self):
        rng = np.random.default_rng(12)
        design = rng.uniform(size=(10, 3))
        y = rng.uniform(1.0, 2.0, size=10)
        scorer = GPScorer(design, seed=0)
        measured = []
        for step, index in enumerate([3, 8, 1, 6]):
            measured.append(index)
            unmeasured = [i for i in range(10) if i not in measured]
            scorer.score(measured, np.asarray(y)[measured], None, unmeasured)
        stats = scorer.geometry_stats
        assert stats["extensions"] == 4
        assert stats["rebuilds"] == 0
