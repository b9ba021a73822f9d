"""Unit tests for Naive BO (the CherryPick baseline)."""

import numpy as np
import pytest

from repro.core.naive_bo import GPScorer, NaiveBO
from repro.core.objectives import Objective
from repro.core.stopping import EIThreshold
from repro.ml.kernels import Matern12, Matern52


@pytest.fixture()
def environment(trace):
    return trace.environment("kmeans/Spark 2.1/small")


class TestNaiveBO:
    def test_beats_random_in_median_search_cost(self, trace):
        """On a spread of workloads, Naive BO should reach the optimum in
        fewer measurements than blind luck (median over repeats)."""
        from repro.core.baselines import RandomSearch

        workloads = [w.workload_id for w in trace.registry][::20]
        gains = []
        for workload_id in workloads:
            optimum = trace.objective_values(workload_id, "time").min()
            bo_costs, random_costs = [], []
            for seed in range(5):
                bo = NaiveBO(trace.environment(workload_id), seed=seed).run()
                rand = RandomSearch(trace.environment(workload_id), seed=seed).run()
                bo_costs.append(bo.first_step_reaching(optimum) or 19)
                random_costs.append(rand.first_step_reaching(optimum) or 19)
            gains.append(np.median(random_costs) - np.median(bo_costs))
        assert np.mean(gains) > 0

    def test_exhaustive_run_measures_everything(self, environment):
        result = NaiveBO(environment, seed=0).run()
        assert result.search_cost == 18
        assert result.best_value == pytest.approx(
            min(step.objective_value for step in result.steps)
        )

    def test_deterministic_given_seed(self, trace):
        a = NaiveBO(trace.environment("kmeans/Spark 2.1/small"), seed=5).run()
        b = NaiveBO(trace.environment("kmeans/Spark 2.1/small"), seed=5).run()
        assert a.measured_vm_names == b.measured_vm_names

    def test_different_seeds_use_different_initial_designs(self, trace):
        starts = {
            NaiveBO(trace.environment("kmeans/Spark 2.1/small"), seed=s).run().measured_vm_names[:3]
            for s in range(8)
        }
        assert len(starts) > 1

    def test_kernel_is_configurable(self, environment):
        result = NaiveBO(environment, seed=0, kernel=Matern12()).run()
        assert result.search_cost == 18

    def test_ei_stopping_ends_early(self, trace):
        result = NaiveBO(
            trace.environment("kmeans/Spark 2.1/small"),
            seed=0,
            stopping=EIThreshold(fraction=0.1, min_measurements=6),
        ).run()
        assert result.search_cost < 18
        assert result.stopped_by == "criterion"

    def test_objective_is_respected(self, trace):
        result = NaiveBO(
            trace.environment("kmeans/Spark 2.1/small"),
            objective=Objective.COST,
            seed=0,
        ).run()
        costs = trace.costs_for("kmeans/Spark 2.1/small")
        assert result.best_value == pytest.approx(costs.min())


class TestGPScorer:
    def test_scores_cover_unmeasured_candidates(self, trace):
        design = np.random.default_rng(0).normal(size=(10, 4))
        scorer = GPScorer(design, kernel=Matern52(), seed=0)
        values = np.array([3.0, 1.0, 2.0])
        scores = scorer.score([0, 1, 2], values, None, [3, 4, 5, 6])
        assert scores.scores.shape == (4,)
        assert scores.predicted is not None
        assert scores.expected_improvements is not None
        assert np.allclose(scores.scores, scores.expected_improvements)

    def test_ei_positive_somewhere_early(self, trace):
        design = np.random.default_rng(1).normal(size=(8, 3))
        scorer = GPScorer(design, seed=0)
        values = np.array([5.0, 4.0])
        scores = scorer.score([0, 1], values, None, list(range(2, 8)))
        assert scores.scores.max() > 0

    def test_prediction_interpolates_measured_neighbourhood(self):
        """A GP over a smooth synthetic objective predicts a near-duplicate
        candidate close to its measured twin."""
        rng = np.random.default_rng(2)
        design = rng.normal(size=(12, 4))
        design[11] = design[0] + 1e-4
        scorer = GPScorer(design, seed=0)
        values = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        scores = scorer.score([0, 1, 2, 3, 4], values, None, [11])
        assert scores.predicted[0] == pytest.approx(10.0, rel=0.2)
