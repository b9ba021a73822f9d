"""Unit tests for Augmented BO (the paper's method)."""

import numpy as np
import pytest

from repro.core.augmented_bo import AugmentedBO, PairwiseTreeScorer
from repro.core.objectives import Objective
from repro.core.stopping import PredictionDeltaThreshold
from repro.simulator.cluster import Measurement
from repro.simulator.lowlevel import LowLevelMetrics


@pytest.fixture()
def environment(trace):
    return trace.environment("kmeans/Spark 2.1/small")


class TestAugmentedBO:
    def test_exhaustive_run_measures_everything(self, environment):
        result = AugmentedBO(environment, seed=0).run()
        assert result.search_cost == 18
        assert result.stopped_by == "exhausted"

    def test_deterministic_given_seed(self, trace):
        a = AugmentedBO(trace.environment("kmeans/Spark 2.1/small"), seed=4).run()
        b = AugmentedBO(trace.environment("kmeans/Spark 2.1/small"), seed=4).run()
        assert a.measured_vm_names == b.measured_vm_names

    def test_delta_stopping_ends_early(self, trace):
        result = AugmentedBO(
            trace.environment("kmeans/Spark 2.1/small"),
            seed=0,
            stopping=PredictionDeltaThreshold(threshold=1.1),
        ).run()
        assert result.search_cost < 18
        assert result.stopped_by == "criterion"

    def test_finds_optimum_within_half_the_space_usually(self, trace):
        """On the memory-cliff workload the low-level signal is strongest;
        Augmented BO should reach the optimum within 9 measurements in the
        majority of repeats."""
        workload_id = "lr/Spark 1.5/medium"
        optimum = trace.objective_values(workload_id, "time").min()
        costs = []
        for seed in range(7):
            result = AugmentedBO(trace.environment(workload_id), seed=seed).run()
            costs.append(result.first_step_reaching(optimum) or 19)
        assert np.median(costs) <= 9

    def test_cost_objective_supported(self, trace):
        result = AugmentedBO(
            trace.environment("kmeans/Spark 2.1/small"),
            objective=Objective.COST,
            seed=0,
        ).run()
        assert result.best_value == pytest.approx(
            trace.costs_for("kmeans/Spark 2.1/small").min()
        )

    def test_absolute_target_mode_supported(self, environment):
        result = AugmentedBO(environment, seed=0, relational=False).run()
        assert result.search_cost == 18


class TestPairwiseTreeScorer:
    def make_measurement(self, trace, workload_id, vm_index):
        return trace.measurement(workload_id, trace.catalog[vm_index])

    def test_training_set_is_all_ordered_pairs(self):
        design = np.arange(20.0).reshape(5, 4)
        scorer = PairwiseTreeScorer(design, seed=0)
        metrics = np.random.default_rng(0).uniform(size=(3, 6))
        X, y = scorer._training_set([0, 1, 2], np.log([1.0, 2.0, 3.0]), metrics)
        assert X.shape == (9, 4 + 4 + 6)  # 3 sources x 3 destinations
        assert y.shape == (9,)

    def test_relational_targets_are_log_ratios(self):
        design = np.arange(20.0).reshape(5, 4)
        scorer = PairwiseTreeScorer(design, seed=0, relational=True)
        metrics = np.zeros((2, 6))
        log_values = np.log([10.0, 40.0])
        _, y = scorer._training_set([0, 1], log_values, metrics)
        # Order: (src0->dst0), (src0->dst1), (src1->dst0), (src1->dst1).
        assert y == pytest.approx([0.0, np.log(4.0), -np.log(4.0), 0.0])

    def test_identity_pairs_have_zero_ratio(self):
        design = np.arange(12.0).reshape(3, 4)
        scorer = PairwiseTreeScorer(design, seed=0, relational=True)
        _, y = scorer._training_set([0, 1, 2], np.log([5.0, 6.0, 7.0]), np.zeros((3, 6)))
        assert y[0] == y[4] == y[8] == 0.0

    def test_pair_row_layout(self):
        """Pair (source 0 -> destination 1) is row ``0 * m + 1``:
        ``[design[1] | design[0] | metrics[0]]``."""
        design = np.arange(8.0).reshape(2, 4)
        scorer = PairwiseTreeScorer(design, seed=0)
        metrics = np.vstack([np.full(6, 9.0), np.full(6, 7.0)])
        rows, _ = scorer._training_set([0, 1], np.zeros(2), metrics)
        assert rows[1].tolist() == design[1].tolist() + design[0].tolist() + [9.0] * 6

    def test_prediction_averages_over_sources(self, trace):
        workload_id = "kmeans/Spark 2.1/small"
        design = np.random.default_rng(1).normal(size=(18, 4))
        scorer = PairwiseTreeScorer(design, seed=0)
        measured = [0, 5, 10]
        values = np.array(
            [trace.times[trace.row_of(workload_id), i] for i in measured]
        )
        measurements = [self.make_measurement(trace, workload_id, i) for i in measured]
        scores = scorer.score(measured, values, measurements, [1, 2, 3])
        assert scores.predicted.shape == (3,)
        assert np.all(scores.predicted > 0)  # log-space averaging stays positive

    def test_scores_are_negated_predictions(self, trace):
        workload_id = "kmeans/Spark 2.1/small"
        design = np.random.default_rng(2).normal(size=(18, 4))
        scorer = PairwiseTreeScorer(design, seed=0)
        measured = [0, 9]
        values = np.array([100.0, 200.0])
        measurements = [self.make_measurement(trace, workload_id, i) for i in measured]
        scores = scorer.score(measured, values, measurements, [3, 4])
        assert np.allclose(scores.scores, -scores.predicted)


class TestLowLevelSignalIsUsed:
    def test_metrics_change_predictions(self, trace):
        """Feeding different low-level metrics for the same measured VMs
        must change the surrogate's predictions — the augmentation is real,
        not decorative."""
        design = trace.environment("kmeans/Spark 2.1/small")
        workload_id = "kmeans/Spark 2.1/small"
        matrix = np.random.default_rng(3).normal(size=(18, 4))
        measured = [0, 4, 8, 12]
        values = np.array([50.0, 60.0, 70.0, 80.0])
        real = [trace.measurement(workload_id, trace.catalog[i]) for i in measured]
        fake = [
            Measurement(
                vm=m.vm,
                execution_time_s=m.execution_time_s,
                cost_usd=m.cost_usd,
                metrics=LowLevelMetrics(*(np.arange(6.0) * (i + 1) * 13.0 + 1)),
            )
            for i, m in enumerate(real)
        ]
        scores_real = PairwiseTreeScorer(matrix, seed=0).score(measured, values, real, [1, 2])
        scores_fake = PairwiseTreeScorer(matrix, seed=0).score(measured, values, fake, [1, 2])
        assert not np.allclose(scores_real.predicted, scores_fake.predicted)
