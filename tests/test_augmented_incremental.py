"""The augmented surrogate's pair training set, step by step.

Property under test: after every step of a seeded search, the training
set the scorer fitted on equals the enumeration of all ordered measured
pairs — the reference `_training_set` the unit tests pin — also when a
call's history does not extend the previous one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.augmented_bo import AugmentedBO, PairwiseTreeScorer
from repro.ml.tree import FACTORED_MIN_PAIRS, PairRows

WORKLOAD = "kmeans/Spark 2.1/small"


def _reference(scorer, optimizer):
    metrics = np.array(
        [m.metrics.to_vector() for m in optimizer.measured_measurements]
    )
    return scorer._training_set(
        optimizer.measured_indices,
        np.log(optimizer.measured_values),
        metrics,
    )


class TestIncrementalEqualsFromScratch:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_after_every_step_of_a_search(self, trace, seed):
        """The cache is validated against the reference after each step
        by hooking the optimiser's scoring path."""
        optimizer = AugmentedBO(trace.environment(WORKLOAD), seed=seed)
        scorer = optimizer.scorer
        checked = []
        original = scorer.score

        def checking_score(measured, values, measurements, unmeasured):
            result = original(measured, values, measurements, unmeasured)
            cached_X, cached_y = scorer.cached_training_set()
            ref_X, ref_y = _reference(scorer, optimizer)
            np.testing.assert_array_equal(cached_X, ref_X)
            np.testing.assert_array_equal(cached_y, ref_y)
            checked.append(len(measured))
            return result

        scorer.score = checking_score
        optimizer.run()
        # Every acquisition round was checked, at growing history sizes.
        assert checked == sorted(checked)
        assert len(checked) >= 10

    def test_relational_false_targets(self, trace):
        optimizer = AugmentedBO(trace.environment(WORKLOAD), seed=0, relational=False)
        optimizer.run()
        scorer = optimizer.scorer
        # The cache is one step behind after run() (the final measurement
        # is never scored), so extend it to the full history first.
        scorer.score(
            optimizer.measured_indices,
            optimizer.measured_values,
            optimizer.measured_measurements,
            [0],
        )
        cached_X, cached_y = scorer.cached_training_set()
        ref_X, ref_y = _reference(scorer, optimizer)
        np.testing.assert_array_equal(cached_X, ref_X)
        np.testing.assert_array_equal(cached_y, ref_y)


class TestCacheRebuild:
    def test_divergent_history_rebuilds(self):
        """A call whose history does not extend the previous one must
        rebuild the cache, not extend it."""
        rng = np.random.default_rng(0)
        design = rng.uniform(size=(8, 4))

        class FakeMetrics:
            def __init__(self, vector):
                self._vector = np.asarray(vector, dtype=float)

            def to_vector(self):
                return self._vector

        class FakeMeasurement:
            def __init__(self, vector):
                self.metrics = FakeMetrics(vector)

        def measurements_for(indices):
            return [FakeMeasurement(rng2.uniform(size=3)) for _ in indices]

        scorer = PairwiseTreeScorer(design, n_estimators=4, seed=1)
        rng2 = np.random.default_rng(1)
        first = [0, 1, 2]
        meas1 = measurements_for(first)
        values1 = np.array([3.0, 2.0, 4.0])
        scorer.score(first, values1, meas1, [5, 6])

        # Same length but different VM at position 1: not an extension.
        second = [0, 3, 2]
        meas2 = [meas1[0], FakeMeasurement(rng2.uniform(size=3)), meas1[2]]
        values2 = np.array([3.0, 5.0, 4.0])
        scorer.score(second, values2, meas2, [5, 6])
        cached_X, cached_y = scorer.cached_training_set()
        metrics = np.array([m.metrics.to_vector() for m in meas2])
        ref_X, ref_y = scorer._training_set(second, np.log(values2), metrics)
        np.testing.assert_array_equal(cached_X, ref_X)
        np.testing.assert_array_equal(cached_y, ref_y)

    def test_cached_training_set_requires_a_score_call(self):
        scorer = PairwiseTreeScorer(np.eye(4), n_estimators=2, seed=0)
        with pytest.raises(RuntimeError, match="no pair cache"):
            scorer.cached_training_set()


class TestRefitFraction:
    def test_validation(self):
        with pytest.raises(ValueError, match="refit_fraction"):
            PairwiseTreeScorer(np.eye(4), refit_fraction=0.0)
        with pytest.raises(ValueError, match="refit_fraction"):
            PairwiseTreeScorer(np.eye(4), refit_fraction=1.5)
        with pytest.raises(ValueError, match="extra_trees"):
            PairwiseTreeScorer(
                np.eye(4), ensemble="random_forest", refit_fraction=0.5
            )

    def test_full_refit_is_default_and_bit_identical(self, trace):
        plain = AugmentedBO(trace.environment(WORKLOAD), seed=5).run()
        explicit = AugmentedBO(
            trace.environment(WORKLOAD), seed=5, refit_fraction=1.0
        ).run()
        assert plain == explicit

    def test_warm_start_is_deterministic(self, trace):
        first = AugmentedBO(
            trace.environment(WORKLOAD), seed=5, refit_fraction=0.25
        ).run()
        second = AugmentedBO(
            trace.environment(WORKLOAD), seed=5, refit_fraction=0.25
        ).run()
        assert first == second

    def test_warm_start_still_finds_good_vms(self, trace):
        result = AugmentedBO(
            trace.environment(WORKLOAD), seed=0, refit_fraction=0.25
        ).run()
        optimum = trace.objective_values(WORKLOAD, "time").min()
        assert result.best_value <= 1.5 * optimum


class DenseQueryScorer(PairwiseTreeScorer):
    """Reference query assembly: all ``u * m`` dense rows, built by
    ``repeat``/``tile`` and transformed by the scaler every step, then
    walked flat."""

    def query_rows(self, pending):
        if pending.scaled_query is None:
            design, index, metrics = self._design, pending.index, pending.metrics
            candidates = np.asarray(pending.unmeasured, dtype=np.int64)
            u, m, d = candidates.size, index.size, design.shape[1]
            rows = np.empty((u * m, pending.X_scaled.shape[1]))
            rows[:, :d] = np.repeat(design[candidates], m, axis=0)
            rows[:, d : 2 * d] = np.tile(design[index], (u, 1))
            rows[:, 2 * d :] = np.tile(metrics, (u, 1))
            pending.scaled_query = pending.scaler.transform(rows)
        return pending.scaled_query


def _history(trace, size):
    environment = trace.environment(WORKLOAD)
    environment.reset()
    catalog = list(environment.catalog)
    measurements = [environment.measure(vm) for vm in catalog[:size]]
    values = [m.execution_time_s for m in measurements]
    design = AugmentedBO(environment, seed=0).design_matrix
    return design, catalog, measurements, values


#: Query assembly comparisons: ``(trace fixture, seed, budget)``.  On
#: ``aws-2017`` the query never reaches the factored walk; the
#: ``aws-large`` search does from its fifth measurement on.
SEARCH_CASES = [
    pytest.param("trace", 0, None, id="0"),
    pytest.param("trace", 3, None, id="3"),
    pytest.param("large_trace", 0, 16, id="aws-large-0"),
]

#: ``(trace fixture, history sizes)`` for the scorer-level comparison; a
#: repeated size is a fixed-history call (the frozen-scaler path).
HISTORY_CASES = [
    pytest.param("trace", (4, 5, 6, 7, 8, 8), id="aws-2017"),
    pytest.param("large_trace", (3, 5, 8, 12, 12), id="aws-large"),
]


class TestQueryModes:
    """Factored query rows vs the dense repeat/tile reference
    (:class:`DenseQueryScorer`): same floats, different assembly and
    tree walk."""

    @pytest.mark.parametrize("trace_name, seed, budget", SEARCH_CASES)
    def test_full_search_is_bit_identical(self, request, trace_name, seed, budget):
        trace = request.getfixturevalue(trace_name)
        runs = {}
        for dense in (False, True):
            optimizer = AugmentedBO(
                trace.environment(WORKLOAD), seed=seed, max_measurements=budget,
            )
            if dense:
                # Same scorer state and seed; only the query assembly differs.
                optimizer.scorer.__class__ = DenseQueryScorer
            result = optimizer.run()
            runs[dense] = (
                result.measured_vm_names,
                [s.objective_value for s in result.steps],
            )
        assert runs[False] == runs[True]

    @pytest.mark.parametrize("trace_name, sizes", HISTORY_CASES)
    def test_scores_equal_at_every_history(self, request, trace_name, sizes):
        """Scorer-level check: identical score vectors while the history
        (and with it the scaler statistics) grows, then again on a
        repeated call at fixed history."""
        trace = request.getfixturevalue(trace_name)
        design, catalog, measurements, values = _history(trace, max(sizes))

        fast = PairwiseTreeScorer(design, seed=1)
        slow = DenseQueryScorer(design, seed=1)
        pairs = []
        for upto in sizes:
            measured = list(range(upto))
            unmeasured = list(range(upto, len(catalog)))
            pairs.append(len(measured) * len(unmeasured))
            a = fast.score(measured, values[:upto], measurements[:upto], unmeasured)
            b = slow.score(measured, values[:upto], measurements[:upto], unmeasured)
            np.testing.assert_array_equal(a.scores, b.scores)
            np.testing.assert_array_equal(a.predicted, b.predicted)
        if trace_name == "large_trace":
            # Both sides of the factored-walk crossover were compared.
            assert min(pairs) < FACTORED_MIN_PAIRS <= max(pairs)

    @pytest.mark.parametrize("ensemble", ["extra_trees", "random_forest"])
    def test_random_forest_gets_pair_rows(self, large_trace, ensemble):
        """Both ensembles take the factored rows (here past the
        factored-walk crossover), and score exactly as on the dense
        reference rows."""
        design, catalog, measurements, values = _history(large_trace, 8)
        measured, unmeasured = list(range(8)), list(range(8, len(catalog)))
        scorer = PairwiseTreeScorer(design, seed=1, ensemble=ensemble)
        pending = scorer.score_begin(measured, values, measurements, unmeasured)
        rows = scorer.query_rows(pending)
        assert isinstance(rows, PairRows)
        assert rows.shape == (8 * (len(catalog) - 8), pending.X_scaled.shape[1])
        assert rows.shape[0] >= FACTORED_MIN_PAIRS
        scores = [
            cls(design, seed=1, ensemble=ensemble)
            .score(measured, values, measurements, unmeasured)
            .scores
            for cls in (PairwiseTreeScorer, DenseQueryScorer)
        ]
        np.testing.assert_array_equal(*scores)
