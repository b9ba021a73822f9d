"""Vectorized lock-step executor, stacked primitives, and ask/tell stepping.

Three layers of bit-identity guarantees:

* the group primitives (``fit_ensembles_stacked``,
  ``predict_packed_many``, ``fit_gps_stacked``,
  ``expected_improvement_stacked``) must reproduce their per-model
  serial counterparts exactly;
* a :class:`~repro.core.smbo.SearchState` stepped part way and then
  finished through the ``begin_round`` / ``complete_round`` split must
  finish with the same :class:`~repro.core.result.SearchResult` as an
  uninterrupted run, on both the GP and the tree surrogate path, clean
  and faulty;
* ``run_cells(executor="vector")`` must yield the same result for every
  cell as the serial executor, for every optimiser family it can batch
  and for the fallback paths it cannot; the driver groups rounds
  through the scorers' ``group_key`` / ``score_group`` protocol alone,
  and yields the cells each round finishes as one list, which the
  runner records in one commit, so a killed grid keeps every round it
  finished.
"""

from __future__ import annotations

import contextlib
import functools
import os
import signal

import numpy as np
import pytest

from repro.cloud.encoding import InstanceEncoder
from repro.core.acquisition import (
    expected_improvement,
    expected_improvement_stacked,
)
from repro.core.augmented_bo import AugmentedBO, PairwiseTreeScorer
from repro.core.baselines import RandomSearch
from repro.core.history_bo import (
    HistoryAugmentedBO,
    HistoryModel,
    build_history_pairs,
)
from repro.core.hybrid_bo import HybridBO
from repro.core.naive_bo import GPScorer, NaiveBO
from repro.core.objectives import Objective
from repro.core.smbo import AcquisitionScores, SequentialOptimizer
from repro.core.stopping import PredictionDeltaThreshold
from repro.faults import FaultInjector, RetryPolicy, parse_fault_plan
from repro.ml.extra_trees import ExtraTreesRegressor, fit_ensembles_stacked
from repro.ml.gp import GaussianProcessRegressor, fit_gps_stacked
from repro.ml.kernels import RBF, Geometry, Matern52
from repro.ml.tree import predict_packed, predict_packed_many
from repro.ml.tree_builder import FACTORED_MIN_TRAIN_PAIRS
from repro.parallel import run_cells
from repro.parallel.engine import _fork_available
from repro.parallel.queue import WorkQueue
from repro.parallel.vector import VectorizedGridDriver
from repro.trace.generate import default_trace

WORKLOADS = (
    "kmeans/Spark 2.1/small",
    "lr/Spark 1.5/medium",
    "pagerank/Hadoop 2.7/small",
)


def tree_factory(environment, objective, seed):
    return AugmentedBO(
        environment,
        objective=objective,
        seed=seed,
        stopping=PredictionDeltaThreshold(),
    )


def gp_factory(environment, objective, seed):
    return NaiveBO(
        environment, objective=objective, seed=seed, max_measurements=8
    )


def hybrid_factory(environment, objective, seed):
    return HybridBO(
        environment, objective=objective, seed=seed, max_measurements=8
    )


def naive_factory(acquisition):
    def factory(environment, objective, seed):
        return NaiveBO(
            environment,
            objective=objective,
            seed=seed,
            acquisition=acquisition,
            max_measurements=8,
        )

    return factory


@functools.cache
def _history_model(workload_id):
    return HistoryModel(
        *build_history_pairs(default_trace(), workload_id, seed=0), seed=0
    )


def history_factory(environment, objective, seed):
    return HistoryAugmentedBO(
        environment,
        objective=objective,
        seed=seed,
        history=_history_model(environment.workload.workload_id),
        max_measurements=8,
    )


def tree_variant_factory(**variant):
    def factory(environment, objective, seed):
        return AugmentedBO(
            environment,
            objective=objective,
            seed=seed,
            stopping=PredictionDeltaThreshold(),
            **variant,
        )

    return factory


#: Augmented BO surrogates whose rounds the driver scores alone.
warm_tree_factory = tree_variant_factory(refit_fraction=0.5)
random_forest_factory = tree_variant_factory(ensemble="random_forest")


def random_factory(environment, objective, seed):
    return RandomSearch(
        environment, objective=objective, seed=seed, max_measurements=6
    )


def faulty_tree_factory(environment, objective, seed):
    plan = parse_fault_plan("transient:rate=0.3", seed=seed)
    return AugmentedBO(
        FaultInjector(environment, plan),
        objective=objective,
        seed=seed,
        stopping=PredictionDeltaThreshold(),
        retry_policy=RetryPolicy(max_attempts=3),
    )


def faulty_gp_factory(environment, objective, seed):
    plan = parse_fault_plan("transient:rate=0.3", seed=seed)
    return NaiveBO(
        FaultInjector(environment, plan),
        objective=objective,
        seed=seed,
        max_measurements=8,
        retry_policy=RetryPolicy(max_attempts=3),
    )


# ---------------------------------------------------------------------------
# Ask/tell: step part way, finish through the round split, bit-identical.
# ---------------------------------------------------------------------------


class TestAskTellResume:
    FACTORIES = {
        "tree": tree_factory,
        "gp": gp_factory,
        "faulty-tree": faulty_tree_factory,
        "faulty-gp": faulty_gp_factory,
    }

    @pytest.mark.parametrize("kind", sorted(FACTORIES))
    @pytest.mark.parametrize("steps_before", [1, 4])
    def test_resume_matches_uninterrupted(self, trace, kind, steps_before):
        """Pause after ``steps_before`` steps, then resume the live state
        the way the vectorized driver does: init observations through
        ``step()``, acquisition rounds through ``begin_round`` /
        ``complete_round`` with the optimiser's own scores."""
        factory = self.FACTORIES[kind]
        environment = trace.environment(WORKLOADS[0])
        baseline = factory(environment, Objective.TIME, seed=3).run()

        state = factory(
            trace.environment(WORKLOADS[0]), Objective.TIME, seed=3
        ).start()
        for _ in range(steps_before):
            if not state.step():
                break
        while not state.done:
            if state.phase == "init":
                state.step()
                continue
            candidates = state.begin_round()
            if candidates is None:
                break
            state.complete_round(
                candidates, state.optimizer._score_candidates(candidates)
            )
        assert state.result() == baseline

    def test_stepping_matches_run(self, trace):
        baseline = tree_factory(
            trace.environment(WORKLOADS[1]), Objective.TIME, seed=0
        ).run()
        state = tree_factory(
            trace.environment(WORKLOADS[1]), Objective.TIME, seed=0
        ).start()
        while state.step():
            pass
        assert state.result() == baseline

    def test_result_unavailable_while_live(self, trace):
        state = tree_factory(
            trace.environment(WORKLOADS[0]), Objective.TIME, seed=1
        ).start()
        with pytest.raises(RuntimeError):
            state.result()


# ---------------------------------------------------------------------------
# Stacked surrogate primitives vs their serial counterparts.
# ---------------------------------------------------------------------------


def _datasets(seed, count, n, d):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        out.append((X, y))
    return out


class TestFitGpsStacked:
    def _pairs(self, count, seed=21, kernel=None, **gp_kwargs):
        datasets = _datasets(seed, count, 7, 3)
        serial, stacked = [], []
        for index in range(count):
            k = kernel() if kernel is not None else None
            serial.append(
                GaussianProcessRegressor(kernel=k, seed=index, **gp_kwargs)
            )
            k = kernel() if kernel is not None else None
            stacked.append(
                GaussianProcessRegressor(kernel=k, seed=index, **gp_kwargs)
            )
        return datasets, serial, stacked

    def _assert_same_state(self, serial, stacked, datasets):
        for gp_a, gp_b, (X, _) in zip(serial, stacked, datasets):
            np.testing.assert_array_equal(gp_a._L, gp_b._L)
            np.testing.assert_array_equal(gp_a._alpha, gp_b._alpha)
            np.testing.assert_array_equal(
                gp_a.kernel.theta, gp_b.kernel.theta
            )
            assert gp_a.noise == gp_b.noise
            assert gp_a.n_fits == gp_b.n_fits
            assert gp_a.n_kernel_builds == gp_b.n_kernel_builds
            mean_a, std_a = gp_a.predict(X, return_std=True)
            mean_b, std_b = gp_b.predict(X, return_std=True)
            np.testing.assert_array_equal(mean_a, mean_b)
            np.testing.assert_array_equal(std_a, std_b)

    def test_matches_per_gp_fit(self):
        datasets, serial, stacked = self._pairs(3)
        for gp, (X, y) in zip(serial, datasets):
            gp.fit(X, y)
        fit_gps_stacked(
            stacked, [X for X, _ in datasets], [y for _, y in datasets]
        )
        self._assert_same_state(serial, stacked, datasets)

    def test_matches_with_precomputed_geometry(self):
        datasets, serial, stacked = self._pairs(3, seed=22, optimise=False)
        geometries = [Geometry(X) for X, _ in datasets]
        for gp, (X, y), geometry in zip(serial, datasets, geometries):
            gp.fit(X, y, geometry=geometry)
        fit_gps_stacked(
            stacked,
            [X for X, _ in datasets],
            [y for _, y in datasets],
            geometries,
        )
        self._assert_same_state(serial, stacked, datasets)

    def test_mixed_kernel_group_matches_per_gp_fit(self):
        datasets = _datasets(23, 2, 7, 3)
        serial = [
            GaussianProcessRegressor(kernel=RBF(), seed=0),
            GaussianProcessRegressor(kernel=Matern52(), seed=1),
        ]
        stacked = [
            GaussianProcessRegressor(kernel=RBF(), seed=0),
            GaussianProcessRegressor(kernel=Matern52(), seed=1),
        ]
        for gp, (X, y) in zip(serial, datasets):
            gp.fit(X, y)
        fit_gps_stacked(
            stacked, [X for X, _ in datasets], [y for _, y in datasets]
        )
        self._assert_same_state(serial, stacked, datasets)

    def test_rejects_mismatched_lengths(self):
        datasets, _, stacked = self._pairs(2, seed=24)
        with pytest.raises(ValueError):
            fit_gps_stacked(stacked, [datasets[0][0]], [d[1] for d in datasets])


class TestExpectedImprovementStacked:
    def test_matches_per_row_ei(self):
        rng = np.random.default_rng(31)
        mean = rng.normal(size=(4, 9))
        std = np.abs(rng.normal(size=(4, 9)))
        std[1, 3] = 0.0  # degenerate-posterior entry
        std[2, :] = 0.0  # fully degenerate row
        best = rng.normal(size=4)
        stacked = expected_improvement_stacked(mean, std, best)
        for row in range(4):
            np.testing.assert_array_equal(
                stacked[row],
                expected_improvement(mean[row], std[row], float(best[row])),
            )

    def test_rejects_bad_shapes(self):
        mean = np.zeros((2, 3))
        with pytest.raises(ValueError):
            expected_improvement_stacked(mean, np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ValueError):
            expected_improvement_stacked(mean, np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            expected_improvement_stacked(
                np.zeros(3), np.zeros(3), np.zeros(1)
            )

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            expected_improvement_stacked(
                np.zeros((1, 2)), np.array([[1.0, -0.1]]), np.zeros(1)
            )


class TestFitEnsemblesStacked:
    def _pairs(self, count, **kwargs):
        datasets = _datasets(41, count, 12, 4)
        serial = [
            ExtraTreesRegressor(n_estimators=5, seed=index, **kwargs)
            for index in range(count)
        ]
        stacked = [
            ExtraTreesRegressor(n_estimators=5, seed=index, **kwargs)
            for index in range(count)
        ]
        return datasets, serial, stacked

    def test_matches_per_model_fit(self):
        datasets, serial, stacked = self._pairs(3)
        for model, (X, y) in zip(serial, datasets):
            model.fit(X, y)
        fit_ensembles_stacked(stacked, datasets)
        for model_a, model_b, (X, _) in zip(serial, stacked, datasets):
            np.testing.assert_array_equal(
                model_a.predict(X), model_b.predict(X)
            )
            np.testing.assert_array_equal(
                model_a._packed.value, model_b._packed.value
            )

    def test_rejects_pending_warm_refit_models(self):
        datasets, _, stacked = self._pairs(2, refit_fraction=0.5)
        fit_ensembles_stacked(stacked, datasets)
        with pytest.raises(ValueError, match="warm-refit"):
            fit_ensembles_stacked(stacked, datasets)

    def test_predict_packed_many_matches_per_ensemble(self):
        datasets, serial, _ = self._pairs(3)
        rng = np.random.default_rng(7)
        queries = [rng.normal(size=(n, 4)) for n in (5, 1, 8)]
        for model, (X, y) in zip(serial, datasets):
            model.fit(X, y)
        packeds = [model._packed for model in serial]
        batched = predict_packed_many(packeds, queries)
        for packed, X, result in zip(packeds, queries, batched):
            np.testing.assert_array_equal(result, predict_packed(packed, X))


class TestScoreProtocol:
    """Every scorer takes one ``(measured, values, measurements,
    unmeasured)`` round, and ``score`` is its class's ``score_group``
    for a group of one, so ``score(*round_)`` works for any scorer."""

    @pytest.mark.parametrize("scorer_class", [GPScorer, PairwiseTreeScorer])
    def test_score_is_the_group_of_one(self, trace, scorer_class):
        workload_id = WORKLOADS[0]
        measured = [0, 3, 7, 12]
        measurements = [
            trace.measurement(workload_id, trace.catalog[i]) for i in measured
        ]
        values = np.array([meas.execution_time_s for meas in measurements])
        unmeasured = [i for i in range(len(trace.catalog)) if i not in measured]
        round_ = (measured, values, measurements, unmeasured)
        design = InstanceEncoder(trace.catalog).encode_all()
        alone = scorer_class(design, seed=4).score(*round_)
        scorer = scorer_class(design, seed=4)
        grouped = type(scorer).score_group([scorer], [round_])[0]
        assert len(alone.scores) == len(unmeasured)
        np.testing.assert_array_equal(alone.scores, grouped.scores)
        np.testing.assert_array_equal(alone.predicted, grouped.predicted)
        np.testing.assert_array_equal(
            alone.expected_improvements, grouped.expected_improvements
        )


class TestTreeScoreGroup:
    """``PairwiseTreeScorer.score_group`` picks its fit path from the
    group size: a group of one trains over the factored pairs from
    ``FACTORED_MIN_TRAIN_PAIRS`` on, a larger group stacks.  Both must
    score every member as its same-seed twin scores alone."""

    def _round(self, trace, workload_id, m):
        indices = list(range(0, 4 * m, 4))
        measurements = [
            trace.measurement(workload_id, trace.catalog[i]) for i in indices
        ]
        values = np.array([meas.execution_time_s for meas in measurements])
        unmeasured = [i for i in range(len(trace.catalog)) if i not in indices]
        return indices, values, measurements, unmeasured

    def test_group_matches_twins_across_the_factored_crossover(self, large_trace):
        design = InstanceEncoder(large_trace.catalog).encode_all()
        workloads = [workload.workload_id for workload in large_trace.registry][:3]
        rounds = [
            self._round(large_trace, workload_id, m)
            for workload_id, m in zip(workloads, (20, 5, 21))
        ]
        assert len(rounds[0][0]) ** 2 >= FACTORED_MIN_TRAIN_PAIRS
        group = [PairwiseTreeScorer(design, seed=seed) for seed in (1, 2, 3)]
        twins = [PairwiseTreeScorer(design, seed=seed) for seed in (1, 2, 3)]
        grouped = PairwiseTreeScorer.score_group(group, rounds)
        for twin, round_, scored in zip(twins, rounds, grouped):
            alone = twin.score(*round_)
            np.testing.assert_array_equal(scored.scores, alone.scores)
            np.testing.assert_array_equal(scored.predicted, alone.predicted)


# ---------------------------------------------------------------------------
# The vectorized executor end to end.
# ---------------------------------------------------------------------------


class _NearestScorer:
    """A test-local scorer: predicts each candidate's value as its
    nearest measured neighbour's, plus a draw from its own generator,
    and groups every round under one key."""

    #: The size of every group scored, in order.
    group_sizes: list[int] = []

    def __init__(self, design, seed):
        self._design = design
        self._rng = np.random.default_rng(seed)

    def group_key(self, measured, values, measurements, unmeasured):
        return ("nearest",)

    @staticmethod
    def score_group(scorers, rounds):
        _NearestScorer.group_sizes.append(len(scorers))
        return [scorer._score(*round_) for scorer, round_ in zip(scorers, rounds)]

    def score(self, measured, values, measurements, unmeasured):
        return self.score_group(
            [self], [(measured, values, measurements, unmeasured)]
        )[0]

    def _score(self, measured, values, measurements, unmeasured):
        distances = np.linalg.norm(
            self._design[unmeasured][:, None, :] - self._design[measured][None, :, :],
            axis=2,
        )
        predicted = np.asarray(values)[distances.argmin(axis=1)]
        predicted = predicted * (1.0 + 0.1 * self._rng.random(len(unmeasured)))
        return AcquisitionScores(scores=-predicted, predicted=predicted)


class _NearestBO(SequentialOptimizer):
    name = "nearest-bo"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scorer = _NearestScorer(
            self.design_matrix, seed=int(self._rng.integers(2**31))
        )

    def _round_scorer(self):
        return self._scorer


def nearest_factory(environment, objective, seed):
    return _NearestBO(
        environment, objective=objective, seed=seed, max_measurements=7
    )


def _grid_cells(repeats=2):
    return [
        (workload_id, repeat)
        for workload_id in WORKLOADS
        for repeat in range(repeats)
    ]


def _flatten(batches):
    """The ``(cell, result)`` pairs of ``run_cells``' finished lists."""
    return [item for finished in batches for item in finished]


def _run_grid(trace, factory, executor, on_event=None):
    return _flatten(
        run_cells(
            trace,
            factory,
            Objective.TIME,
            _grid_cells(),
            workers=1,
            executor=executor,
            on_event=on_event,
        )
    )


class TestVectorExecutor:
    @pytest.mark.parametrize(
        "factory",
        [
            tree_factory,
            gp_factory,
            hybrid_factory,
            faulty_tree_factory,
            history_factory,
            naive_factory("pi"),
            naive_factory("lcb"),
            naive_factory("mes"),
            warm_tree_factory,
            random_forest_factory,
        ],
        ids=[
            "tree",
            "gp",
            "hybrid",
            "faulty-tree",
            "history",
            "naive-pi",
            "naive-lcb",
            "naive-mes",
            "warm-tree",
            "random-forest",
        ],
    )
    def test_matches_serial_executor(self, trace, factory):
        serial = _run_grid(trace, factory, "serial")
        vector = _run_grid(trace, factory, "vector")
        assert sorted(cell for cell, _ in vector) == sorted(_grid_cells())
        assert dict(serial) == dict(vector)

    def test_non_stackable_optimizers_still_match(self, trace):
        serial = _run_grid(trace, random_factory, "serial")
        vector = _run_grid(trace, random_factory, "vector")
        assert len(vector) == len(serial)
        assert dict(serial) == dict(vector)

    @pytest.mark.parametrize(
        "factory",
        [random_factory, warm_tree_factory, random_forest_factory],
        ids=["random", "warm-tree", "random-forest"],
    )
    def test_rounds_without_a_scorer_count_as_fallback(self, trace, factory):
        """Rounds with no scorer, or whose scorer's ``group_key`` is
        ``None``, are scored alone."""
        from repro.analysis.runner import run_seed

        driver = VectorizedGridDriver(
            trace, factory, Objective.TIME, _grid_cells(), seed_fn=run_seed
        )
        list(driver.run())
        assert driver.fallback_rounds > 0
        assert driver.stacked_tree_fits == driver.stacked_gp_fits == 0

    def test_groups_any_scorer_through_its_own_protocol(self, trace):
        """A scorer class the driver has never heard of is grouped by its
        own key, once per round with every live cell."""
        from repro.analysis.runner import run_seed

        _NearestScorer.group_sizes.clear()
        serial = _run_grid(trace, nearest_factory, "serial")
        rounds_scored = len(_NearestScorer.group_sizes)
        assert set(_NearestScorer.group_sizes) == {1}

        _NearestScorer.group_sizes.clear()
        driver = VectorizedGridDriver(
            trace, nearest_factory, Objective.TIME, _grid_cells(), seed_fn=run_seed
        )
        vector = _flatten(driver.run())
        assert len(vector) == len(serial)
        assert dict(vector) == dict(serial)
        assert driver.fallback_rounds == 0
        assert set(_NearestScorer.group_sizes) == {len(_grid_cells())}
        assert sum(_NearestScorer.group_sizes) == rounds_scored

    def test_emits_vector_planned_and_cell_lifecycle(self, trace):
        events = []
        _run_grid(trace, tree_factory, "vector", on_event=events.append)
        kinds = [event.kind for event in events]
        assert kinds.count("vector_planned") == 1
        assert kinds.index("vector_planned") == 0
        cells = _grid_cells()
        scheduled = [
            (event.workload_id, event.repeat)
            for event in events
            if event.kind == "cell_scheduled"
        ]
        finished = {
            (event.workload_id, event.repeat)
            for event in events
            if event.kind == "cell_finished"
        }
        assert scheduled == cells
        assert finished == set(cells)

    def test_driver_counts_stacked_rounds(self, trace):
        from repro.analysis.runner import run_seed

        driver = VectorizedGridDriver(
            trace, tree_factory, Objective.TIME, _grid_cells(), seed_fn=run_seed
        )
        results = _flatten(driver.run())
        assert len(results) == len(_grid_cells())
        assert driver.rounds > 0
        assert driver.stacked_tree_fits > 0
        assert driver.fallback_rounds == 0

    def test_yields_one_list_per_finishing_round(self, trace):
        """Each yielded list is the cells one round finished, in
        submission order: never empty, at most one per round, and here
        fewer lists than cells."""
        from repro.analysis.runner import run_seed

        cells = _grid_cells()
        driver = VectorizedGridDriver(
            trace, tree_factory, Objective.TIME, cells, seed_fn=run_seed
        )
        rounds = [[cell for cell, _ in finished] for finished in driver.run()]
        assert all(rounds)
        assert len(rounds) <= driver.rounds
        assert 1 < len(rounds) < len(cells)
        assert all(finished == sorted(finished, key=cells.index) for finished in rounds)
        assert sorted(cell for finished in rounds for cell in finished) == sorted(cells)

    def test_gp_grid_uses_stacked_fits(self, trace):
        from repro.analysis.runner import run_seed

        driver = VectorizedGridDriver(
            trace, gp_factory, Objective.TIME, _grid_cells(), seed_fn=run_seed
        )
        list(driver.run())
        assert driver.stacked_gp_fits > 0

    def test_mes_grid_uses_stacked_fits(self, trace):
        """MES draws from each scorer's own RNG, so its rounds stack."""
        from repro.analysis.runner import run_seed

        driver = VectorizedGridDriver(
            trace, naive_factory("mes"), Objective.TIME, _grid_cells(),
            seed_fn=run_seed,
        )
        list(driver.run())
        assert driver.stacked_gp_fits > 0
        assert driver.fallback_rounds == 0

    def test_runner_cache_is_byte_identical(self, trace, tmp_path):
        from repro.analysis.runner import ExperimentRunner, RunGrid

        grid = RunGrid(
            key="vector-cache",
            factory=tree_factory,
            objective=Objective.TIME,
            workload_ids=WORKLOADS,
            repeats=2,
        )
        caches = {}
        for executor in ("serial", "vector"):
            cache_dir = tmp_path / executor
            runner = ExperimentRunner(trace, cache_dir=cache_dir)
            runner.run(grid, workers=1, executor=executor)
            caches[executor] = (
                cache_dir / "vector-cache__time.json"
            ).read_bytes()
        assert caches["serial"] == caches["vector"]


def _tree_grid(key):
    from repro.analysis.runner import RunGrid

    return RunGrid(
        key=key,
        factory=tree_factory,
        objective=Objective.TIME,
        workload_ids=WORKLOADS,
        repeats=2,
    )


def _finishing_rounds(trace):
    """The cells of ``_grid_cells()`` each lock-step round finishes."""
    from repro.analysis.runner import run_seed

    driver = VectorizedGridDriver(
        trace, tree_factory, Objective.TIME, _grid_cells(), seed_fn=run_seed
    )
    return [[cell for cell, _ in finished] for finished in driver.run()]


def _run_killed(trace, grid, cache_dir, executor, kill_at):
    """Run ``grid`` in a forked child that SIGKILLs itself at its
    ``kill_at``-th ``cell_finished`` event."""
    from repro.analysis.runner import ExperimentRunner

    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        finished = 0

        def die(event):
            nonlocal finished
            if event.kind == "cell_finished":
                finished += 1
                if finished == kill_at:
                    os.kill(os.getpid(), signal.SIGKILL)

        try:
            ExperimentRunner(trace, cache_dir=cache_dir).run(
                grid, executor=executor, on_event=die
            )
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
class TestVectorDurability:
    def test_killed_grid_resumes_only_its_unrecorded_cells(self, trace, tmp_path):
        """A vector grid records the cells each round finishes in one
        commit.  A child running one is SIGKILLed at the first
        ``cell_finished`` event of the second finishing round (that
        round is not yet recorded): its queue file holds exactly the
        first round's cells, a resume schedules only the rest, and the
        cache equals a clean serial run's byte for byte."""
        from repro.analysis.runner import ExperimentRunner

        grid = _tree_grid("vector-kill")
        ExperimentRunner(trace, cache_dir=tmp_path / "serial").run(
            grid, executor="serial"
        )
        rounds = _finishing_rounds(trace)
        assert len(rounds) >= 2
        first = rounds[0]
        _run_killed(trace, grid, tmp_path / "vector", "vector", len(first) + 1)

        queue_path = tmp_path / "vector" / "vector-kill__time.queue"
        with WorkQueue.attach(queue_path, readonly=True) as queue:
            assert queue.counts()["done"] == len(first)
            assert {cell for cell, _ in queue.stored_results(_grid_cells())} == set(first)
        events = []
        ExperimentRunner(trace, cache_dir=tmp_path / "vector").run(
            grid, executor="vector", resume=True, on_event=events.append
        )
        kinds = [event.kind for event in events]
        assert kinds.count("cell_resumed") == len(first)
        assert kinds.count("cell_scheduled") == 6 - len(first)
        scheduled = {event.cell for event in events if event.kind == "cell_scheduled"}
        assert scheduled == set(_grid_cells()) - set(first)
        assert (tmp_path / "vector" / "vector-kill__time.json").read_bytes() == (
            tmp_path / "serial" / "vector-kill__time.json"
        ).read_bytes()
        assert not queue_path.exists()

    def test_killed_serial_grid_keeps_each_finished_cell(self, trace, tmp_path):
        """The serial loop commits each cell alone: killed at its third
        ``cell_finished`` event, it has recorded exactly the first two."""
        from repro.analysis.runner import ExperimentRunner

        grid = _tree_grid("serial-kill")
        _run_killed(trace, grid, tmp_path / "killed", "serial", 3)

        queue_path = tmp_path / "killed" / "serial-kill__time.queue"
        with WorkQueue.attach(queue_path, readonly=True) as queue:
            assert queue.counts()["done"] == 2
            assert {cell for cell, _ in queue.stored_results(_grid_cells())} == set(
                _grid_cells()[:2]
            )
        events = []
        ExperimentRunner(trace, cache_dir=tmp_path / "killed").run(
            grid, executor="serial", resume=True, on_event=events.append
        )
        kinds = [event.kind for event in events]
        assert kinds.count("cell_resumed") == 2
        assert kinds.count("cell_scheduled") == 4


class TestRoundCommits:
    @staticmethod
    def _count_commits(monkeypatch) -> list[int]:
        """Patch ``WorkQueue._tx`` to count the transactions it opens
        (an ``_tx`` nested in an open one joins it and is not counted);
        each entry is the number of cells that transaction recorded."""
        commits: list[int] = []
        real_tx = WorkQueue._tx
        real_record = WorkQueue.record_external

        @contextlib.contextmanager
        def counting_tx(self, *args, **kwargs):
            if not self._con.in_transaction:
                commits.append(0)
            with real_tx(self, *args, **kwargs):
                yield

        def counting_record(self, *args, **kwargs):
            real_record(self, *args, **kwargs)
            commits[-1] += 1  # the transaction it joined or opened

        monkeypatch.setattr(WorkQueue, "_tx", counting_tx)
        monkeypatch.setattr(WorkQueue, "record_external", counting_record)
        return commits

    @pytest.mark.parametrize("executor", ["serial", "vector"])
    def test_one_commit_per_finishing_round(self, trace, tmp_path, monkeypatch, executor):
        """With a cache dir, a vector grid records its cells in one
        write transaction per round that finished any cell — fewer than
        its cells; a serial grid commits each cell alone."""
        from repro.analysis.runner import ExperimentRunner

        commits = self._count_commits(monkeypatch)
        ExperimentRunner(trace, cache_dir=tmp_path).run(
            _tree_grid("commits"), executor=executor
        )
        # The first transaction stamps the new file's meta table.
        assert commits[0] == 0
        recorded = commits[1:]
        if executor == "vector":
            assert len(recorded) < len(_grid_cells())
            assert recorded == [len(finished) for finished in _finishing_rounds(trace)]
        else:
            assert recorded == [1] * len(_grid_cells())
