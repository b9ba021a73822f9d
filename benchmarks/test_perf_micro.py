"""Microbenchmarks of the substrate hot paths.

These are conventional pytest-benchmark timings (many rounds) for the
pieces the optimisers hammer: GP fit/predict, Extra-Trees fit/predict,
one full surrogate step of each optimiser, and trace generation.
"""

import numpy as np
import pytest

from repro.cloud.catalog import get_catalog
from repro.core.augmented_bo import PairwiseTreeScorer
from repro.core.naive_bo import GPScorer
from repro.ml.extra_trees import ExtraTreesRegressor
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import Matern52
from repro.ml.sampling import SobolSequence
from repro.trace.generate import generate_trace


@pytest.fixture(scope="module")
def gp_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(12, 4))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    return X, y


@pytest.fixture(scope="module")
def tree_data():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(200, 14))
    y = 3.0 * (X[:, 0] > 0.5) + X[:, 3] + rng.normal(0, 0.1, size=200)
    return X, y


def test_gp_fit_12_points(benchmark, gp_data):
    X, y = gp_data

    def fit():
        return GaussianProcessRegressor(Matern52(), n_restarts=0, seed=0).fit(X, y)

    benchmark(fit)


def test_gp_lml_value_and_grad(benchmark, gp_data):
    """One fused LML value+gradient evaluation from cached geometry."""
    from repro.ml.kernels import Geometry

    X, y = gp_data
    gp = GaussianProcessRegressor(Matern52(), optimise=False, seed=0).fit(X, y)
    gp._eye = np.eye(X.shape[0])
    y_scaled = (y - y.mean()) / y.std()
    geometry = Geometry(X)
    theta = gp._packed_theta()
    benchmark(gp._lml_value_and_grad, theta, y_scaled, geometry)


def test_gp_predict_with_std(benchmark, gp_data):
    X, y = gp_data
    gp = GaussianProcessRegressor(Matern52(), n_restarts=0, seed=0).fit(X, y)
    queries = np.random.default_rng(2).uniform(-3, 3, size=(18, 4))
    benchmark(gp.predict, queries, return_std=True)


def test_extra_trees_fit_200x14(benchmark, tree_data):
    X, y = tree_data

    def fit():
        return ExtraTreesRegressor(n_estimators=30, min_samples_split=4, seed=0).fit(X, y)

    benchmark(fit)


def test_extra_trees_predict_500_rows(benchmark, tree_data):
    X, y = tree_data
    model = ExtraTreesRegressor(n_estimators=30, min_samples_split=4, seed=0).fit(X, y)
    queries = np.random.default_rng(3).uniform(size=(500, 14))
    benchmark(model.predict, queries)


def test_naive_bo_one_step(benchmark, gp_data):
    design = np.random.default_rng(4).uniform(size=(18, 4))
    scorer = GPScorer(design, seed=0)
    measured = list(range(9))
    values = np.random.default_rng(5).uniform(10, 100, size=9)
    unmeasured = list(range(9, 18))
    benchmark(scorer.score, measured, values, unmeasured)


def test_augmented_bo_one_step(benchmark, trace):
    workload_id = "kmeans/Spark 2.1/small"
    design = np.random.default_rng(6).uniform(size=(18, 4))
    scorer = PairwiseTreeScorer(design, seed=0)
    measured = list(range(9))
    values = trace.times_for(workload_id)[:9]
    measurements = [trace.measurement(workload_id, trace.catalog[i]) for i in measured]
    unmeasured = list(range(9, 18))
    benchmark(scorer.score, measured, values, measurements, unmeasured)


def test_sobol_1024_points(benchmark):
    benchmark(lambda: SobolSequence(4).generate(1024))


def test_trace_generation_full_study(benchmark):
    """Full 107x18 and 107x390 (``multicloud``) sweeps through the
    performance model (one round)."""
    multicloud = get_catalog("multicloud")

    def sweep():
        generate_trace(seed=5)
        generate_trace(seed=5, catalog=multicloud)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
