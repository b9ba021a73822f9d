"""Unit tests for the Extra-Trees ensemble."""

import numpy as np
import pytest

from repro.ml.extra_trees import ExtraTreesRegressor
from tests.tree_reference import predict_per_tree, tree_depth


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(150, 4))
    y = 3.0 * (X[:, 0] > 0) + X[:, 1] ** 2 + 0.1 * rng.normal(size=150)
    return X, y


class TestEnsemble:
    def test_mean_prediction_tracks_function(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=30, seed=1).fit(X, y)
        rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
        assert rmse < 0.5

    def test_ensemble_beats_single_tree_off_sample(self, data):
        X, y = data
        rng = np.random.default_rng(9)
        X_test = rng.uniform(-2, 2, size=(300, 4))
        y_test = 3.0 * (X_test[:, 0] > 0) + X_test[:, 1] ** 2

        single = ExtraTreesRegressor(n_estimators=1, seed=2).fit(X, y)
        ensemble = ExtraTreesRegressor(n_estimators=40, seed=2).fit(X, y)
        rmse_single = np.sqrt(np.mean((single.predict(X_test) - y_test) ** 2))
        rmse_ensemble = np.sqrt(np.mean((ensemble.predict(X_test) - y_test) ** 2))
        assert rmse_ensemble < rmse_single

    def test_trees_are_diverse(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=10, seed=3).fit(X, y)
        rng = np.random.default_rng(1)
        queries = rng.uniform(-2, 2, size=(20, 4))
        per_tree = predict_per_tree(model._packed, queries)
        assert np.any(per_tree.std(axis=0) > 0)

    def test_std_is_across_tree_dispersion(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=15, seed=4).fit(X, y)
        queries = X[:10]
        mean, std = model.predict(queries, return_std=True)
        per_tree = predict_per_tree(model._packed, queries)
        assert np.allclose(mean, per_tree.mean(axis=0))
        assert np.allclose(std, per_tree.std(axis=0))

    def test_deterministic_given_seed(self, data):
        X, y = data
        a = ExtraTreesRegressor(n_estimators=5, seed=7).fit(X, y).predict(X)
        b = ExtraTreesRegressor(n_estimators=5, seed=7).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, data):
        X, y = data
        queries = np.random.default_rng(11).uniform(-2, 2, size=(50, 4))
        a = ExtraTreesRegressor(n_estimators=5, seed=1).fit(X, y).predict(queries)
        b = ExtraTreesRegressor(n_estimators=5, seed=2).fit(X, y).predict(queries)
        assert not np.array_equal(a, b)

    def test_hyperparameters_forwarded_to_trees(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=3, max_depth=2, seed=0).fit(X, y)
        assert all(tree_depth(model._packed, i) <= 2 for i in range(3))


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            ExtraTreesRegressor().predict(np.zeros((1, 2)))

    def test_zero_estimators_rejected(self):
        with pytest.raises(ValueError, match="n_estimators"):
            ExtraTreesRegressor(n_estimators=0)
