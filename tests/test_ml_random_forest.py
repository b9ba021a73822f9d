"""Unit tests for the CART random forest."""

import numpy as np
import pytest

from repro.ml.random_forest import RandomForestRegressor
from repro.ml.tree import coerce_training_data, predict_packed
from repro.ml.tree_builder import build_cart_forest


def _cart(X, y, **params):
    """One CART tree on the full sample (no bootstrap), packed."""
    return build_cart_forest(
        *coerce_training_data(X, y), 1, rng=np.random.default_rng(0), **params
    )


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(200, 4))
    y = 6.0 * (X[:, 0] > 0.4) + 2.0 * X[:, 1] + 0.05 * rng.normal(size=200)
    return X, y


class TestCARTTree:
    def test_finds_the_exact_step_threshold(self):
        """With one clean step feature, CART's best split must land at the
        midpoint between the two sides — unlike Extra-Trees' random cut."""
        X = np.array([[0.0], [0.2], [0.4], [0.6], [0.8], [1.0]])
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        tree = _cart(X, y)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(0.5)

    def test_memorises_with_full_growth(self, data):
        X, y = data
        tree = _cart(X, y)
        assert np.allclose(predict_packed(tree, X)[0], y)

    def test_max_depth_respected(self, data):
        X, y = data
        assert _cart(X, y, max_depth=2).node_count <= 7

    def test_constant_features_give_leaf(self):
        assert _cart(np.ones((8, 2)), np.arange(8.0)).node_count == 1

    def test_duplicate_feature_values_dont_split_between_equals(self):
        X = np.array([[1.0], [1.0], [2.0], [2.0]])
        y = np.array([0.0, 1.0, 10.0, 11.0])
        assert _cart(X, y).threshold[0] == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="min_samples_split"):
            RandomForestRegressor(min_samples_split=1)
        with pytest.raises(ValueError, match="max_depth"):
            RandomForestRegressor(max_depth=0)
        with pytest.raises(ValueError):
            RandomForestRegressor().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            RandomForestRegressor().fit(np.zeros((3, 2)), np.zeros(4))


class TestRandomForest:
    def test_tracks_function_off_sample(self, data):
        X, y = data
        rng = np.random.default_rng(5)
        X_test = rng.uniform(0, 1, size=(300, 4))
        y_test = 6.0 * (X_test[:, 0] > 0.4) + 2.0 * X_test[:, 1]
        forest = RandomForestRegressor(n_estimators=30, seed=1).fit(X, y)
        rmse = np.sqrt(np.mean((forest.predict(X_test) - y_test) ** 2))
        assert rmse < 1.0

    def test_bootstrap_makes_trees_differ(self, data):
        X, y = data
        forest = RandomForestRegressor(n_estimators=5, seed=2).fit(X, y)
        queries = X[:20]
        per_tree = predict_packed(forest._packed, queries)
        assert np.any(per_tree.std(axis=0) > 0)

    def test_std_output(self, data):
        X, y = data
        forest = RandomForestRegressor(n_estimators=10, seed=3).fit(X, y)
        mean, std = forest.predict(X[:5], return_std=True)
        assert mean.shape == std.shape == (5,)
        assert np.all(std >= 0)

    def test_third_max_features_default(self, data):
        X, y = data
        forest = RandomForestRegressor(seed=0)
        assert forest._resolve_max_features(9) == 3
        assert forest._resolve_max_features(2) == 1

    def test_explicit_max_features(self):
        forest = RandomForestRegressor(max_features=2, seed=0)
        assert forest._resolve_max_features(9) == 2

    def test_unknown_max_features_spec_rejected(self, data):
        X, y = data
        with pytest.raises(ValueError, match="max_features"):
            RandomForestRegressor(max_features="sqrt", seed=0).fit(X, y)

    def test_deterministic_given_seed(self, data):
        X, y = data
        a = RandomForestRegressor(n_estimators=4, seed=9).fit(X, y).predict(X[:10])
        b = RandomForestRegressor(n_estimators=4, seed=9).fit(X, y).predict(X[:10])
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 2)))
