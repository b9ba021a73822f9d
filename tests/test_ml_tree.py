"""Unit and property tests for one extremely-randomised regression tree.

Each tree is a one-tree :class:`ExtraTreesRegressor`; its node count and
depth are read off the packed arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.extra_trees import ExtraTreesRegressor
from tests.tree_reference import tree_depth


class RegressionTree(ExtraTreesRegressor):
    """A one-tree ensemble, seen as a single tree."""

    def __init__(self, **params) -> None:
        super().__init__(n_estimators=1, **params)

    @property
    def node_count(self) -> int:
        return self._packed.node_count

    def depth(self) -> int:
        return tree_depth(self._packed, 0)


@pytest.fixture(scope="module")
def step_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(200, 3))
    y = np.where(X[:, 0] > 0.5, 10.0, 0.0) + np.where(X[:, 1] > 0.3, 5.0, 0.0)
    return X, y


class TestFitPredict:
    def test_fits_step_function(self, step_data):
        X, y = step_data
        tree = RegressionTree(seed=1).fit(X, y)
        rmse = np.sqrt(np.mean((tree.predict(X) - y) ** 2))
        assert rmse < 1.0

    def test_pure_leaves_memorise_training_data(self, step_data):
        X, y = step_data
        tree = RegressionTree(seed=2, min_samples_split=2).fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_constant_targets_give_root_only_tree(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        tree = RegressionTree(seed=0).fit(X, np.full(20, 7.0))
        assert tree.node_count == 1
        assert tree.depth() == 0
        assert np.allclose(tree.predict(X), 7.0)

    def test_constant_features_give_root_only_tree(self):
        X = np.ones((10, 2))
        tree = RegressionTree(seed=0).fit(X, np.arange(10.0))
        assert tree.node_count == 1
        assert tree.predict(X)[0] == pytest.approx(4.5)

    def test_max_depth_respected(self, step_data):
        X, y = step_data
        tree = RegressionTree(seed=0, max_depth=3).fit(X, y)
        assert tree.depth() <= 3

    def test_min_samples_split_respected(self, step_data):
        X, y = step_data
        deep = RegressionTree(seed=0, min_samples_split=2).fit(X, y)
        shallow = RegressionTree(seed=0, min_samples_split=50).fit(X, y)
        assert shallow.node_count < deep.node_count

    def test_max_features_limits_split_candidates(self, step_data):
        X, y = step_data
        tree = RegressionTree(seed=0, max_features=1).fit(X, y)
        assert tree.node_count > 1  # still splits, just on fewer candidates

    def test_predictions_are_training_value_means(self):
        """Every prediction must be a mean of some training subset, hence
        within [y.min(), y.max()]."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        tree = RegressionTree(seed=0).fit(X, y)
        queries = rng.normal(size=(500, 4)) * 10
        predictions = tree.predict(queries)
        assert predictions.min() >= y.min() - 1e-12
        assert predictions.max() <= y.max() + 1e-12

    def test_single_row_prediction_shape(self, step_data):
        X, y = step_data
        tree = RegressionTree(seed=0).fit(X, y)
        assert tree.predict(X[0]).shape == (1,)

    def test_deterministic_given_seed(self, step_data):
        X, y = step_data
        a = RegressionTree(seed=42).fit(X, y).predict(X)
        b = RegressionTree(seed=42).fit(X, y).predict(X)
        assert np.array_equal(a, b)


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError, match="zero observations"):
            RegressionTree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="rows"):
            RegressionTree().fit(np.zeros((3, 2)), np.zeros(5))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            RegressionTree(min_samples_split=1)
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(1, 40), st.integers(1, 4)),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        seed=st.integers(0, 1000),
    )
    def test_training_predictions_bounded_by_targets(self, data, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=data.shape[0])
        tree = RegressionTree(seed=seed).fit(data, y)
        predictions = tree.predict(data)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(2, 60))
    def test_full_growth_memorises_unique_rows(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 2))
        y = rng.normal(size=n)
        tree = RegressionTree(seed=seed, min_samples_split=2).fit(X, y)
        assert np.allclose(tree.predict(X), y, atol=1e-9)
