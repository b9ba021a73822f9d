"""Packed-forest prediction and warm-start refit of the ensembles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.extra_trees import ExtraTreesRegressor
from repro.ml.random_forest import RandomForestRegressor
from repro.ml.tree import (
    FACTORED_MIN_PAIRS,
    PairRows,
    RegressionTree,
    _walk_pairs,
    pack_trees,
    predict_packed,
    predict_packed_many,
)
from repro.ml.tree_builder import build_extra_trees


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.uniform(size=(120, 5))
    y = X @ np.array([3.0, -2.0, 0.0, 1.0, 0.5]) + 0.1 * rng.normal(size=120)
    return X, y


class TestPackTrees:
    def test_packed_matches_per_tree_predictions(self, data):
        X, y = data
        trees = [
            RegressionTree(min_samples_split=4, seed=seed).fit(X, y)
            for seed in range(5)
        ]
        packed = pack_trees(trees)
        assert packed.n_trees == 5
        assert packed.node_count == sum(t.node_count for t in trees)
        queries = np.random.default_rng(1).uniform(size=(40, 5))
        expected = np.stack([tree.predict(queries) for tree in trees])
        np.testing.assert_array_equal(predict_packed(packed, queries), expected)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 40, 64, 4096])
    def test_chunked_predict_is_bit_identical(self, data, chunk_rows):
        """Row-chunked traversal must reproduce the monolithic pass
        exactly — rows traverse the packed arrays independently."""
        X, y = data
        trees = [
            RegressionTree(min_samples_split=4, seed=seed).fit(X, y)
            for seed in range(5)
        ]
        packed = pack_trees(trees)
        queries = np.random.default_rng(2).uniform(size=(129, 5))
        whole = predict_packed(packed, queries)
        chunked = predict_packed(packed, queries, chunk_rows=chunk_rows)
        np.testing.assert_array_equal(chunked, whole)

    def test_chunk_rows_validation(self, data):
        X, y = data
        packed = pack_trees([RegressionTree(seed=0).fit(X, y)])
        with pytest.raises(ValueError, match="chunk_rows"):
            predict_packed(packed, X, chunk_rows=0)

    def test_single_row_query(self, data):
        X, y = data
        tree = RegressionTree(seed=0).fit(X, y)
        packed = pack_trees([tree])
        row = X[3]
        predictions = predict_packed(packed, row)
        assert predictions.shape == (1, 1)
        np.testing.assert_array_equal(predictions[0], tree.predict(row))

    def test_cart_trees_pack_too(self, data):
        """CARTRegressionTree shares the flat node layout, so the random
        forest benefits from the same packed predict."""
        X, y = data
        forest = RandomForestRegressor(n_estimators=4, seed=0).fit(X, y)
        packed = pack_trees(list(forest.trees))
        queries = np.random.default_rng(2).uniform(size=(10, 5))
        expected = np.stack([tree.predict(queries) for tree in forest.trees])
        np.testing.assert_array_equal(predict_packed(packed, queries), expected)

    def test_rejects_empty_and_unfitted(self, data):
        X, y = data
        with pytest.raises(ValueError, match="empty"):
            pack_trees([])
        with pytest.raises(ValueError, match="fitted"):
            pack_trees([RegressionTree(seed=0), RegressionTree(seed=1).fit(X, y)])


class TestEnsemblePackedPredict:
    def test_extra_trees_predict_uses_packed_path(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=6, seed=3).fit(X, y)
        queries = np.random.default_rng(3).uniform(size=(25, 5))
        expected = np.stack([tree.predict(queries) for tree in model.trees])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))
        mean, std = model.predict(queries, return_std=True)
        np.testing.assert_array_equal(std, expected.std(axis=0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            ExtraTreesRegressor(n_estimators=2, seed=0).predict(np.zeros((1, 3)))


class TestWarmStartRefit:
    def test_validation(self):
        with pytest.raises(ValueError, match="refit_fraction"):
            ExtraTreesRegressor(refit_fraction=0.0)
        with pytest.raises(ValueError, match="refit_fraction"):
            ExtraTreesRegressor(refit_fraction=1.0001)

    def test_partial_refit_keeps_unchosen_trees(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=8, seed=0, refit_fraction=0.25)
        model.fit(X, y)
        before = model.trees
        model.fit(X, y)
        after = model.trees
        kept = sum(1 for old, new in zip(before, after) if old is new)
        regrown = len(after) - kept
        # ceil(0.25 * 8) = 2 trees regrown, 6 kept by identity.
        assert regrown == 2
        assert kept == 6

    def test_full_refit_regrows_everything(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=4, seed=0)
        model.fit(X, y)
        before = model.trees
        model.fit(X, y)
        assert all(old is not new for old, new in zip(before, model.trees))

    def test_partial_refit_predictions_stay_packed_consistent(self, data):
        """After a warm-start refit, the packed predictor must reflect
        the mixed ensemble (kept + regrown trees)."""
        X, y = data
        model = ExtraTreesRegressor(n_estimators=6, seed=1, refit_fraction=0.5)
        model.fit(X, y)
        model.fit(X, y)
        queries = np.random.default_rng(4).uniform(size=(15, 5))
        expected = np.stack([tree.predict(queries) for tree in model.trees])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    def test_default_refit_is_stream_compatible(self, data):
        """refit_fraction=1.0 consumes the RNG exactly like the classic
        implementation: two same-seed ensembles stay identical across
        repeated fits."""
        X, y = data
        a = ExtraTreesRegressor(n_estimators=3, seed=7)
        b = ExtraTreesRegressor(n_estimators=3, seed=7, refit_fraction=1.0)
        queries = np.random.default_rng(5).uniform(size=(10, 5))
        for _ in range(3):
            a.fit(X, y)
            b.fit(X, y)
            np.testing.assert_array_equal(a.predict(queries), b.predict(queries))

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_partial_refit_with_either_builder(self, data, builder):
        """Warm-start refit keeps unchosen trees and stays packed-
        consistent regardless of the tree builder."""
        X, y = data
        model = ExtraTreesRegressor(
            n_estimators=8, seed=0, refit_fraction=0.25, tree_builder=builder
        )
        model.fit(X, y)
        before = model.trees
        model.fit(X, y)
        after = model.trees
        kept = sum(1 for old, new in zip(before, after) if old is new)
        assert kept == 6 and len(after) - kept == 2
        queries = np.random.default_rng(6).uniform(size=(20, 5))
        expected = np.stack([tree.predict(queries) for tree in after])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    def test_partial_refit_actually_tracks_new_data(self, data):
        """A vectorized warm refit on shifted targets moves predictions
        toward the new data (the regrown subset really retrains)."""
        X, y = data
        model = ExtraTreesRegressor(n_estimators=8, seed=2, refit_fraction=0.5)
        model.fit(X, y)
        before = model.predict(X)
        model.fit(X, y + 10.0)
        after = model.predict(X)
        assert np.all(after > before)


class TestPackedDegenerate:
    """predict_packed on deep and degenerate tree shapes."""

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_constant_y_collapses_to_root_leaves(self, builder):
        X = np.random.default_rng(0).uniform(size=(30, 4))
        y = np.full(30, 2.5)
        model = ExtraTreesRegressor(n_estimators=3, seed=0, tree_builder=builder)
        model.fit(X, y)
        assert all(tree.node_count == 1 for tree in model.trees)
        np.testing.assert_array_equal(model.predict(X), np.full(30, 2.5))

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_max_depth_one_stumps(self, data, builder):
        X, y = data
        model = ExtraTreesRegressor(
            n_estimators=4, max_depth=1, seed=1, tree_builder=builder
        )
        model.fit(X, y)
        assert all(tree.depth() == 1 for tree in model.trees)
        assert all(tree.node_count == 3 for tree in model.trees)
        queries = np.random.default_rng(7).uniform(size=(12, 5))
        expected = np.stack([tree.predict(queries) for tree in model.trees])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_single_sample_leaves_deep_tree(self, builder):
        """Distinct targets and min_samples_split=2 grow every leaf down
        to one sample; packed traversal must agree with per-tree."""
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(40, 3))
        y = np.arange(40.0)  # all-distinct: forces full purity
        model = ExtraTreesRegressor(
            n_estimators=3, min_samples_split=2, seed=4, tree_builder=builder
        )
        model.fit(X, y)
        # Full purity: every training row predicts its own target.
        np.testing.assert_allclose(model.predict(X), y)
        queries = rng.uniform(size=(25, 3))
        expected = np.stack([tree.predict(queries) for tree in model.trees])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_two_row_fit(self, builder):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 3.0])
        model = ExtraTreesRegressor(n_estimators=2, seed=5, tree_builder=builder)
        model.fit(X, y)
        np.testing.assert_allclose(model.predict(X), y)


def _pair_forest(seed, dest_width, source_width, n_train, n_trees, u, m, constant=False):
    """A seeded forest over ``dest_width + source_width`` columns and a
    :class:`PairRows` query whose values sit on the same coarse grid as
    the training data, with some cells set exactly to split thresholds."""
    rng = np.random.default_rng(seed)
    width = dest_width + source_width
    X = rng.integers(-3, 4, size=(n_train, width)) / 2.0
    y = np.full(n_train, 1.5) if constant else rng.normal(size=n_train)
    packed = build_extra_trees(X, y, n_trees, rng=rng).packed
    dest = rng.integers(-3, 4, size=(u, dest_width)) / 2.0
    source = rng.integers(-3, 4, size=(m, source_width)) / 2.0
    internal = np.flatnonzero(packed.feature >= 0)
    for node in rng.choice(internal, size=min(internal.size, 8), replace=False):
        column, threshold = int(packed.feature[node]), packed.threshold[node]
        if column < dest_width:
            dest[rng.integers(u), column] = threshold
        else:
            source[rng.integers(m), column - dest_width] = threshold
    return packed, PairRows(dest, source)


class TestPairRows:
    def test_shape_and_destination_major_rows(self):
        dest = np.arange(6.0).reshape(3, 2)
        source = -np.arange(4.0).reshape(2, 2)
        rows = PairRows(dest, source)
        assert rows.shape == (6, 4)
        dense = rows.materialize()
        assert dense.shape == rows.shape
        for i in range(3):
            for t in range(2):
                np.testing.assert_array_equal(
                    dense[i * 2 + t], np.concatenate([dest[i], source[t]])
                )

    def test_rejects_non_matrix_factors(self):
        with pytest.raises(ValueError, match="2-D"):
            PairRows(np.zeros(3), np.zeros((2, 2)))

    def test_empty_factor_gives_no_rows(self):
        packed, _ = _pair_forest(0, 2, 2, 20, 2, 1, 1)
        rows = PairRows(np.zeros((0, 2)), np.zeros((5, 2)))
        assert predict_packed(packed, rows).shape == (2, 0)


class TestFactoredWalk:
    """The factored destination x source walk against the flat walk."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dest_width=st.integers(0, 4),
        source_width=st.integers(0, 4),
        n_train=st.integers(1, 60),
        n_trees=st.integers(1, 4),
        u=st.integers(1, 50),
        m=st.integers(1, 30),
        above=st.booleans(),
        constant=st.booleans(),
    )
    def test_bit_identical_to_materialized_rows(
        self, seed, dest_width, source_width, n_train, n_trees, u, m, above, constant
    ):
        if dest_width + source_width == 0:
            dest_width = 1
        if above:
            # Push the pair count past the crossover.
            u = max(u, -(-FACTORED_MIN_PAIRS // m))
        packed, rows = _pair_forest(
            seed, dest_width, source_width, n_train, n_trees, u, m, constant
        )
        if above:
            assert rows.shape[0] >= FACTORED_MIN_PAIRS
        dense = rows.materialize()
        expected = predict_packed(packed, dense)
        np.testing.assert_array_equal(predict_packed(packed, rows), expected)
        # Below the crossover predict_packed materialises; walk those
        # sizes factored directly as well.
        np.testing.assert_array_equal(
            _walk_pairs(packed, [packed.roots], [rows])[0], expected
        )

    @pytest.mark.parametrize(
        "u, m",
        [(1, FACTORED_MIN_PAIRS), (FACTORED_MIN_PAIRS, 1), (1, 1), (41, 53)],
    )
    @pytest.mark.parametrize("dest_width, source_width", [(0, 4), (4, 0), (2, 3)])
    def test_degenerate_factors(self, u, m, dest_width, source_width):
        """u = 1, m = 1, and splits that can only ever test one factor."""
        packed, rows = _pair_forest(5, dest_width, source_width, 40, 3, u, m)
        expected = predict_packed(packed, rows.materialize())
        np.testing.assert_array_equal(predict_packed(packed, rows), expected)
        np.testing.assert_array_equal(
            _walk_pairs(packed, [packed.roots], [rows])[0], expected
        )

    def test_root_only_trees(self):
        packed, rows = _pair_forest(1, 2, 2, 30, 3, FACTORED_MIN_PAIRS // 16, 16, constant=True)
        assert (packed.feature == -1).all()
        np.testing.assert_array_equal(
            predict_packed(packed, rows), np.full((3, rows.shape[0]), 1.5)
        )

    def test_extra_trees_predict_accepts_pair_rows(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=5, seed=2).fit(X, y)
        rng = np.random.default_rng(8)
        rows = PairRows(rng.uniform(size=(300, 2)), rng.uniform(size=(12, 3)))
        assert rows.shape[0] >= FACTORED_MIN_PAIRS
        mean, std = model.predict(rows, return_std=True)
        dense_mean, dense_std = model.predict(rows.materialize(), return_std=True)
        np.testing.assert_array_equal(mean, dense_mean)
        np.testing.assert_array_equal(std, dense_std)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(
        st.sampled_from(["above", "below", "dense"]), min_size=1, max_size=5
    ))
    def test_predict_packed_many_mixes_query_kinds(self, seed, kinds):
        """A mix of large and small PairRows and dense arrays, each on its
        own ensemble (with its own split boundary), equals per-ensemble
        prediction over the dense rows."""
        rng = np.random.default_rng(seed)
        packeds, queries = [], []
        for index, kind in enumerate(kinds):
            dest_width = int(rng.integers(0, 4))
            source_width = 4 - dest_width
            m = int(rng.integers(1, 20))
            u = -(-FACTORED_MIN_PAIRS // m) if kind == "above" else int(rng.integers(1, 20))
            packed, rows = _pair_forest(
                seed + index, dest_width, source_width, 30, int(rng.integers(1, 4)), u, m
            )
            packeds.append(packed)
            queries.append(rows.materialize() if kind == "dense" else rows)
        batched = predict_packed_many(packeds, queries)
        for packed, query, result in zip(packeds, queries, batched):
            dense = query.materialize() if isinstance(query, PairRows) else query
            np.testing.assert_array_equal(result, predict_packed(packed, dense))
            np.testing.assert_array_equal(result, predict_packed(packed, query))
