"""Packed-forest prediction and warm-start refit of the ensembles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.extra_trees import ExtraTreesRegressor, fit_ensembles_stacked
from repro.ml.random_forest import RandomForestRegressor
from repro.ml.tree import (
    FACTORED_MIN_PAIRS,
    PairRows,
    _walk_pairs,
    predict_packed,
    predict_packed_many,
)
from repro.ml.tree_builder import build_extra_trees
from tests.tree_reference import predict_per_tree, tree_arrays, tree_depth, walk_tree


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.uniform(size=(120, 5))
    y = X @ np.array([3.0, -2.0, 0.0, 1.0, 0.5]) + 0.1 * rng.normal(size=120)
    return X, y


def _forest(X, y, n_trees, seed=0, **params):
    return build_extra_trees(X, y, n_trees, rng=np.random.default_rng(seed), **params)


def _spans(packed):
    """Every tree's node arrays, one tuple per tree."""
    return [tree_arrays(packed, i) for i in range(packed.n_trees)]


def _same_tree(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestPackTrees:
    def test_packed_matches_per_tree_predictions(self, data):
        X, y = data
        packed = _forest(X, y, 5, min_samples_split=4)
        assert packed.n_trees == 5
        assert packed.node_count == packed.counts.sum()
        queries = np.random.default_rng(1).uniform(size=(40, 5))
        np.testing.assert_array_equal(
            predict_packed(packed, queries), predict_per_tree(packed, queries)
        )

    @pytest.mark.parametrize("chunk_rows", [1, 7, 40, 64, 4096])
    def test_chunked_predict_is_bit_identical(self, data, chunk_rows):
        """Row-chunked traversal must reproduce the monolithic pass
        exactly — rows traverse the packed arrays independently."""
        X, y = data
        packed = _forest(X, y, 5, min_samples_split=4)
        queries = np.random.default_rng(2).uniform(size=(129, 5))
        whole = predict_packed(packed, queries)
        chunked = predict_packed(packed, queries, chunk_rows=chunk_rows)
        np.testing.assert_array_equal(chunked, whole)

    def test_chunk_rows_validation(self, data):
        X, y = data
        packed = _forest(X, y, 1)
        with pytest.raises(ValueError, match="chunk_rows"):
            predict_packed(packed, X, chunk_rows=0)

    def test_single_row_query(self, data):
        X, y = data
        packed = _forest(X, y, 1)
        row = X[3]
        predictions = predict_packed(packed, row)
        assert predictions.shape == (1, 1)
        np.testing.assert_array_equal(predictions[0], walk_tree(*tree_arrays(packed, 0), row))

    def test_cart_trees_pack_too(self, data):
        """The random forest is packed too, and predicts through the
        same walk."""
        X, y = data
        forest = RandomForestRegressor(n_estimators=4, seed=0).fit(X, y)
        queries = np.random.default_rng(2).uniform(size=(10, 5))
        expected = predict_per_tree(forest._packed, queries)
        np.testing.assert_array_equal(predict_packed(forest._packed, queries), expected)
        mean, std = forest.predict(queries, return_std=True)
        np.testing.assert_array_equal(mean, expected.mean(axis=0))
        np.testing.assert_array_equal(std, expected.std(axis=0))

    def test_rejects_empty_and_unfitted(self):
        with pytest.raises(ValueError, match="zero ensembles"):
            predict_packed_many([], [])
        for model in (ExtraTreesRegressor(seed=0), RandomForestRegressor(seed=0)):
            with pytest.raises(RuntimeError, match="fitted"):
                model.predict(np.zeros((1, 5)))


class TestEnsemblePackedPredict:
    def test_extra_trees_predict_uses_packed_path(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=6, seed=3).fit(X, y)
        queries = np.random.default_rng(3).uniform(size=(25, 5))
        expected = predict_per_tree(model._packed, queries)
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
        before = _spans(model._packed)
        model.fit(X, y)
        after = _spans(model._packed)
        kept = sum(1 for old, new in zip(before, after) if _same_tree(old, new))
        regrown = len(after) - kept
        # ceil(0.25 * 8) = 2 trees regrown, 6 kept node for node.
        assert regrown == 2
        assert kept == 6

    def test_full_refit_regrows_everything(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=4, seed=0)
        model.fit(X, y)
        before = _spans(model._packed)
        model.fit(X, y)
        after = _spans(model._packed)
        assert not any(_same_tree(old, new) for old, new in zip(before, after))

    def test_partial_refit_predictions_stay_packed_consistent(self, data):
        """After a warm-start refit, the packed predictor must reflect
        the mixed ensemble (kept + regrown trees)."""
        X, y = data
        model = ExtraTreesRegressor(n_estimators=6, seed=1, refit_fraction=0.5)
        model.fit(X, y)
        model.fit(X, y)
        queries = np.random.default_rng(4).uniform(size=(15, 5))
        expected = predict_per_tree(model._packed, queries)
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    def test_default_refit_is_stream_compatible(self, data):
        """refit_fraction=1.0 is the default: two same-seed ensembles
        stay identical across repeated fits."""
        X, y = data
        a = ExtraTreesRegressor(n_estimators=3, seed=7)
        b = ExtraTreesRegressor(n_estimators=3, seed=7, refit_fraction=1.0)
        queries = np.random.default_rng(5).uniform(size=(10, 5))
        for _ in range(3):
            a.fit(X, y)
            b.fit(X, y)
            np.testing.assert_array_equal(a.predict(queries), b.predict(queries))

    def test_splice_matches_reference_after_k_refits(self, data):
        """After k warm refits the packed ensemble holds exactly the live
        trees: each slot is the tree last regrown into it, node for
        node, and no replaced tree's nodes are left behind."""
        X, y = data
        n_trees, fraction, seed = 6, 0.5, 11
        model = ExtraTreesRegressor(
            n_estimators=n_trees, min_samples_split=4, seed=seed, refit_fraction=fraction
        )
        # The same stream, replayed tree by tree: a full build, then per
        # refit a sorted slot draw and a regrown batch for those slots.
        rng = np.random.default_rng(seed)
        reference = _spans(
            build_extra_trees(X, y, n_trees, min_samples_split=4, rng=rng)
        )
        model.fit(X, y)
        queries = np.random.default_rng(12).uniform(size=(30, 5))
        for step in range(1, 5):
            y_step = y + step
            slots = np.sort(rng.choice(n_trees, size=3, replace=False))
            regrown = build_extra_trees(X, y_step, 3, min_samples_split=4, rng=rng)
            for index, slot in enumerate(slots):
                reference[slot] = tree_arrays(regrown, index)
            model.fit(X, y_step)
            packed = model._packed
            assert packed.node_count == sum(tree[0].size for tree in reference)
            for tree, expected in zip(_spans(packed), reference):
                assert _same_tree(tree, expected)
            expected_predictions = np.stack(
                [walk_tree(*tree, queries) for tree in reference]
            )
            np.testing.assert_array_equal(
                predict_packed(packed, queries), expected_predictions
            )

    def test_splice_rejects_mismatched_slots(self, data):
        X, y = data
        packed = _forest(X, y, 4)
        with pytest.raises(ValueError, match="slots"):
            packed.splice(np.array([0, 1]), _forest(X, y, 1, seed=1))

    @pytest.mark.parametrize("builder", ["vectorized", "stacked"])
    def test_partial_refit_with_either_builder(self, data, builder):
        """Warm-start refit keeps unchosen trees and stays packed-
        consistent whether the first forest came from the per-ensemble
        or the stacked builder."""
        X, y = data
        model = ExtraTreesRegressor(n_estimators=8, seed=0, refit_fraction=0.25)
        _fit(model, X, y, builder)
        before = _spans(model._packed)
        model.fit(X, y)
        after = _spans(model._packed)
        kept = sum(1 for old, new in zip(before, after) if _same_tree(old, new))
        assert kept == 6 and len(after) - kept == 2
        queries = np.random.default_rng(6).uniform(size=(20, 5))
        np.testing.assert_array_equal(
            model.predict(queries), predict_per_tree(model._packed, queries).mean(axis=0)
        )

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


def _fit(model, X, y, builder):
    """Fit through the per-ensemble builder or the stacked one."""
    if builder == "stacked":
        fit_ensembles_stacked([model], [(X, y)])
    else:
        model.fit(X, y)
    return model


class TestPackedDegenerate:
    """predict_packed on deep and degenerate tree shapes, grown by the
    per-ensemble and by the stacked builder."""

    @pytest.mark.parametrize("builder", ["vectorized", "stacked"])
    def test_constant_y_collapses_to_root_leaves(self, builder):
        X = np.random.default_rng(0).uniform(size=(30, 4))
        y = np.full(30, 2.5)
        model = _fit(ExtraTreesRegressor(n_estimators=3, seed=0), X, y, builder)
        assert np.all(model._packed.counts == 1)
        np.testing.assert_array_equal(model.predict(X), np.full(30, 2.5))

    @pytest.mark.parametrize("builder", ["vectorized", "stacked"])
    def test_max_depth_one_stumps(self, data, builder):
        X, y = data
        model = _fit(ExtraTreesRegressor(n_estimators=4, max_depth=1, seed=1), X, y, builder)
        assert all(tree_depth(model._packed, i) == 1 for i in range(4))
        assert np.all(model._packed.counts == 3)
        queries = np.random.default_rng(7).uniform(size=(12, 5))
        expected = predict_per_tree(model._packed, queries)
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    @pytest.mark.parametrize("builder", ["vectorized", "stacked"])
    def test_single_sample_leaves_deep_tree(self, builder):
        """Distinct targets and min_samples_split=2 grow every leaf down
        to one sample; packed traversal must agree with per-tree."""
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(40, 3))
        y = np.arange(40.0)  # all-distinct: forces full purity
        model = _fit(
            ExtraTreesRegressor(n_estimators=3, min_samples_split=2, seed=4), X, y, builder
        )
        # Full purity: every training row predicts its own target.
        np.testing.assert_allclose(model.predict(X), y)
        queries = rng.uniform(size=(25, 3))
        expected = predict_per_tree(model._packed, queries)
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    @pytest.mark.parametrize("builder", ["vectorized", "stacked"])
    def test_two_row_fit(self, builder):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 3.0])
        model = _fit(ExtraTreesRegressor(n_estimators=2, seed=5), X, y, builder)
        np.testing.assert_allclose(model.predict(X), y)


def _pair_forest(seed, dest_width, source_width, n_train, n_trees, u, m, constant=False):
    """A seeded forest over ``dest_width + source_width`` columns and a
    :class:`PairRows` query whose values sit on the same coarse grid as
    the training data, with some cells set exactly to split thresholds."""
    rng = np.random.default_rng(seed)
    width = dest_width + source_width
    X = rng.integers(-3, 4, size=(n_train, width)) / 2.0
    y = np.full(n_train, 1.5) if constant else rng.normal(size=n_train)
    packed = build_extra_trees(X, y, n_trees, rng=rng)
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
