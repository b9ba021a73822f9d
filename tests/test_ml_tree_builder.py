"""Level-synchronous tree builders vs the depth-first reference growers.

Bit-identity between the breadth-first builders and the textbook
depth-first growers (``tests/tree_reference.py``) is impossible in
general — random draws are consumed in a different order, and exact
score ties are broken by floating-point noise that differs between the
per-node and the segmented arithmetic.  So equivalence is pinned in
layers:

* with *deterministic* stubbed randomness (ascending candidate order,
  midpoint thresholds) and well-separated nodes, the builders must make
  literally the reference's splits (checked by walking the trees);
* the packed output must be self-consistent: the ensemble-wide walk and
  a walk of each tree on its own must predict identically.

Growth over a pair set's factors, by contrast, must be bit-identical to
dense growth, down to the generator's end state; the rounding bound
that makes this possible is checked against exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.extra_trees as extra_trees_module
import repro.ml.tree_builder as tree_builder
from repro.ml.extra_trees import ExtraTreesRegressor
from repro.ml.random_forest import RandomForestRegressor
from repro.ml.tree import predict_packed
from repro.ml.tree_builder import (
    TrainingPairs,
    _factored_sse,
    _split_sse,
    build_cart_forest,
    build_extra_trees,
)
from tests.tree_reference import (
    CARTRegressionTree,
    RegressionTree,
    predict_per_tree,
    tree_arrays,
    tree_depth,
)


class AscendingChoice:
    """Deterministic RNG stub for the reference growers: candidate
    features in ascending order, thresholds at the feature midpoint."""

    def choice(self, n, size, replace):
        return np.arange(size)

    def uniform(self, size):
        return np.full(size, 0.5)


class MidpointUniform:
    """Deterministic RNG stub for the vectorized builders: every
    threshold lands mid-range.  Candidate draws must not happen when
    ``max_features`` covers all features."""

    def uniform(self, size):
        return np.full(size, 0.5)

    def random(self, shape):  # pragma: no cover - guards the k==d invariant
        raise AssertionError("no candidate subsampling expected with k == d")


def _make_data(seed, n=200, d=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X @ rng.normal(size=d) + 0.05 * rng.normal(size=n)
    return X, y


def _assert_same_structure(built, index, classic):
    feature, threshold, left, right, value = tree_arrays(built, index)

    def walk(vi, ci):
        assert feature[vi] == classic._feature[ci]
        if feature[vi] < 0:
            assert value[vi] == pytest.approx(classic._value[ci])
            return
        assert threshold[vi] == pytest.approx(classic._threshold[ci])
        walk(left[vi], classic._left[ci])
        walk(right[vi], classic._right[ci])

    assert feature.size == classic.node_count
    walk(0, 0)


class TestStubbedSplitEquivalence:
    """Identical splits given identical (stubbed) random draws.

    Uses well-separated nodes (``min_samples_split=20``, ``max_depth=4``)
    because tiny nodes produce exact score ties whose winner depends on
    summation order; the pinned seeds are ones without such ties.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 6, 7])
    def test_cart_matches_classic(self, seed):
        X, y = _make_data(seed)
        built = build_cart_forest(
            X, y, 1, min_samples_split=20, max_depth=4,
            rng=np.random.default_rng(0),
        )
        classic = CARTRegressionTree(min_samples_split=20, max_depth=4)
        classic._rng = AscendingChoice()
        classic.fit(X, y)
        _assert_same_structure(built, 0, classic)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 6, 7])
    def test_extra_trees_matches_classic(self, seed):
        X, y = _make_data(seed)
        built = build_extra_trees(
            X, y, 1, min_samples_split=20, max_depth=4, rng=MidpointUniform()
        )
        classic = RegressionTree(min_samples_split=20, max_depth=4)
        classic._rng = AscendingChoice()
        classic.fit(X, y)
        _assert_same_structure(built, 0, classic)

    def test_cart_full_feature_train_predictions_exact(self):
        """With all features considered, CART is deterministic up to tie
        order, and both growers drive training rows to pure leaves — so
        training predictions agree exactly even when structure differs."""
        X, y = _make_data(11)
        built = build_cart_forest(X, y, 1, rng=np.random.default_rng(0))
        classic = CARTRegressionTree(seed=0).fit(X, y)
        np.testing.assert_allclose(
            predict_packed(built, X)[0], classic.predict(X)
        )


class TestBuiltForestEmission:
    def test_packed_and_shells_predict_identically(self):
        """The ensemble-wide walk and one walk per tree span are two
        views of the same forest."""
        X, y = _make_data(5)
        built = build_extra_trees(X, y, 8, rng=np.random.default_rng(3))
        queries = np.random.default_rng(9).normal(size=(50, X.shape[1]))
        np.testing.assert_array_equal(
            predict_packed(built, queries), predict_per_tree(built, queries)
        )

    def test_roots_and_counts_partition_the_node_arrays(self):
        X, y = _make_data(6)
        built = build_extra_trees(X, y, 5, rng=np.random.default_rng(4))
        assert built.n_trees == 5
        assert built.roots[0] == 0
        np.testing.assert_array_equal(
            built.roots[1:], np.cumsum(built.counts)[:-1]
        )
        assert built.counts.sum() == built.node_count
        # Child pointers stay within their own tree's packed block.
        for i in range(5):
            start, stop = built.roots[i], built.roots[i] + built.counts[i]
            block = slice(start, stop)
            inner = built.left[block][built.left[block] >= 0]
            assert np.all((inner >= start) & (inner < stop))

    def test_deterministic_given_seed(self):
        X, y = _make_data(7)
        a = build_extra_trees(X, y, 4, rng=np.random.default_rng(21))
        b = build_extra_trees(X, y, 4, rng=np.random.default_rng(21))
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.threshold, b.threshold)

    def test_respects_depth_and_split_limits(self):
        X, y = _make_data(8)
        built = build_extra_trees(
            X, y, 6, max_depth=3, min_samples_split=30,
            rng=np.random.default_rng(5),
        )
        assert max(tree_depth(built, i) for i in range(6)) <= 3

    def test_cart_bootstrap_shape_validation(self):
        X, y = _make_data(9)
        with pytest.raises(ValueError, match="sample_indices"):
            build_cart_forest(
                X, y, 3, rng=np.random.default_rng(0),
                sample_indices=np.zeros((2, 10), dtype=np.int64),
            )

    def test_max_features_subsampling_restricts_splits(self):
        """With one candidate feature per node, every chosen split
        feature is still a real feature index."""
        X, y = _make_data(10)
        built = build_extra_trees(
            X, y, 4, max_features=1, rng=np.random.default_rng(6)
        )
        chosen = built.feature[built.feature >= 0]
        assert chosen.size > 0
        assert np.all(chosen < X.shape[1])


class TestRandomForest:
    def test_random_forest_fits_and_predicts(self):
        X, y = _make_data(14)
        forest = RandomForestRegressor(n_estimators=6, seed=2).fit(X, y)
        mean, std = forest.predict(X, return_std=True)
        rmse = float(np.sqrt(np.mean((mean - y) ** 2)))
        assert rmse < 1.0
        assert np.all(std >= 0)


PACKED_FIELDS = ("feature", "threshold", "left", "right", "value", "roots")


def _assert_same_forest(expected, actual):
    for name in PACKED_FIELDS:
        np.testing.assert_array_equal(
            getattr(actual, name), getattr(expected, name), err_msg=name
        )


def _factor_table(draw, rng, m, width, earlier=()):
    """``(m, width)`` factor rows: few distinct levels per column, plus
    constant, duplicated and negated columns.  Copies and negated copies
    may also take one of the ``earlier`` columns (the destination table's,
    for the source table): a negated copy splits the members into the
    complement of its original's split, the exact tie of a design column
    against an anti-correlated metric column."""
    pool, columns = list(earlier), []
    for _ in range(width):
        kind = draw(st.sampled_from(
            ["levels", "levels", "constant", "copy", "negated", "normal"]
        ))
        if kind in ("copy", "negated") and pool:
            column = pool[draw(st.integers(0, len(pool) - 1))]
            columns.append(column if kind == "copy" else -column)
        elif kind == "constant":
            columns.append(np.full(m, rng.normal()))
        elif kind == "normal":
            columns.append(rng.normal(size=m))
        else:
            columns.append(rng.integers(0, draw(st.integers(1, 3)) + 1, size=m) - 0.5)
        pool.append(columns[-1])
    return np.column_stack(columns) if columns else np.empty((m, 0))


@st.composite
def pair_sets(draw, min_m=2, max_m=9):
    """Pair sets with ties: 2-member factors, repeated log values, a large
    common offset in ``a``, relational, absolute or unrelated ``b``."""
    m = draw(st.integers(min_m, max_m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dest = _factor_table(draw, rng, m, draw(st.integers(1, 3)))
    source = np.hstack([dest, _factor_table(draw, rng, m, draw(st.integers(0, 3)), dest.T)])
    pool = rng.normal(size=draw(st.integers(1, m)))
    a = pool[rng.integers(0, pool.size, size=m)] + draw(st.sampled_from([0.0, 1e6, -37.5]))
    b = {
        "relational": a,
        "absolute": np.zeros(m),
        "unrelated": rng.normal(size=m),
    }[draw(st.sampled_from(["relational", "absolute", "unrelated"]))]
    return TrainingPairs(dest, source, a, b)


class TestFactoredGrowth:
    """``build_extra_trees(pairs=...)`` grows the dense builder's trees."""

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=pair_sets(),
        seed=st.integers(0, 2**32 - 1),
        n_trees=st.integers(1, 4),
        max_features=st.sampled_from([None, 1, 3]),
        max_depth=st.sampled_from([None, 1, 3]),
        min_samples_split=st.sampled_from([2, 6]),
        handoff=st.sampled_from([1, 4, 16]),
    )
    def test_bit_identical_to_dense(
        self, pairs, seed, n_trees, max_features, max_depth, min_samples_split, handoff
    ):
        X, y = pairs.materialize()
        options = dict(
            max_features=max_features, max_depth=max_depth,
            min_samples_split=min_samples_split,
        )
        dense_rng, factored_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        dense = build_extra_trees(X, y, n_trees, rng=dense_rng, **options)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_builder, "FACTORED_HANDOFF_ROWS", handoff)
            factored = build_extra_trees(
                X, y, n_trees, rng=factored_rng, pairs=pairs, **options
            )
        _assert_same_forest(dense, factored)
        assert factored_rng.bit_generator.state == dense_rng.bit_generator.state

    @settings(max_examples=30, deadline=None)
    @given(pairs=pair_sets(min_m=3), seed=st.integers(0, 2**31 - 1))
    def test_warm_refits_bit_identical(self, pairs, seed):
        """A warm refit regrows a seeded subset of trees on the new pair
        set; factored and dense refits splice in the same trees."""
        before = TrainingPairs(
            pairs.dest[:-1], pairs.source[:-1], pairs.a[:-1], pairs.b[:-1]
        )
        forests = []
        for use_pairs in (False, True):
            model = ExtraTreesRegressor(
                n_estimators=5, min_samples_split=2, seed=seed, refit_fraction=0.4
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(extra_trees_module, "FACTORED_MIN_TRAIN_PAIRS", 0)
                patch.setattr(tree_builder, "FACTORED_HANDOFF_ROWS", 1)
                for step in (before, pairs):
                    model.fit(*step.materialize(), pairs=step if use_pairs else None)
            forests.append((model._packed, model._rng.bit_generator.state))
        _assert_same_forest(forests[0][0], forests[1][0])
        assert forests[0][1] == forests[1][1]

    def test_mirror_ties_are_resolved_densely(self, monkeypatch):
        """With two sources, the splits {s1}|{s2} and {s2}|{s1} tie exactly
        over the factors; the dense formula must pick the winner."""
        calls = []
        resolve = tree_builder._resolve_ties

        def spy(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(tree_builder, "_resolve_ties", spy)
        monkeypatch.setattr(tree_builder, "FACTORED_HANDOFF_ROWS", 1)
        rng = np.random.default_rng(0)
        log_values = np.log(rng.uniform(1.0, 50.0, size=2))
        pairs = TrainingPairs(
            rng.normal(size=(2, 2)),
            np.hstack([rng.normal(size=(2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])]),
            log_values,
            log_values,
        )
        X, y = pairs.materialize()
        for seed in range(20):
            dense = build_extra_trees(X, y, 3, rng=np.random.default_rng(seed))
            factored = build_extra_trees(
                X, y, 3, rng=np.random.default_rng(seed), pairs=pairs
            )
            _assert_same_forest(dense, factored)
        assert calls

    @pytest.mark.parametrize("m", [24, 40])
    def test_complementary_source_columns_at_the_default_constants(
        self, m, monkeypatch
    ):
        """Source design columns against negated copies (anti-correlated
        metric columns): their go masks over a node's source members are
        complements with equal exact SSE, the common multi-class tie on
        the source factor at multicloud scale.  Grown at the default
        constants, the factored forest is the dense one."""
        complementary = []
        resolve = tree_builder._resolve_ties

        def spy(*args):
            complementary.append(_complementary_ties(*args))
            return resolve(*args)

        monkeypatch.setattr(tree_builder, "_resolve_ties", spy)
        rng = np.random.default_rng(m)
        design = rng.integers(0, 3, size=(m, 4)).astype(float)
        metrics = np.column_stack([-design[:, 0], -design[:, 2], rng.normal(size=m)])
        log_values = np.log(rng.uniform(1.0, 50.0, size=m))
        pairs = TrainingPairs(design, np.hstack([design, metrics]), log_values, log_values)
        X, y = pairs.materialize()
        dense, factored = (
            ExtraTreesRegressor(n_estimators=24, min_samples_split=6, seed=m)
            for _ in range(2)
        )
        dense.fit(X, y)
        factored.fit(X, y, pairs=pairs)
        _assert_same_forest(dense._packed, factored._packed)
        assert factored._rng.bit_generator.state == dense._rng.bit_generator.state
        assert sum(complementary) > 0

    def test_fit_takes_the_factored_path_from_the_crossover(self, monkeypatch):
        calls = []
        split = tree_builder._factored_split
        monkeypatch.setattr(
            tree_builder, "_factored_split",
            lambda *args: calls.append(args[0].a.size) or split(*args),
        )
        rng = np.random.default_rng(1)
        for m in (19, 20):
            a = rng.normal(size=m)
            pairs = TrainingPairs(rng.normal(size=(m, 2)), rng.normal(size=(m, 3)), a, a)
            ExtraTreesRegressor(n_estimators=2, seed=0).fit(
                *pairs.materialize(), pairs=pairs
            )
        assert 20 * 20 >= extra_trees_module.FACTORED_MIN_TRAIN_PAIRS > 19 * 19
        assert set(calls) == {20}

    def test_fit_rejects_mismatched_pairs(self):
        rng = np.random.default_rng(2)
        pairs = TrainingPairs(
            rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), np.zeros(3), np.zeros(3)
        )
        X, y = pairs.materialize()
        with pytest.raises(ValueError, match="does not match"):
            ExtraTreesRegressor(n_estimators=2).fit(X[:, :3], y, pairs=pairs)
        short = TrainingPairs(pairs.dest, pairs.source[:2], pairs.a, pairs.b)
        with pytest.raises(ValueError, match="does not match"):
            ExtraTreesRegressor(n_estimators=2).fit(X, y, pairs=short)


def _complementary_ties(a_d, b_s, go, at, count, tied, ambiguous, split, total_sum):
    """How many tied nodes hold two ambiguous source-column candidates
    whose go masks over the node's source members are complements."""
    found = 0
    for node, candidates in zip(tied, ambiguous):
        members = slice(at[node, 1], at[node, 1] + count[node, 1])
        masks = [go[f, members] for f in np.flatnonzero(candidates) if f >= split]
        found += any(
            (first == ~second).all()
            for i, first in enumerate(masks) for second in masks[i + 1 :]
        )
    return found


def _exact_sse(values, go):
    """Children's SSE of ``values`` split by ``go``, in exact rationals."""
    total = Fraction(0)
    for side in (go, ~go):
        part = [Fraction(float(v)) for v in values[side]]
        total += sum(v * v for v in part) - sum(part) ** 2 / len(part)
    return total


@st.composite
def adversarial_nodes(draw):
    """One ``D x S`` node whose sums cancel: a huge common offset in the
    target terms, near-constant targets, or magnitudes across 6 decades."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_dest, n_src = draw(st.integers(2, 24)), draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["offset", "flat", "decades", "absolute"]))
    if kind == "offset":
        a = 1e8 + rng.integers(-4, 5, size=n_dest) * 2.0**-26
        b = 1e8 + rng.integers(-4, 5, size=n_src) * 2.0**-26
    elif kind == "flat":
        a = np.full(n_dest, 3.0) + rng.normal(size=n_dest) * 1e-12
        b = -rng.normal(size=n_src) * 1e-12
    elif kind == "decades":
        a = rng.normal(size=n_dest) * 10.0 ** rng.integers(-3, 4, size=n_dest)
        b = rng.normal(size=n_src) * 10.0 ** rng.integers(-3, 4, size=n_src)
    else:
        a = 1e3 + rng.normal(size=n_dest) * 1e-9
        b = np.zeros(n_src)
    go_d = rng.random((n_dest, 3)) < 0.5
    go_s = rng.random((n_src, 3)) < 0.5
    return a, b, go_d, go_s


class TestRoundingBound:
    """The tie bound ``B`` of the factored split search."""

    @settings(max_examples=60, deadline=None)
    @given(node=adversarial_nodes())
    def test_dense_and_factored_sse_within_a_quarter_bound_of_exact(self, node):
        a, b, go_d, go_s = node
        n_dest, n_src = a.size, b.size
        # The factored search holds go flags feature-major.
        sse, valid, bound = _factored_sse(
            go_d.T, go_s.T, a, b, np.array([n_dest]), np.array([n_src])
        )
        # Dense rows, source-major, as the builder holds them.
        y = (a[None, :] - b[:, None]).reshape(-1)
        n = y.size
        go_rows = np.hstack([np.tile(go_d, (n_src, 1)), np.repeat(go_s, n_dest, axis=0)])
        go_f = go_rows.astype(float)
        start = np.array([0])
        dense = _split_sse(
            np.add.reduceat(go_f, start, axis=0),
            np.add.reduceat(go_f * y[:, None], start, axis=0),
            np.add.reduceat(go_f * (y * y)[:, None], start, axis=0),
            np.add.reduceat(y, start)[:, None],
            np.add.reduceat(y * y, start)[:, None],
            float(n),
        )[0]
        quarter = Fraction(float(bound[0])) / 4
        checked = 0
        for j in np.flatnonzero(valid[0]):
            exact = _exact_sse(y, go_rows[:, j])
            assert abs(Fraction(float(dense[j])) - exact) <= quarter
            assert abs(Fraction(float(sse[0, j])) - exact) <= quarter
            checked += 1
        assert checked or not valid.any()


class TestReduceatSummationOrder:
    """The tie re-evaluation sums one segment per candidate with a 1-D
    ``np.add.reduceat``; that must give the bits of the dense split's
    2-D axis-0 reduction and of the stacked builder's transposed axis-1
    one, on every segment length (pairwise blocks included)."""

    def test_1d_2d_and_transposed_reduceat_agree_bitwise(self):
        rng = np.random.default_rng(3)
        sizes = np.array([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 300, 1521])
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        values = rng.normal(size=(sizes.sum(), 5)) * 10.0 ** rng.integers(-4, 5, size=(sizes.sum(), 5))
        axis0 = np.add.reduceat(values, starts, axis=0)
        axis1 = np.add.reduceat(np.ascontiguousarray(values.T), starts, axis=1).T
        for j in range(values.shape[1]):
            column = np.ascontiguousarray(values[:, j])
            np.testing.assert_array_equal(np.add.reduceat(column, starts), axis0[:, j])
            np.testing.assert_array_equal(np.add.reduceat(column, starts), axis1[:, j])
            for segment, start in zip(sizes, starts):
                alone = np.add.reduceat(column[start : start + segment], [0])
                assert alone[0] == axis0[list(starts).index(start), j]
