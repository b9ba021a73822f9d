"""Test references for the level-synchronous tree builders and walks.

The library grows and walks trees only in the packed, whole-ensemble
form (:mod:`repro.ml.tree_builder`, :mod:`repro.ml.tree`).  This module
keeps the textbook forms the tests check them against:

* :class:`RegressionTree` and :class:`CARTRegressionTree` grow one tree
  depth-first, node by node, with the same split rules as
  :func:`~repro.ml.tree_builder.build_extra_trees` and
  :func:`~repro.ml.tree_builder.build_cart_forest`;
* :func:`tree_arrays`, :func:`predict_per_tree` and :func:`tree_depth`
  read one tree at a time out of a :class:`~repro.ml.tree.PackedTrees`.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import PackedTrees, coerce_training_data


def walk_tree(feature, threshold, left, right, value, X) -> np.ndarray:
    """One tree's predictions for the rows of ``X``, all rows at once
    (the root is node 0)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    active = feature[node] >= 0
    while active.any():
        current = node[active]
        go_left = X[rows[active], feature[current]] <= threshold[current]
        node[active] = np.where(go_left, left[current], right[current])
        active = feature[node] >= 0
    return value[node]


class _RecursiveTree:
    """A regression tree grown depth-first; subclasses pick the split.

    Args:
        max_features: features considered per split; ``None`` means all.
        min_samples_split: nodes smaller than this become leaves.
        max_depth: depth cap; ``None`` means unlimited.
        seed: seed (or Generator) for the split randomisation.
    """

    def __init__(
        self,
        max_features: int | None = None,
        min_samples_split: int = 2,
        max_depth: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self._rng = np.random.default_rng(seed)
        self._feature: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return 0 if self._feature is None else int(self._feature.size)

    def _candidates(self, n_features: int) -> np.ndarray:
        k = self.max_features if self.max_features is not None else n_features
        k = min(max(k, 1), n_features)
        return self._rng.choice(n_features, size=k, replace=False)

    def _split(self, X, y, indices):
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = coerce_training_data(X, y)
        features, thresholds, lefts, rights, values = [], [], [], [], []

        def grow(indices: np.ndarray, depth: int) -> int:
            node = len(features)
            node_y = y[indices]
            features.append(-1)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            values.append(float(node_y.mean()))
            if (
                indices.size < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or node_y.min() == node_y.max()
            ):
                return node
            split = self._split(X, y, indices)
            if split is None:
                return node
            feature, threshold, left_mask = split
            left_child = grow(indices[left_mask], depth + 1)
            right_child = grow(indices[~left_mask], depth + 1)
            features[node] = feature
            thresholds[node] = threshold
            lefts[node] = left_child
            rights[node] = right_child
            return node

        grow(np.arange(X.shape[0]), 0)
        self._feature = np.array(features, dtype=np.int64)
        self._threshold = np.array(thresholds, dtype=float)
        self._left = np.array(lefts, dtype=np.int64)
        self._right = np.array(rights, dtype=np.int64)
        self._value = np.array(values, dtype=float)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return walk_tree(
            self._feature, self._threshold, self._left, self._right, self._value, X
        )


class RegressionTree(_RecursiveTree):
    """One extremely-randomised tree: the best of one uniform threshold
    per candidate feature, by the children's summed squared error."""

    def _split(self, X, y, indices):
        candidates = self._candidates(X.shape[1])
        node_X = X[np.ix_(indices, candidates)]
        node_y = y[indices]
        node_y_sq = node_y * node_y
        total_sum = float(node_y.sum())
        total_sq = float(node_y_sq.sum())
        lows = node_X.min(axis=0)
        highs = node_X.max(axis=0)
        varying = lows < highs
        if not varying.any():
            return None
        thresholds = lows + self._rng.uniform(size=candidates.size) * (highs - lows)
        masks = node_X <= thresholds
        n_left = masks.sum(axis=0)
        valid = varying & (n_left > 0) & (n_left < indices.size)
        if not valid.any():
            return None
        left_sum = node_y @ masks
        left_sq = node_y_sq @ masks
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = (
                left_sq
                - left_sum**2 / n_left
                + (total_sq - left_sq)
                - (total_sum - left_sum) ** 2 / (indices.size - n_left)
            )
        pick = int(np.argmin(np.where(valid, sse, np.inf)))
        return int(candidates[pick]), float(thresholds[pick]), masks[:, pick]


class CARTRegressionTree(_RecursiveTree):
    """One CART tree: the exact SSE-minimising midpoint split."""

    def _split(self, X, y, indices):
        node_y = y[indices]
        n = indices.size
        total = node_y.sum()
        best_feature, best_threshold, best_score = -1, 0.0, np.inf
        for feature in self._candidates(X.shape[1]):
            column = X[indices, feature]
            order = np.argsort(column, kind="stable")
            sorted_col = column[order]
            prefix = np.cumsum(node_y[order])[:-1]
            sizes = np.arange(1, n)
            # Valid cut positions are where the feature value changes.
            valid = sorted_col[:-1] < sorted_col[1:]
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                score = -(prefix**2) / sizes - (total - prefix) ** 2 / (n - sizes)
            score = np.where(valid, score, np.inf)
            pos = int(np.argmin(score))
            if score[pos] < best_score:
                best_score = float(score[pos])
                best_feature = int(feature)
                best_threshold = float((sorted_col[pos] + sorted_col[pos + 1]) / 2.0)
        if best_feature < 0:
            return None
        return best_feature, best_threshold, X[indices, best_feature] <= best_threshold


def tree_arrays(packed: PackedTrees, index: int) -> tuple[np.ndarray, ...]:
    """Tree ``index``'s ``(feature, threshold, left, right, value)`` span,
    child indices rebased to the tree (its root is node 0)."""
    start = int(packed.roots[index])
    stop = start + int(packed.counts[index])
    left, right = packed.left[start:stop], packed.right[start:stop]
    return (
        packed.feature[start:stop],
        packed.threshold[start:stop],
        np.where(left >= 0, left - start, -1),
        np.where(right >= 0, right - start, -1),
        packed.value[start:stop],
    )


def predict_per_tree(packed: PackedTrees, X) -> np.ndarray:
    """``(n_trees, n_rows)`` predictions, walking one tree at a time."""
    return np.stack(
        [walk_tree(*tree_arrays(packed, i), X) for i in range(packed.n_trees)]
    )


def tree_depth(packed: PackedTrees, index: int) -> int:
    """Depth of tree ``index`` (a root-only tree has depth 0)."""
    _, _, left, right, _ = tree_arrays(packed, index)
    level, depth = np.array([0]), 0
    while True:
        children = np.concatenate([left[level], right[level]])
        level = children[children >= 0]
        if not level.size:
            return depth
        depth += 1
