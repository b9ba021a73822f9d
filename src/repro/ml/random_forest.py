"""Random-forest regression (bagged CART-style trees).

The paper's related work leans on CART-based performance models (storage
modelling with CART [30], regression trees for virtualised storage [32]),
and its surrogate choice — Extra-Trees — is one member of the randomised
tree-ensemble family.  This module provides the other classic member:
bootstrap-aggregated trees with best-split (not random-split) selection,
so the surrogate ablation can compare the two ensembles.

The splitter evaluates midpoints between consecutive sorted feature
values and picks the SSE-minimising one (classic CART regression), with
`max_features` feature subsampling per node as in Breiman's forests.
The whole forest is grown level-synchronously
(:func:`repro.ml.tree_builder.build_cart_forest`) into one
:class:`~repro.ml.tree.PackedTrees` and predicted in one walk
(:func:`repro.ml.tree.predict_packed`).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import PackedTrees, PairRows, coerce_training_data, predict_packed
from repro.ml.tree_builder import build_cart_forest, check_growth_limits


class RandomForestRegressor:
    """Bootstrap-aggregated CART trees with per-node feature subsampling.

    All bootstrap resamples are drawn up front, then the whole forest is
    grown in one builder pass.

    Args:
        n_estimators: number of trees.
        max_features: features per split; ``None`` = all, ``"third"`` =
            Breiman's regression default (n_features // 3, at least 1).
        min_samples_split: node size below which growth stops.
        max_depth: per-tree depth cap.
        seed: ensemble randomisation seed.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_features: int | str | None = "third",
        min_samples_split: int = 2,
        max_depth: int | None = None,
        seed: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        check_growth_limits(min_samples_split, max_depth)
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self._rng = np.random.default_rng(seed)
        self._packed: PackedTrees | None = None

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features == "third":
            return max(1, n_features // 3)
        if isinstance(self.max_features, str):
            raise ValueError(f"unknown max_features spec {self.max_features!r}")
        return self.max_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> RandomForestRegressor:
        """Fit every tree on a bootstrap resample of ``(X, y)``."""
        X, y = coerce_training_data(X, y)
        max_features = self._resolve_max_features(X.shape[1])
        n = X.shape[0]
        samples = self._rng.integers(n, size=(self.n_estimators, n))
        self._packed = build_cart_forest(
            X,
            y,
            self.n_estimators,
            max_features=max_features,
            min_samples_split=self.min_samples_split,
            max_depth=self.max_depth,
            rng=self._rng,
            sample_indices=samples,
        )
        return self

    def predict(
        self, X: np.ndarray | PairRows, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Forest mean (and optionally across-tree std) for rows of ``X``
        (dense rows or a :class:`~repro.ml.tree.PairRows`)."""
        if self._packed is None:
            raise RuntimeError("forest must be fitted before predict")
        predictions = predict_packed(self._packed, X)
        mean = predictions.mean(axis=0)
        if not return_std:
            return mean
        return mean, predictions.std(axis=0)
