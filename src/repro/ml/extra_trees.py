"""Extra-Trees regression ensemble.

The surrogate model of Augmented BO (paper Section IV-B): "a tree-based
ensemble method — Extra-Trees algorithm".  Tree ensembles capture the
sharp, interaction-heavy performance behaviour of cloud workloads without
requiring a kernel choice, which is precisely why the paper picks them
over the GP.

Beyond the mean prediction, the ensemble exposes the across-tree standard
deviation as an uncertainty proxy — useful for UCB-style acquisition over
tree surrogates and for the stopping analysis.

The ensemble lives in one :class:`~repro.ml.tree.PackedTrees`, which
serves the surrogate's inner loop (the model is refitted after every
measurement of a search):

* fitting grows every tree level-synchronously straight into that
  layout (:func:`repro.ml.tree_builder.build_extra_trees`), over the
  destination x source factors when handed a large
  :class:`~repro.ml.tree_builder.TrainingPairs` set;
* prediction evaluates the whole ensemble in a single vectorised walk
  (:func:`repro.ml.tree.predict_packed`);
* ``refit_fraction`` enables warm-start refitting: on a refit, only a
  seeded subset of trees is regrown on the new data and spliced into
  the packed arrays (:meth:`~repro.ml.tree.PackedTrees.splice`) while
  the rest keep their previous structure.  The default (1.0) refits
  everything; smaller fractions trade a little surrogate freshness for
  a proportional cut in per-step fit time.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import (
    PackedTrees,
    PairRows,
    coerce_training_data,
    predict_packed,
)
from repro.ml.tree_builder import (
    FACTORED_MIN_TRAIN_PAIRS,
    StackedGrowTask,
    TrainingPairs,
    build_extra_trees,
    build_extra_trees_stacked,
    check_growth_limits,
)


class ExtraTreesRegressor:
    """An ensemble of extremely-randomised regression trees.

    Classic Extra-Trees trains every tree on the full sample (no
    bootstrap); diversity comes from randomised split thresholds.

    Args:
        n_estimators: number of trees.
        max_features: features considered per split (``None`` = all).
        min_samples_split: node size below which growth stops.
        max_depth: per-tree depth cap.
        seed: seed for the ensemble's randomisation.
        refit_fraction: fraction of trees regrown when :meth:`fit` is
            called on an already-fitted ensemble.  1.0 (default) regrows
            every tree; smaller values warm-start: a seeded subset of
            ``ceil(fraction * n)`` trees is refitted on the new data,
            the rest are kept.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_features: int | None = None,
        min_samples_split: int = 2,
        max_depth: int | None = None,
        seed: int | None = None,
        refit_fraction: float = 1.0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not 0.0 < refit_fraction <= 1.0:
            raise ValueError(
                f"refit_fraction must be in (0, 1], got {refit_fraction}"
            )
        check_growth_limits(min_samples_split, max_depth)
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self.refit_fraction = refit_fraction
        self._rng = np.random.default_rng(seed)
        self._packed: PackedTrees | None = None

    def adopt_built(self, packed: PackedTrees) -> None:
        """Install a pre-grown forest as this ensemble's fitted state.

        Used by full refits and :func:`fit_ensembles_stacked`.
        """
        if packed.n_trees != self.n_estimators:
            raise ValueError(
                f"forest has {packed.n_trees} trees, expected {self.n_estimators}"
            )
        self._packed = packed

    def _grow_batch(
        self, X: np.ndarray, y: np.ndarray, n_trees: int, pairs: TrainingPairs | None
    ) -> PackedTrees:
        """Grow ``n_trees`` trees in one level-synchronous builder pass."""
        return build_extra_trees(
            X,
            y,
            n_trees,
            max_features=self.max_features,
            min_samples_split=self.min_samples_split,
            max_depth=self.max_depth,
            rng=self._rng,
            pairs=pairs,
        )

    def fit(
        self, X: np.ndarray, y: np.ndarray, pairs: TrainingPairs | None = None
    ) -> ExtraTreesRegressor:
        """Fit the ensemble on the full ``(X, y)`` sample.

        On a fresh ensemble (or with ``refit_fraction == 1.0``) every
        tree is regrown.  On an already-fitted ensemble with
        ``refit_fraction < 1.0``, only a seeded subset of trees is
        regrown on the new data (warm start); the remaining trees keep
        the structure they learned from the previous fit.

        ``pairs`` optionally gives ``(X, y)`` as a pair set
        (``pairs.materialize()`` must equal it bit for bit); from
        :data:`~repro.ml.tree_builder.FACTORED_MIN_TRAIN_PAIRS` rows on,
        the trees grow over its factors — the same trees, faster.

        Raises:
            ValueError: when ``pairs`` does not match the shape of ``X``.
        """
        X, y = coerce_training_data(X, y)
        if pairs is not None:
            m = pairs.a.size
            width = pairs.dest.shape[1] + pairs.source.shape[1]
            sizes = {len(pairs.dest), len(pairs.source), pairs.b.size}
            if (m * m, width) != X.shape or sizes != {m}:
                raise ValueError(
                    f"pair set of {m} x {m} pairs does not match X of shape {X.shape}"
                )
            if X.shape[0] < FACTORED_MIN_TRAIN_PAIRS:
                pairs = None
        if self._packed is not None and self.refit_fraction < 1.0:
            n_refit = max(1, int(np.ceil(self.refit_fraction * self.n_estimators)))
            chosen = np.sort(
                self._rng.choice(self.n_estimators, size=n_refit, replace=False)
            )
            self._packed = self._packed.splice(
                chosen, self._grow_batch(X, y, n_refit, pairs)
            )
        else:
            self.adopt_built(self._grow_batch(X, y, self.n_estimators, pairs))
        return self

    def predict(
        self, X: np.ndarray | PairRows, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Ensemble mean (and optionally across-tree std) for rows of ``X``
        (dense rows or a :class:`~repro.ml.tree.PairRows`)."""
        if self._packed is None:
            raise RuntimeError("ensemble must be fitted before predict")
        predictions = predict_packed(self._packed, X)
        mean = predictions.mean(axis=0)
        if not return_std:
            return mean
        return mean, predictions.std(axis=0)


def fit_ensembles_stacked(
    models: list[ExtraTreesRegressor],
    datasets: list[tuple[np.ndarray, np.ndarray]],
) -> list[ExtraTreesRegressor]:
    """Fit many Extra-Trees ensembles in one stacked builder pass.

    Each ``models[i]`` is fitted on ``datasets[i]`` exactly as its own
    ``fit(X, y)`` would — same draws from the model's generator, same
    split decisions, bit-identical trees
    (:func:`repro.ml.tree_builder.build_extra_trees_stacked`) — but all
    level-synchronous growth happens in one global frontier, amortising
    the per-level numpy dispatch that dominates small-sample fits across
    every ensemble.

    Only full refits qualify — a warm-started model (already fitted with
    ``refit_fraction < 1.0``) consumes randomness in a different pattern.

    Raises:
        ValueError: on length mismatch, a pending warm-refit model, or
            datasets the stacked builder cannot share a frontier over
            (mismatched feature dimension or growth limits).
    """
    if len(models) != len(datasets):
        raise ValueError(
            f"got {len(models)} models but {len(datasets)} datasets"
        )
    tasks = []
    for model, (X, y) in zip(models, datasets):
        if model._packed is not None and model.refit_fraction < 1.0:
            raise ValueError(
                "stacked fitting cannot warm-refit an already-fitted ensemble"
            )
        X, y = coerce_training_data(X, y)
        tasks.append(
            StackedGrowTask(
                X=X,
                y=y,
                n_trees=model.n_estimators,
                rng=model._rng,
                max_features=model.max_features,
                min_samples_split=model.min_samples_split,
                max_depth=model.max_depth,
            )
        )
    for model, packed in zip(models, build_extra_trees_stacked(tasks)):
        model.adopt_built(packed)
    return models
