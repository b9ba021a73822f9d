"""Extra-Trees regression ensemble.

The surrogate model of Augmented BO (paper Section IV-B): "a tree-based
ensemble method — Extra-Trees algorithm".  Tree ensembles capture the
sharp, interaction-heavy performance behaviour of cloud workloads without
requiring a kernel choice, which is precisely why the paper picks them
over the GP.

Beyond the mean prediction, the ensemble exposes the across-tree standard
deviation as an uncertainty proxy — useful for UCB-style acquisition over
tree surrogates and for the stopping analysis.

Two hot-path optimisations serve the surrogate's inner loop (the model
is refitted after every measurement of a search):

* prediction packs all trees into one flat node array and evaluates the
  whole ensemble in a single vectorised traversal
  (:func:`repro.ml.tree.predict_packed`) — bit-identical to per-tree
  traversal, but one Python loop over tree depth instead of one per tree;
* ``refit_fraction`` enables warm-start refitting: on a refit, only a
  seeded subset of trees is regrown on the new data while the rest keep
  their previous structure.  The default (1.0) refits everything, so
  seeded results are bit-identical to the classic behaviour; smaller
  fractions trade a little surrogate freshness for a proportional cut
  in per-step fit time.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import (
    PackedTrees,
    PairRows,
    RegressionTree,
    coerce_training_data,
    pack_trees,
    predict_packed,
)
from repro.ml.tree_builder import (
    TREE_BUILDERS,
    BuiltForest,
    StackedGrowTask,
    build_extra_trees,
    build_extra_trees_stacked,
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
            every tree — the classic, bit-identical behaviour; smaller
            values warm-start: a seeded subset of ``ceil(fraction * n)``
            trees is refitted on the new data, the rest are kept.
        tree_builder: ``"vectorized"`` (default) grows the whole
            ensemble level-synchronously with batched numpy
            (:func:`repro.ml.tree_builder.build_extra_trees`) and emits
            straight into the packed predict format; ``"classic"`` keeps
            the per-node recursive grower.  Both implement the same
            split rules; seeded results are statistically equivalent but
            not bit-identical because random draws are consumed in a
            different order.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_features: int | None = None,
        min_samples_split: int = 2,
        max_depth: int | None = None,
        seed: int | None = None,
        refit_fraction: float = 1.0,
        tree_builder: str = "vectorized",
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not 0.0 < refit_fraction <= 1.0:
            raise ValueError(
                f"refit_fraction must be in (0, 1], got {refit_fraction}"
            )
        if tree_builder not in TREE_BUILDERS:
            raise ValueError(
                f"unknown tree_builder {tree_builder!r}, expected one of {TREE_BUILDERS}"
            )
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self.refit_fraction = refit_fraction
        self.tree_builder = tree_builder
        self._rng = np.random.default_rng(seed)
        self._trees: list[RegressionTree] = []
        self._packed: PackedTrees | None = None
        # Builder output adopted without per-tree shells (stacked fits);
        # RegressionTree objects are materialised from it on demand.
        self._built: BuiltForest | None = None

    @property
    def trees(self) -> tuple[RegressionTree, ...]:
        """The fitted trees (empty before :meth:`fit`)."""
        self._materialize_trees()
        return tuple(self._trees)

    def _shell(self, built: BuiltForest, index: int) -> RegressionTree:
        """A standalone ``RegressionTree`` for tree ``index`` of ``built``."""
        return RegressionTree.from_arrays(
            *built.tree_arrays(index),
            max_features=self.max_features,
            min_samples_split=self.min_samples_split,
            max_depth=self.max_depth,
        )

    def _materialize_trees(self) -> None:
        """Build per-tree shells from a lazily adopted forest, if any."""
        if self._built is None:
            return
        built = self._built
        self._built = None
        self._trees = [self._shell(built, index) for index in range(built.n_trees)]

    def adopt_built(self, built: BuiltForest) -> None:
        """Install a pre-grown forest as this ensemble's fitted state.

        Used by full vectorized refits and :func:`fit_ensembles_stacked`:
        the packed arrays serve prediction immediately; the per-tree
        ``RegressionTree`` shells — which the prediction hot path never
        touches — are only materialised if :attr:`trees` is actually
        read.
        """
        if built.n_trees != self.n_estimators:
            raise ValueError(
                f"forest has {built.n_trees} trees, expected {self.n_estimators}"
            )
        self._packed = built.packed
        self._trees = []
        self._built = built

    def _grow_tree(self, X: np.ndarray, y: np.ndarray) -> RegressionTree:
        tree = RegressionTree(
            max_features=self.max_features,
            min_samples_split=self.min_samples_split,
            max_depth=self.max_depth,
            seed=self._rng,
        )
        return tree.fit(X, y)

    def _grow_batch(self, X: np.ndarray, y: np.ndarray, n_trees: int) -> BuiltForest:
        """Grow ``n_trees`` trees in one level-synchronous builder pass."""
        return build_extra_trees(
            X,
            y,
            n_trees,
            max_features=self.max_features,
            min_samples_split=self.min_samples_split,
            max_depth=self.max_depth,
            rng=self._rng,
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> ExtraTreesRegressor:
        """Fit the ensemble on the full ``(X, y)`` sample.

        On a fresh ensemble (or with ``refit_fraction == 1.0``) every
        tree is regrown.  On an already-fitted ensemble with
        ``refit_fraction < 1.0``, only a seeded subset of trees is
        regrown on the new data (warm start); the remaining trees keep
        the structure they learned from the previous fit.
        """
        X, y = coerce_training_data(X, y)
        vectorized = self.tree_builder == "vectorized"
        fitted = bool(self._trees) or self._built is not None
        if fitted and self.refit_fraction < 1.0:
            self._materialize_trees()
            n_refit = max(1, int(np.ceil(self.refit_fraction * self.n_estimators)))
            chosen = np.sort(
                self._rng.choice(self.n_estimators, size=n_refit, replace=False)
            )
            if vectorized:
                regrown = self._grow_batch(X, y, n_refit)
                for index, slot in enumerate(chosen):
                    self._trees[int(slot)] = self._shell(regrown, index)
            else:
                for index in chosen:
                    self._trees[int(index)] = self._grow_tree(X, y)
            self._packed = pack_trees(self._trees)
        elif vectorized:
            # The builder emits the packed layout directly — no per-tree
            # repacking or shells on the full-refit hot path.
            self.adopt_built(self._grow_batch(X, y, self.n_estimators))
        else:
            self._trees = [self._grow_tree(X, y) for _ in range(self.n_estimators)]
            self._packed = pack_trees(self._trees)
            self._built = None
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
    every ensemble.  The fitted forests are adopted lazily
    (:meth:`ExtraTreesRegressor.adopt_built`): per-tree shells are only
    materialised if a caller reads ``model.trees``.

    Only full-refit vectorized ensembles qualify — a warm-started model
    (already fitted with ``refit_fraction < 1.0``) or a classic-builder
    model consumes randomness in a different pattern.

    Raises:
        ValueError: on length mismatch, a non-vectorized or pending
            warm-refit model, or datasets the stacked builder cannot
            share a frontier over (mismatched feature dimension or
            growth limits).
    """
    if len(models) != len(datasets):
        raise ValueError(
            f"got {len(models)} models but {len(datasets)} datasets"
        )
    tasks = []
    for model, (X, y) in zip(models, datasets):
        if model.tree_builder != "vectorized":
            raise ValueError(
                "stacked fitting requires the vectorized tree builder"
            )
        if (model._trees or model._built is not None) and model.refit_fraction < 1.0:
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
    for model, built in zip(models, build_extra_trees_stacked(tasks)):
        model.adopt_built(built)
    return models
