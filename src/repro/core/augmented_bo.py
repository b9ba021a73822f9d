"""Augmented BO — the paper's contribution (Algorithm 2, "Arrow").

Three design changes relative to Naive BO (Section IV-B):

* **Augmented instance space** — the surrogate's inputs are the encoded
  characteristics of the *destination* VM (the one whose performance we
  want) concatenated with the characteristics *and low-level metrics* of
  a *source* VM on which the workload has actually run.
* **Surrogate model** — an Extra-Trees ensemble instead of a GP, so no
  kernel has to be chosen (side-stepping one fragility source).
* **Acquisition** — Prediction Delta: measure the VM with the best point
  prediction; the same quantity drives the stopping rule.

Training uses every ordered pair of measured VMs ``(source j -> dest i)``
plus the identity pairs ``(j -> j)``; prediction for an unmeasured VM
averages the model over all measured sources.  This is how low-level
information about VMs we *have* measured informs estimates for VMs we
*have not* — the paper's central trick.

**A reproduction note on the target variable.**  Algorithm 2 leaves open
what exactly the pairwise model regresses.  The literal reading — the
destination's absolute performance — makes the low-level metrics
provably uninformative for a single workload: within one search, the
target varies only with the destination while the metrics vary only with
the source, so no split on a metric can ever reduce training error.  We
therefore regress the *log performance ratio* ``log y_dest - log y_src``
(``relational=True``, the default), which matches the paper's narrative
that "experts interpolate or extrapolate the workload performance using
not only characteristics of VM but also the low-level performance
information": a source observed at 140% memory commit predicts a large
speedup on a destination with more RAM, and that interaction is exactly
what the trees learn.  ``relational=False`` keeps the literal absolute
form for comparison (``benchmarks/test_ablation_surrogate.py``
quantifies the difference).

**Hot-path design.**  The scorer runs once per search step, so its inner
loop is the dominant cost of every grid the evaluation runs.  Four
optimisations keep it fast without changing seeded results:

* the ``m^2`` training pairs are held as their factors, a
  :class:`~repro.ml.tree_builder.TrainingPairs` of ``m`` destination
  rows, ``m`` source rows and the log values; the dense source-major
  rows are one broadcast copy, and the Extra-Trees fit also gets the
  scaled factors, over which large pair sets grow the same trees faster;
* candidate x source query rows are never assembled: every row is
  ``[candidate | source]``, so the scaled ``u`` candidate rows and the
  scaled ``m``-row source table travel as a
  :class:`~repro.ml.tree.PairRows` (scaling is elementwise per column,
  so each factor's floats equal the dense rows' bit for bit);
* the query is scored by a single ensemble predict over all trees
  (:func:`repro.ml.tree.predict_packed`), which walks large ``u * m``
  queries over destination-set x source-set products instead of one
  cursor per row, and smaller ones flat;
* ``refit_fraction`` (default 1.0 = full refit) enables the ensemble's
  warm-start mode: only a seeded subset of trees is regrown per step
  and spliced into the packed ensemble, cutting fit time roughly
  proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.acquisition import prediction_delta
from repro.core.smbo import AcquisitionScores, SequentialOptimizer
from repro.ml.extra_trees import ExtraTreesRegressor, fit_ensembles_stacked
from repro.ml.random_forest import RandomForestRegressor
from repro.ml.scaling import StandardScaler
from repro.ml.tree import PairRows, predict_packed_many
from repro.ml.tree_builder import TrainingPairs
from repro.simulator.cluster import Measurement

#: Default ensemble size for the Extra-Trees surrogate.
DEFAULT_N_ESTIMATORS = 24

#: Tree ensembles the surrogate can use; the paper picks Extra-Trees,
#: the CART random forest is its classic sibling (for the ablation).
ENSEMBLES = ("extra_trees", "random_forest")


@dataclass(slots=True)
class _PendingTreeScore:
    """A scoring step paused at the ensemble-fit boundary.

    Produced by :meth:`PairwiseTreeScorer.score_begin`; the model is
    built (per-step seed already drawn) but unfitted.
    :meth:`PairwiseTreeScorer.score_group` fits ``model`` on
    ``(X_scaled, y_train)`` — alone or stacked with other searches'
    pending steps — then finishes the step with
    :meth:`PairwiseTreeScorer.score_commit`.
    """

    index: np.ndarray
    metrics: np.ndarray
    log_values: np.ndarray
    scaler: StandardScaler
    model: object
    X_scaled: np.ndarray
    y_train: np.ndarray
    pairs: TrainingPairs
    unmeasured: list[int] = field(default_factory=list)
    scaled_query: PairRows | None = None


class PairwiseTreeScorer:
    """Fits the pairwise low-level surrogate and scores Prediction Delta.

    Factored out of :class:`AugmentedBO` so
    :class:`~repro.core.hybrid_bo.HybridBO` can reuse it for its late phase.

    Args:
        design_matrix: full encoded instance space.
        n_estimators: ensemble size.
        relational: regress log performance *ratios* (source -> dest)
            instead of absolute log performance; see the module docstring.
        ensemble: ``"extra_trees"`` (the paper's choice, default) or
            ``"random_forest"`` (bagged CART, for the ablation).
        seed: seed for the ensemble's randomisation.
        refit_fraction: fraction of trees regrown per step (Extra-Trees
            only).  1.0 — the default — refits the whole ensemble from a
            fresh per-step seed; smaller values keep one warm ensemble
            across steps and regrow only a seeded subset.
    """

    def __init__(
        self,
        design_matrix: np.ndarray,
        n_estimators: int = DEFAULT_N_ESTIMATORS,
        relational: bool = True,
        ensemble: str = "extra_trees",
        seed: int | None = None,
        refit_fraction: float = 1.0,
    ) -> None:
        if ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {ensemble!r}; known: {ENSEMBLES}")
        if not 0.0 < refit_fraction <= 1.0:
            raise ValueError(
                f"refit_fraction must be in (0, 1], got {refit_fraction}"
            )
        if refit_fraction < 1.0 and ensemble != "extra_trees":
            raise ValueError(
                "refit_fraction < 1 (warm-start refit) requires the "
                "extra_trees ensemble"
            )
        self._design = np.asarray(design_matrix, dtype=float)
        self.n_estimators = n_estimators
        self.relational = relational
        self.ensemble = ensemble
        self.refit_fraction = refit_fraction
        self._rng = np.random.default_rng(seed)
        # The last scoring step's (unscaled) pair set.
        self._pairs: TrainingPairs | None = None
        # Warm-start state (refit_fraction < 1 only).
        self._model = None
        self._scaler: StandardScaler | None = None

    def _build_model(self):
        seed = int(self._rng.integers(2**31))
        if self.ensemble == "extra_trees":
            return ExtraTreesRegressor(
                n_estimators=self.n_estimators,
                min_samples_split=6,
                seed=seed,
                refit_fraction=self.refit_fraction,
            )
        return RandomForestRegressor(
            n_estimators=self.n_estimators,
            max_features=None,
            min_samples_split=6,
            seed=seed,
        )

    def _pair_set(
        self, measured: list[int], log_values: np.ndarray, metrics: np.ndarray
    ) -> TrainingPairs:
        """All ordered pairs of the measured VMs, as factors.

        Dense row ``src * m + dst`` is ``[design[dst], design[src],
        metrics[src]]``; its target is the log ratio, or with
        ``relational=False`` the destination's log value (less zero).
        """
        design_rows = self._design[np.asarray(measured, dtype=np.int64)]
        log_values = np.asarray(log_values, dtype=float)
        return TrainingPairs(
            design_rows,
            np.concatenate([design_rows, metrics], axis=1),
            log_values,
            log_values if self.relational else np.zeros_like(log_values),
        )

    def _training_set(
        self, measured: list[int], log_values: np.ndarray, metrics: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """From-scratch enumeration of all ordered pairs (source-major).

        The reference :meth:`_pair_set` must reproduce: row
        ``src * m + dst`` is ``[design[dst], design[src], metrics[src]]``.
        ``tests/test_augmented_incremental.py`` asserts both agree after
        every step of a search.
        """
        index = np.asarray(measured, dtype=np.int64)
        m = index.size
        d = self._design.shape[1]
        design_rows = self._design[index]
        rows = np.empty((m * m, 2 * d + metrics.shape[1]))
        rows[:, :d] = np.tile(design_rows, (m, 1))  # destination varies fastest
        rows[:, d : 2 * d] = np.repeat(design_rows, m, axis=0)
        rows[:, 2 * d :] = np.repeat(metrics, m, axis=0)
        log_values = np.asarray(log_values, dtype=float)
        if self.relational:
            targets = np.tile(log_values, m) - np.repeat(log_values, m)
        else:
            targets = np.tile(log_values, m)
        return rows, targets

    def cached_training_set(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense (features, targets) pair set of the last scoring step.

        Raises:
            RuntimeError: before the first :meth:`score` call.
        """
        if self._pairs is None:
            raise RuntimeError("no pair cache yet; call score first")
        return self._pairs.materialize()

    def group_key(self, measured, values, measurements, unmeasured) -> tuple | None:
        """The group this round can be scored in, or ``None`` to score alone.

        The stacked builder only reproduces a full Extra-Trees refit bit
        for bit, so warm refits and the random forest score alone.
        Every model :meth:`_build_model` makes has the same growth
        limits and the metric vector has one width, so the design width
        is the whole key.
        """
        if self.ensemble != "extra_trees" or self.refit_fraction < 1.0:
            return None
        return ("tree", self._design.shape[1])

    def score_begin(
        self,
        measured: list[int],
        values: np.ndarray,
        measurements: list[Measurement],
        unmeasured: list[int],
    ) -> _PendingTreeScore:
        """Everything :meth:`score` does *before* the ensemble fit.

        Splitting the step at the fit boundary lets :meth:`score_group`
        fit many searches' ensembles in one stacked builder pass
        (:func:`repro.ml.extra_trees.fit_ensembles_stacked`) and then
        finish each step with :meth:`score_commit`.
        """
        index = np.asarray(measured, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        # to_vector is memoised per measurement, so this is m cheap reads.
        metrics = np.array([meas.metrics.to_vector() for meas in measurements])
        log_values = np.log(values)
        self._pairs = self._pair_set(index, log_values, metrics)
        X_train, y_train = self._pairs.materialize()
        if self.refit_fraction < 1.0:
            # Warm start: one persistent ensemble, scaler frozen on the
            # first fit so kept trees stay consistent with new data.
            if self._model is None:
                self._model = self._build_model()
                self._scaler = StandardScaler().fit(X_train)
            scaler, model = self._scaler, self._model
        else:
            scaler = StandardScaler().fit(X_train)
            model = self._build_model()
        X_scaled = scaler.transform(X_train)
        # Scaling is elementwise per column, so each scaled factor holds
        # the floats of the scaled dense rows, bit for bit.
        d = self._design.shape[1]
        mean, scale = scaler.mean_, scaler.scale_
        pairs = TrainingPairs(
            (self._pairs.dest - mean[:d]) / scale[:d],
            (self._pairs.source - mean[d:]) / scale[d:],
            self._pairs.a,
            self._pairs.b,
        )
        return _PendingTreeScore(
            index=index,
            metrics=metrics,
            log_values=log_values,
            scaler=scaler,
            model=model,
            X_scaled=X_scaled,
            y_train=y_train,
            pairs=pairs,
            unmeasured=unmeasured,
        )

    def query_rows(self, pending: _PendingTreeScore) -> PairRows:
        """Assemble (and cache on ``pending``) the scaled query rows.

        The ``u * m`` candidate x source rows :meth:`score_commit`
        scores, in destination-major order.  :meth:`score_group`
        collects every pending step's rows to traverse all ensembles at
        once (:func:`repro.ml.tree.predict_packed_many`);
        :meth:`score_commit` calls it itself otherwise.  Idempotent per
        pending step — the rows are built once and cached.

        The rows stay factored as a :class:`~repro.ml.tree.PairRows` of
        the ``u`` scaled candidate rows and the ``m`` scaled source rows
        (design + metrics), which the packed tree walk consumes
        directly.  The scaler is elementwise per column, so scaling each
        factor gives the floats of transforming the dense rows, bit for
        bit.
        """
        if pending.scaled_query is None:
            d = self._design.shape[1]
            mean, scale = pending.scaler.mean_, pending.scaler.scale_
            candidates = np.asarray(pending.unmeasured, dtype=np.int64)
            pending.scaled_query = PairRows(
                (self._design[candidates] - mean[:d]) / scale[:d],
                pending.pairs.source,
            )
        return pending.scaled_query

    def score_commit(
        self,
        pending: _PendingTreeScore,
        tree_predictions: np.ndarray | None = None,
    ) -> AcquisitionScores:
        """Everything :meth:`score` does *after* the ensemble fit.

        ``pending.model`` must already be fitted on
        ``(pending.X_scaled, pending.y_train)``.  ``tree_predictions``
        optionally supplies the per-tree predictions for
        :meth:`query_rows` — an ``(n_trees, u * m)`` array from a
        batched cross-ensemble traversal; the source average over it is exactly the model's own
        ``predict``, so the scores are bit-identical either way.
        """
        model = pending.model
        m = pending.index.size
        # One prediction per (candidate, measured source); average sources
        # in log space (a geometric mean over sources), so one
        # catastrophic source cannot drown the rest.
        scaled_query = self.query_rows(pending)
        u = len(pending.unmeasured)
        if tree_predictions is None:
            predictions = model.predict(scaled_query)
        else:
            predictions = tree_predictions.mean(axis=0)
        per_source = predictions.reshape(u, m)
        if self.relational:
            per_source = per_source + pending.log_values[None, :]
        predicted = np.exp(per_source.mean(axis=1))
        return AcquisitionScores(scores=prediction_delta(predicted), predicted=predicted)

    def score(
        self,
        measured: list[int],
        values: np.ndarray,
        measurements: list[Measurement],
        unmeasured: list[int],
    ) -> AcquisitionScores:
        """Fit the pairwise surrogate and score the unmeasured candidates.

        :meth:`score_group` for a group of one.
        """
        return self.score_group(
            [self], [(measured, values, measurements, unmeasured)]
        )[0]

    @staticmethod
    def score_group(
        scorers: list[PairwiseTreeScorer],
        rounds: list[tuple[list[int], np.ndarray, list[Measurement], list[int]]],
    ) -> list[AcquisitionScores]:
        """Score one round of each scorer's search, as one group.

        ``rounds[i]`` is ``scorers[i]``'s ``(measured, values,
        measurements, unmeasured)``; the rounds share one
        :meth:`group_key`.  A group of one fits its model alone, which
        trains large pair sets over the factored pairs; a larger group
        grows every ensemble in one stacked frontier
        (:func:`repro.ml.extra_trees.fit_ensembles_stacked`) and walks
        all their query rows in one packed prediction
        (:func:`repro.ml.tree.predict_packed_many`).  Both grow the same
        trees, so each scorer ends exactly as it would scored alone.
        """
        steps = [
            scorer.score_begin(*round_) for scorer, round_ in zip(scorers, rounds)
        ]
        if len(steps) == 1:
            (scorer,), (step,) = scorers, steps
            pairs = {"pairs": step.pairs} if scorer.ensemble == "extra_trees" else {}
            step.model.fit(step.X_scaled, step.y_train, **pairs)
            return [scorer.score_commit(step)]
        fit_ensembles_stacked(
            [step.model for step in steps],
            [(step.X_scaled, step.y_train) for step in steps],
        )
        predictions = predict_packed_many(
            [step.model._packed for step in steps],
            [scorer.query_rows(step) for scorer, step in zip(scorers, steps)],
        )
        return [
            scorer.score_commit(step, tree_predictions=tree_predictions)
            for scorer, step, tree_predictions in zip(scorers, steps, predictions)
        ]


class AugmentedBO(SequentialOptimizer):
    """Low-level augmented Bayesian optimisation (the paper's method).

    Args:
        n_estimators: ensemble size.
        relational: surrogate target mode; see :class:`PairwiseTreeScorer`.
        ensemble: surrogate ensemble family; see :class:`PairwiseTreeScorer`.
        refit_fraction: warm-start refit knob; see :class:`PairwiseTreeScorer`.
        **kwargs: forwarded to :class:`SequentialOptimizer`.
    """

    name = "augmented-bo"
    #: The scorer class this search builds; a subclass can change how
    #: a round is scored by naming a :class:`PairwiseTreeScorer` subclass.
    scorer_class = PairwiseTreeScorer

    def __init__(
        self,
        *args,
        n_estimators: int = DEFAULT_N_ESTIMATORS,
        relational: bool = True,
        ensemble: str = "extra_trees",
        refit_fraction: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._scorer = self.scorer_class(
            self.design_matrix,
            n_estimators=n_estimators,
            relational=relational,
            ensemble=ensemble,
            seed=int(self._rng.integers(2**31)),
            refit_fraction=refit_fraction,
        )

    @property
    def scorer(self) -> PairwiseTreeScorer:
        """The pairwise surrogate scorer."""
        return self._scorer

    def _round_scorer(self) -> PairwiseTreeScorer:
        return self._scorer
