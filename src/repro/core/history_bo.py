"""History-augmented BO — the paper's future-work extension.

The paper closes with: *"In our future work, we plan to further augment
Bayesian Optimizer with historical performance data to further reduce
the search cost."*  This module implements that idea on top of the
pairwise low-level surrogate.

The pairwise featurisation (destination VM characteristics, source VM
characteristics, source low-level metrics -> log performance ratio)
is workload-agnostic: "a source at 140% memory commit speeds up a lot on
a destination with 4x the RAM" is a fact about hardware and bottlenecks,
not about one job.  So pairs harvested from *previously measured
workloads* form a valid prior:

* at construction, an Extra-Trees model is fitted **once** on a
  subsample of cross-workload pairs from the history trace (the target
  workload is always excluded — no label leakage),
* during the search, predictions blend the history model with the
  current-workload model, with the history weight decaying as real
  measurements accumulate: ``alpha = h / (h + k)`` for ``k`` measured
  VMs and prior strength ``h``.

With no measurements beyond the initial design the prior dominates and
typically points near the optimum immediately; once enough real data
exists the search behaves like plain Augmented BO.
"""

from __future__ import annotations

import numpy as np

from repro.core.acquisition import prediction_delta
from repro.core.augmented_bo import (
    DEFAULT_N_ESTIMATORS,
    AugmentedBO,
    PairwiseTreeScorer,
)
from repro.core.smbo import AcquisitionScores
from repro.ml.extra_trees import ExtraTreesRegressor
from repro.ml.scaling import StandardScaler
from repro.ml.tree import PairRows
from repro.trace.dataset import BenchmarkTrace

#: Default number of (source, destination) pairs sampled per history workload.
DEFAULT_PAIRS_PER_WORKLOAD = 24

#: Default prior strength: the history model counts as this many real
#: measurements when blending.
DEFAULT_PRIOR_STRENGTH = 4.0


def build_history_pairs(
    trace: BenchmarkTrace,
    exclude_workload_id: str,
    objective_key: str = "time",
    pairs_per_workload: int = DEFAULT_PAIRS_PER_WORKLOAD,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Harvest pairwise training rows from every other workload in a trace.

    Returns:
        ``(rows, targets)`` where each row is
        ``[enc(dest), enc(src), lowlevel(src)]`` and each target the log
        performance ratio ``log y_dest - log y_src`` under the given
        objective.

    Raises:
        KeyError: if ``exclude_workload_id`` is not in the trace.
    """
    trace.row_of(exclude_workload_id)  # validate the id early
    rng = np.random.default_rng(seed)
    from repro.cloud.encoding import InstanceEncoder

    encoder = InstanceEncoder(trace.catalog)
    design = encoder.encode_all()
    n_vms = len(trace.catalog)

    rows, targets = [], []
    for workload in trace.registry:
        if workload.workload_id == exclude_workload_id:
            continue
        values = trace.objective_values(workload, objective_key)
        log_values = np.log(values)
        metrics = trace.metrics[trace.row_of(workload)]
        for _ in range(pairs_per_workload):
            src, dst = rng.integers(n_vms), rng.integers(n_vms)
            rows.append(np.concatenate([design[dst], design[src], metrics[src]]))
            targets.append(log_values[dst] - log_values[src])
    return np.array(rows), np.array(targets)


class HistoryModel:
    """The fixed prior: an Extra-Trees model over cross-workload pairs."""

    def __init__(
        self,
        rows: np.ndarray,
        targets: np.ndarray,
        n_estimators: int = 15,
        seed: int | None = None,
    ) -> None:
        if rows.shape[0] == 0:
            raise ValueError("history must contain at least one pair")
        self._scaler = StandardScaler().fit(rows)
        self._model = ExtraTreesRegressor(
            n_estimators=n_estimators, min_samples_split=8, seed=seed
        )
        self._model.fit(self._scaler.transform(rows), targets)

    def predict(self, rows: np.ndarray | PairRows) -> np.ndarray:
        """Predicted log performance ratios for pairwise ``rows`` (dense,
        or a :class:`~repro.ml.tree.PairRows` whose factors are scaled
        one by one — the scaler is elementwise per column, so that gives
        the scaled dense rows' floats, bit for bit)."""
        if isinstance(rows, PairRows):
            mean, scale = self._scaler.mean_, self._scaler.scale_
            split = rows.dest.shape[1]
            return self._model.predict(PairRows(
                (rows.dest - mean[:split]) / scale[:split],
                (rows.source - mean[split:]) / scale[split:],
            ))
        return self._model.predict(self._scaler.transform(rows))


class HistoryTreeScorer(PairwiseTreeScorer):
    """The pairwise scorer with the history prior blended into its
    predictions.

    The blend happens in :meth:`score_commit`, the step both paths of
    :meth:`score_group` share (a group of one, as the serial
    :meth:`score` runs, and a stacked group), so both score a round the
    same way.  The prior draws no random numbers, so the per-step seeds
    are drawn in :class:`PairwiseTreeScorer`'s order.

    Attributes:
        history: the fitted :class:`HistoryModel`, or ``None`` to score
            exactly like :class:`PairwiseTreeScorer`.
        prior_strength: how many real measurements the prior is worth.
    """

    history: HistoryModel | None = None
    prior_strength: float = DEFAULT_PRIOR_STRENGTH

    def score_commit(self, pending, tree_predictions=None) -> AcquisitionScores:
        current = super().score_commit(pending, tree_predictions)
        if self.history is None or self.prior_strength == 0:
            return current
        k = pending.index.size
        query = PairRows(
            self._design[np.asarray(pending.unmeasured, dtype=np.int64)],
            np.concatenate([self._design[pending.index], pending.metrics], axis=1),
        )
        ratios = self.history.predict(query).reshape(len(pending.unmeasured), k)
        prior_log = (ratios + pending.log_values[None, :]).mean(axis=1)
        alpha = self.prior_strength / (self.prior_strength + k)
        assert current.predicted is not None
        blended = np.exp(
            alpha * prior_log + (1.0 - alpha) * np.log(current.predicted)
        )
        return AcquisitionScores(scores=prediction_delta(blended), predicted=blended)


class HistoryAugmentedBO(AugmentedBO):
    """Augmented BO with a cross-workload history prior.

    Args:
        environment: the measurement environment for the target workload.
        history: a fitted :class:`HistoryModel` (build it once per history
            trace and share it across searches; pass ``None`` to behave
            exactly like :class:`AugmentedBO`).
        prior_strength: how many real measurements the prior is worth.
        **kwargs: forwarded to :class:`AugmentedBO`.
    """

    name = "history-augmented-bo"
    scorer_class = HistoryTreeScorer

    def __init__(
        self,
        environment,
        *args,
        history: HistoryModel | None = None,
        prior_strength: float = DEFAULT_PRIOR_STRENGTH,
        n_estimators: int = DEFAULT_N_ESTIMATORS,
        **kwargs,
    ) -> None:
        super().__init__(environment, *args, n_estimators=n_estimators, **kwargs)
        if prior_strength < 0:
            raise ValueError(f"prior_strength must be >= 0, got {prior_strength}")
        self._scorer.history = history
        self._scorer.prior_strength = prior_strength
