"""Naive BO — the CherryPick baseline.

Gaussian Process surrogate over the four encoded VM characteristics with
a Matérn 5/2 kernel (CherryPick's choice; any of the paper's four kernels
can be substituted, which is how Figure 7 studies kernel fragility) and
Expected Improvement acquisition.

The surrogate sees *only* the published instance space — no low-level
information — which is the insufficiency the paper demonstrates.
"""

from __future__ import annotations

import numpy as np

from repro.core.acquisition import (
    expected_improvement,
    liar_value,
    lower_confidence_bound,
    max_value_entropy_search,
    probability_of_improvement,
)
from repro.core.smbo import AcquisitionScores, SequentialOptimizer
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import DesignGeometry, Kernel, Matern52
from repro.ml.scaling import StandardScaler

#: Acquisition functions a GP surrogate can drive.  Section III-A lists
#: PI, EI and GP-UCB as the common choices (EI is CherryPick's) and
#: points to entropy-search methods — here max-value entropy search — as
#: promising alternatives.
GP_ACQUISITIONS = ("ei", "pi", "lcb", "mes")


class GPScorer:
    """Fits a GP on measured (encoded VM, objective) pairs and scores an
    acquisition function (Expected Improvement by default).

    Factored out of :class:`NaiveBO` so :class:`~repro.core.hybrid_bo.HybridBO`
    can reuse it verbatim for its early phase.

    The scorer is incremental across BO steps: the pairwise distance
    geometry of the scaled design is tracked by a
    :class:`~repro.ml.kernels.DesignGeometry` that appends one column
    per new measurement, so both the hyperparameter fit and the
    cross-covariance block of the predict reuse cached distances
    instead of recomputing them every step.

    Args:
        design_matrix: full encoded instance space (scaling is fitted on
            it once, so feature scales don't drift as measurements arrive).
        kernel: GP covariance function (cloned per fit).
        acquisition: ``"ei"`` (default), ``"pi"`` or ``"lcb"``.
        seed: seed for the GP's hyperparameter restarts.
    """

    def __init__(
        self,
        design_matrix: np.ndarray,
        kernel: Kernel | None = None,
        acquisition: str = "ei",
        seed: int | None = None,
    ) -> None:
        if acquisition not in GP_ACQUISITIONS:
            raise ValueError(
                f"unknown acquisition {acquisition!r}; known: {GP_ACQUISITIONS}"
            )
        self.acquisition = acquisition
        self._design = np.asarray(design_matrix, dtype=float)
        self._scaler = StandardScaler().fit(self._design)
        self._scaled_design = self._scaler.transform(self._design)
        self._rng = np.random.default_rng(seed)
        self._geometry = DesignGeometry(self._scaled_design)
        # One persistent GP: successive fits warm-start the likelihood
        # optimisation from the previous step's hyperparameters, which
        # keeps per-step cost low without losing adaptivity.
        self._gp = GaussianProcessRegressor(
            kernel=kernel if kernel is not None else Matern52(),
            n_restarts=0,
            seed=int(self._rng.integers(2**31)),
        )

    @property
    def gp(self) -> GaussianProcessRegressor:
        """The underlying GP (exposes fit/eval instrumentation counters)."""
        return self._gp

    @property
    def geometry_stats(self) -> dict[str, int]:
        """Incremental-geometry counters: columns appended vs restarts."""
        return {
            "extensions": self._geometry.extensions,
            "rebuilds": self._geometry.rebuilds,
        }

    @property
    def stackable(self) -> bool:
        """Whether a cross-search driver can batch this scorer's round.

        A driver fits the group's GPs with
        :func:`repro.ml.gp.fit_gps_stacked` (each through the body its
        own ``fit`` runs) and scores them with the row-stacked
        :func:`repro.core.acquisition.expected_improvement_stacked`,
        which reproduces the EI round bit for bit; the other
        acquisitions (PI/LCB/MES — MES draws from the scorer RNG) fall
        back to the per-search loop.
        """
        return self.acquisition == "ei"

    def fit_inputs(
        self, measured: list[int], values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, object]:
        """This round's GP training inputs ``(X, y, fit geometry)``.

        What :meth:`score` hands to ``gp.fit`` —
        exposed so a cross-search driver can fit many scorers' GPs in
        one call (:func:`repro.ml.gp.fit_gps_stacked`).
        """
        return (
            self._scaled_design[measured],
            values,
            self._geometry.fit_geometry(measured),
        )

    def posterior(
        self, measured: list[int], unmeasured: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate posterior ``(mean, std)`` from the already-fitted GP."""
        return self._gp.predict(
            self._scaled_design[unmeasured],
            return_std=True,
            geometry=self._geometry.cross_geometry(unmeasured, measured),
        )

    def score(
        self, measured: list[int], values: np.ndarray, unmeasured: list[int]
    ) -> AcquisitionScores:
        """Fit on the measured rows and return EI scores for the rest."""
        # Reuse the incrementally grown distance geometry for both the
        # fit and the cross-covariance block of the predict.
        X, y, geometry = self.fit_inputs(measured, values)
        self._gp.fit(X, y, geometry=geometry)
        mean, std = self.posterior(measured, unmeasured)
        scores, ei = self._scores_from_posterior(mean, std, float(values.min()))
        return AcquisitionScores(scores=scores, predicted=mean, expected_improvements=ei)

    def _scores_from_posterior(
        self, mean: np.ndarray, std: np.ndarray, incumbent: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Acquisition scores (and EI) from one posterior over candidates."""
        ei = expected_improvement(mean, std, incumbent)
        if self.acquisition == "ei":
            scores = ei
        elif self.acquisition == "pi":
            scores = probability_of_improvement(mean, std, incumbent)
        elif self.acquisition == "lcb":
            scores = lower_confidence_bound(mean, std)
        else:
            scores = max_value_entropy_search(mean, std, self._rng)
        return scores, ei

    def suggest_batch(
        self,
        measured: list[int],
        values: np.ndarray,
        unmeasured: list[int],
        q: int,
        liar: str = "min",
    ) -> tuple[AcquisitionScores, list[int]]:
        """Constant-liar q-point suggestion (Ginsbourger et al.).

        The first pick is the plain acquisition argmax — bit-identical
        to :meth:`score` (q=1 returns before any fantasy work).  Each
        further pick fantasizes the previous one at the liar value and
        re-conditions the GP on *warm* hyperparameters (``optimise`` is
        suspended, so no likelihood refit per fantasy), and the
        shrinking candidate set is rescored through the same
        incremental distance geometry as :meth:`score`, appending one
        fantasy column per pick instead of rebuilding distances.
        """
        acquisition = self.score(measured, values, unmeasured)
        picked = [unmeasured[int(np.argmax(acquisition.scores))]]
        if q <= 1 or len(unmeasured) <= 1:
            return acquisition, picked
        gp = self._gp
        lie = liar_value(values, liar)
        fant_measured = list(measured)
        fant_values = np.asarray(values, dtype=float).ravel()
        remaining = [i for i in unmeasured if i != picked[0]]
        saved_optimise = gp.optimise
        gp.optimise = False
        try:
            while len(picked) < q and remaining:
                fant_measured.append(picked[-1])
                fant_values = np.append(fant_values, lie)
                gp.fit(
                    self._scaled_design[fant_measured],
                    fant_values,
                    geometry=self._geometry.fit_geometry(fant_measured),
                )
                mean, std = gp.predict(
                    self._scaled_design[remaining],
                    return_std=True,
                    geometry=self._geometry.cross_geometry(remaining, fant_measured),
                )
                scores, _ = self._scores_from_posterior(
                    mean, std, float(fant_values.min())
                )
                picked.append(remaining.pop(int(np.argmax(scores))))
        finally:
            gp.optimise = saved_optimise
        return acquisition, picked


class NaiveBO(SequentialOptimizer):
    """CherryPick-style Bayesian optimisation (the paper's baseline).

    Args:
        kernel: covariance function; defaults to Matérn 5/2.
        acquisition: ``"ei"`` (CherryPick's choice, default), ``"pi"`` or
            ``"lcb"``.
        **kwargs: forwarded to :class:`SequentialOptimizer`.
    """

    name = "naive-bo"

    def __init__(
        self,
        *args,
        kernel: Kernel | None = None,
        acquisition: str = "ei",
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._scorer = GPScorer(
            self.design_matrix,
            kernel=kernel,
            acquisition=acquisition,
            seed=int(self._rng.integers(2**31)),
        )

    def _score_candidates(self, unmeasured: list[int]) -> AcquisitionScores:
        return self._scorer.score(self.measured_indices, self.measured_values, unmeasured)

    def _round_scorer(self) -> GPScorer:
        return self._scorer

    def _suggest_batch(
        self, unmeasured: list[int], q: int
    ) -> tuple[AcquisitionScores, list[int]]:
        return self._scorer.suggest_batch(
            self.measured_indices, self.measured_values, unmeasured, q, self.liar
        )
