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
    expected_improvement_stacked,
    liar_value,
    lower_confidence_bound,
    max_value_entropy_search,
    probability_of_improvement,
)
from repro.core.smbo import AcquisitionScores, SequentialOptimizer
from repro.ml.gp import GaussianProcessRegressor, fit_gps_stacked
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
        acquisition: ``"ei"`` (default), ``"pi"``, ``"lcb"`` or ``"mes"``.
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

    def score(
        self,
        measured: list[int],
        values: np.ndarray,
        measurements: object,
        unmeasured: list[int],
    ) -> AcquisitionScores:
        """Fit on the measured rows and score the rest.

        :meth:`score_group` for a group of one.  Every scorer takes the
        same ``(measured, values, measurements, unmeasured)`` round; a GP
        does not read ``measurements``.
        """
        return self.score_group(
            [self], [(measured, values, measurements, unmeasured)]
        )[0]

    def group_key(self, measured, values, measurements, unmeasured) -> tuple:
        """The group this round can be scored in: one training-set size
        and one candidate-set size, so the posteriors stack into one EI
        pass."""
        return ("gp", len(measured), len(unmeasured))

    @staticmethod
    def score_group(
        scorers: list[GPScorer],
        rounds: list[tuple[list[int], np.ndarray, object, list[int]]],
    ) -> list[AcquisitionScores]:
        """Score one round of each scorer's search, as one group.

        ``rounds[i]`` is ``scorers[i]``'s ``(measured, values,
        measurements, unmeasured)``; the rounds share one
        :meth:`group_key`.  The GPs are fitted as one lock-step group
        (:func:`repro.ml.gp.fit_gps_stacked`), each posterior comes from
        its own GP through the scorer's incremental distance geometry,
        EI is computed for every row in one
        :func:`~repro.core.acquisition.expected_improvement_stacked`
        call, and then each scorer applies its own acquisition to its
        row (MES draws from that scorer's RNG only).  Each scorer ends
        exactly as it would scored alone.
        """
        pairs = list(zip(scorers, rounds))
        fit_gps_stacked(
            [scorer._gp for scorer in scorers],
            [scorer._scaled_design[measured] for scorer, (measured, *_) in pairs],
            [values for _, values, _, _ in rounds],
            [
                scorer._geometry.fit_geometry(measured)
                for scorer, (measured, *_) in pairs
            ],
        )
        posteriors = [
            scorer._gp.predict(
                scorer._scaled_design[unmeasured],
                return_std=True,
                geometry=scorer._geometry.cross_geometry(unmeasured, measured),
            )
            for scorer, (measured, _, _, unmeasured) in pairs
        ]
        means = np.stack([mean for mean, _ in posteriors])
        stds = np.stack([std for _, std in posteriors])
        incumbents = np.array([float(values.min()) for _, values, _, _ in rounds])
        ei = expected_improvement_stacked(means, stds, incumbents)
        return [
            AcquisitionScores(
                scores=scorer._acquisition(
                    means[row], stds[row], incumbents[row], ei[row]
                ),
                predicted=means[row],
                expected_improvements=ei[row],
            )
            for row, scorer in enumerate(scorers)
        ]

    def _acquisition(
        self, mean: np.ndarray, std: np.ndarray, incumbent: float, ei: np.ndarray
    ) -> np.ndarray:
        """This scorer's acquisition over one posterior, given its EI."""
        if self.acquisition == "ei":
            return ei
        if self.acquisition == "pi":
            return probability_of_improvement(mean, std, incumbent)
        if self.acquisition == "lcb":
            return lower_confidence_bound(mean, std)
        return max_value_entropy_search(mean, std, self._rng)

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
        acquisition = self.score(measured, values, None, unmeasured)
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
                incumbent = float(fant_values.min())
                scores = self._acquisition(
                    mean, std, incumbent, expected_improvement(mean, std, incumbent)
                )
                picked.append(remaining.pop(int(np.argmax(scores))))
        finally:
            gp.optimise = saved_optimise
        return acquisition, picked


class NaiveBO(SequentialOptimizer):
    """CherryPick-style Bayesian optimisation (the paper's baseline).

    Args:
        kernel: covariance function; defaults to Matérn 5/2.
        acquisition: ``"ei"`` (CherryPick's choice, default), ``"pi"``,
            ``"lcb"`` or ``"mes"``.
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

    def _round_scorer(self) -> GPScorer:
        return self._scorer

    def _suggest_batch(
        self, unmeasured: list[int], q: int
    ) -> tuple[AcquisitionScores, list[int]]:
        return self._scorer.suggest_batch(
            self.measured_indices, self.measured_values, unmeasured, q, self.liar
        )
