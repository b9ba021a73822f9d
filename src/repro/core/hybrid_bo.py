"""Hybrid BO — Naive early, Augmented late (paper Section V-B).

Augmented BO has a "slow start": with only the initial design measured,
its pairwise training set is tiny and over-parameterised, so for the
first few acquisitions the GP over plain instance features does better.
The paper sketches (and plots as the blue "Hybrid BO" curve) a method
that combines the best of both: use Naive BO's GP + EI while few VMs are
measured, then switch to the low-level augmented surrogate once enough
low-level observations have accumulated.
"""

from __future__ import annotations

from repro.core.augmented_bo import DEFAULT_N_ESTIMATORS, PairwiseTreeScorer
from repro.core.naive_bo import GPScorer
from repro.core.smbo import AcquisitionScores, SequentialOptimizer
from repro.ml.kernels import Kernel

#: Switch to the augmented surrogate once this many VMs are measured.
DEFAULT_SWITCH_AT = 5


class HybridBO(SequentialOptimizer):
    """GP + EI until ``switch_at`` measurements, then the augmented surrogate.

    Args:
        switch_at: measurement count at which to switch surrogates.
        kernel: kernel for the early-phase GP (default Matérn 5/2).
        n_estimators: ensemble size for the late-phase Extra-Trees.
        refit_fraction: warm-start refit knob for the late-phase
            surrogate; see :class:`~repro.core.augmented_bo.PairwiseTreeScorer`.
        **kwargs: forwarded to :class:`SequentialOptimizer`.
    """

    name = "hybrid-bo"

    def __init__(
        self,
        *args,
        switch_at: int = DEFAULT_SWITCH_AT,
        kernel: Kernel | None = None,
        n_estimators: int = DEFAULT_N_ESTIMATORS,
        refit_fraction: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if switch_at < 1:
            raise ValueError(f"switch_at must be at least 1, got {switch_at}")
        self.switch_at = switch_at
        self._gp_scorer = GPScorer(
            self.design_matrix,
            kernel=kernel,
            seed=int(self._rng.integers(2**31)),
        )
        self._tree_scorer = PairwiseTreeScorer(
            self.design_matrix,
            n_estimators=n_estimators,
            seed=int(self._rng.integers(2**31)),
            refit_fraction=refit_fraction,
        )

    def _round_scorer(self) -> GPScorer | PairwiseTreeScorer:
        if len(self.measured_indices) < self.switch_at:
            return self._gp_scorer
        return self._tree_scorer

    def _suggest_batch(
        self, unmeasured: list[int], q: int
    ) -> tuple[AcquisitionScores, list[int]]:
        # Early phase batches like Naive BO (constant-liar q-EI); the
        # late-phase tree surrogate batches via the base top-q
        # prediction delta (one batched ensemble predict, q argmins).
        scorer = self._round_scorer()
        if scorer is self._gp_scorer:
            return scorer.suggest_batch(
                self.measured_indices, self.measured_values, unmeasured, q, self.liar
            )
        return super()._suggest_batch(unmeasured, q)
