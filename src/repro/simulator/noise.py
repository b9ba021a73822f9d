"""Cloud interference noise.

The paper motivates search-based optimisation over one-shot modelling
partly because cloud measurements are noisy — shared infrastructure causes
performance interference (Section II-D).  We model that as multiplicative
lognormal noise, applied *independently* to the execution time and to each
low-level metric, so that metrics are an informative but imperfect window
into the latent state, as they are on real machines.
"""

from __future__ import annotations

import numpy as np

#: Default relative noise on execution time (a few percent, per CherryPick).
DEFAULT_TIME_SIGMA = 0.03

#: Default relative noise on each low-level metric.
DEFAULT_METRIC_SIGMA = 0.05


class InterferenceModel:
    """Seedable multiplicative-noise generator for one measurement stream.

    Args:
        time_sigma: lognormal sigma applied to execution times.
        metric_sigma: lognormal sigma applied to each low-level metric.
        seed: seed (or Generator) for the noise stream.  Two models built
            from the same seed produce identical noise sequences.
    """

    def __init__(
        self,
        time_sigma: float = DEFAULT_TIME_SIGMA,
        metric_sigma: float = DEFAULT_METRIC_SIGMA,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if time_sigma < 0 or metric_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        self.time_sigma = time_sigma
        self.metric_sigma = metric_sigma
        self._rng = np.random.default_rng(seed)

    def reseed(self, rng: int | np.random.Generator | None) -> None:
        """Replace the noise stream (batched measurements re-seed per task)."""
        self._rng = np.random.default_rng(rng)

    def perturb(
        self, times: np.ndarray, metrics: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``n`` runs' execution times and ``(n, m)`` metric rows
        with one draw of interference noise each.

        The draws come as one standard-normal block of shape ``(n, k)``.
        Row ``i`` holds run ``i``'s draws: its time draw, then its ``m``
        metric draws.  A zero sigma draws nothing, so ``k`` counts only
        the nonzero ones.  That is the order in which runs measured one
        at a time consume the stream, so one block over ``n`` runs equals
        ``n`` one-run calls bit for bit.
        """
        time_draws = 1 if self.time_sigma != 0.0 else 0
        metric_draws = metrics.shape[1] if self.metric_sigma != 0.0 else 0
        if time_draws + metric_draws == 0:
            return times, metrics
        draws = self._rng.standard_normal((len(times), time_draws + metric_draws))
        if time_draws:
            times = times * np.exp(self.time_sigma * draws[:, 0])
        if metric_draws:
            metrics = metrics * np.exp(self.metric_sigma * draws[:, time_draws:])
        return times, metrics
