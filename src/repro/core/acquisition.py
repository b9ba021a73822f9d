"""Acquisition functions (all for minimisation).

Every function returns *scores to maximise*: the optimiser measures the
candidate with the highest score next.

* :func:`expected_improvement` — CherryPick's (and Naive BO's) choice.
* :func:`probability_of_improvement` — the classic PI alternative.
* :func:`lower_confidence_bound` — GP-LCB (the minimisation form of
  GP-UCB) for completeness.
* :func:`prediction_delta` — Augmented BO's choice: simply pick the VM
  with the best *predicted* objective.  The paper prefers it because EI
  is meaningless when the surrogate's uncertainty estimate is (kernel-)
  misspecified; prediction delta needs only a point prediction and
  doubles as a stopping signal.

Batch (q-point) helpers: :func:`top_q_indices` turns one score vector
into the q distinct best candidates (top-q prediction delta when the
scores are ``prediction_delta`` — one batched ensemble predict, q
argmins), and :func:`liar_value` maps a constant-liar strategy name to
the fantasy observation value used by the GP path's q-EI.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12
_SQRT_2PI = np.sqrt(2 * np.pi)

# scipy.special, imported by the first _special() call: prediction
# delta (Augmented BO's acquisition) never needs it, and a GP build has
# usually loaded it already (repro.ml.gp._load_scipy).
_SPECIAL = None


def _special():
    global _SPECIAL
    if _SPECIAL is None:
        from scipy import special

        _SPECIAL = special
    return _SPECIAL


# The standard normal's cdf, pdf and log survival function, evaluated
# exactly as scipy.stats.norm does for loc=0, scale=1 (bit for bit; the
# one exception is logsf(-inf), -0.0 here and +0.0 there), but without
# its per-call argument handling, which costs ~60x the ufunc on the
# handful of candidates a search scores.
def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return _special().ndtr(x)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    # Arithmetic carries a NaN's sign and payload through (and -x**2
    # flips the sign); scipy.stats returns the canonical quiet NaN.
    return np.where(np.isnan(x), np.nan, np.exp(-x**2 / 2.0) / _SQRT_2PI)


def _norm_logsf(x: np.ndarray) -> np.ndarray:
    return _special().log_ndtr(-x)


def _validate(mean: np.ndarray, std: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    mean = np.asarray(mean, dtype=float).ravel()
    if std is None:
        return mean, None
    std = np.asarray(std, dtype=float).ravel()
    if std.shape != mean.shape:
        raise ValueError(f"mean shape {mean.shape} != std shape {std.shape}")
    if np.any(std < 0):
        raise ValueError("std must be non-negative")
    return mean, std


def _improvement_to_ei(improvement: np.ndarray, std: np.ndarray) -> np.ndarray:
    """EI from ``best - mean`` and ``std`` of the same shape, elementwise.

    The one EI formula behind :func:`expected_improvement` and
    :func:`expected_improvement_stacked`.
    """
    ei = np.maximum(improvement, 0.0)
    positive = std > _EPS
    z = improvement[positive] / std[positive]
    ei[positive] = improvement[positive] * _norm_cdf(z) + std[positive] * _norm_pdf(z)
    return np.maximum(ei, 0.0)


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best_observed: float
) -> np.ndarray:
    """EI of each candidate over the incumbent ``best_observed`` (minimising).

    Candidates with zero posterior std get their deterministic
    improvement, ``max(best - mean, 0)``.
    """
    mean, std = _validate(mean, std)
    assert std is not None
    return _improvement_to_ei(best_observed - mean, std)


def expected_improvement_stacked(
    mean: np.ndarray, std: np.ndarray, best_observed: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`expected_improvement` for ``S`` searches at once.

    Args:
        mean: ``(S, u)`` posterior means, one row per search.
        std: ``(S, u)`` posterior standard deviations.
        best_observed: ``S`` incumbents, one per search.

    Row ``s`` of the result is bit-identical to
    ``expected_improvement(mean[s], std[s], best_observed[s])``: both
    run the same elementwise formula, and the boolean ``std > _EPS``
    mask flattens both layouts into the same per-element operands, so
    the normal cdf/pdf are evaluated in one dispatch instead of ``S``.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    best = np.asarray(best_observed, dtype=float).ravel()
    if mean.ndim != 2 or std.shape != mean.shape:
        raise ValueError(
            f"mean shape {mean.shape} and std shape {std.shape} must match 2-D"
        )
    if best.shape[0] != mean.shape[0]:
        raise ValueError(
            f"got {best.shape[0]} incumbents for {mean.shape[0]} rows"
        )
    if np.any(std < 0):
        raise ValueError("std must be non-negative")
    return _improvement_to_ei(best[:, None] - mean, std)


def probability_of_improvement(
    mean: np.ndarray, std: np.ndarray, best_observed: float
) -> np.ndarray:
    """Probability that each candidate improves on ``best_observed``."""
    mean, std = _validate(mean, std)
    assert std is not None
    improvement = best_observed - mean
    pi = (improvement > 0).astype(float)
    positive = std > _EPS
    pi[positive] = _norm_cdf(improvement[positive] / std[positive])
    return pi


def lower_confidence_bound(
    mean: np.ndarray, std: np.ndarray, kappa: float = 2.0
) -> np.ndarray:
    """Negated GP-LCB: score = -(mean - kappa * std).

    Maximising this score measures the candidate whose optimistic
    (lower-confidence) estimate is best.

    Raises:
        ValueError: if ``kappa`` is negative.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    mean, std = _validate(mean, std)
    assert std is not None
    return -(mean - kappa * std)


def prediction_delta(mean: np.ndarray) -> np.ndarray:
    """Negated point prediction: the candidate with the best estimate wins."""
    mean, _ = _validate(mean)
    return -mean


#: Constant-liar strategies for batched q-EI (Ginsbourger et al.):
#: the fantasy value assumed for a picked-but-unmeasured point is the
#: min (optimistic, spreads the batch), mean, or max (pessimistic,
#: clusters the batch) of the values observed so far.
LIAR_STRATEGIES = ("min", "mean", "max")


def liar_value(values: np.ndarray, strategy: str) -> float:
    """The constant-liar fantasy observation for ``strategy``.

    Raises:
        ValueError: on an unknown strategy or no observed values.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("liar_value needs at least one observed value")
    if strategy == "min":
        return float(values.min())
    if strategy == "mean":
        return float(values.mean())
    if strategy == "max":
        return float(values.max())
    raise ValueError(
        f"unknown liar strategy {strategy!r}; known: {LIAR_STRATEGIES}"
    )


def top_q_indices(scores: np.ndarray, q: int) -> list[int]:
    """Positions of the ``q`` highest scores, best first.

    Ties resolve to the lowest position (stable sort), so the first
    element always equals ``argmax(scores)`` — a q=1 batch picks exactly
    what the sequential loop would.  Returns fewer than ``q`` positions
    when there are fewer candidates.

    Raises:
        ValueError: if ``q`` is not positive.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    scores = np.asarray(scores, dtype=float).ravel()
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order[:q]]


def _sample_min_values(
    mean: np.ndarray, std: np.ndarray, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    """Sample plausible global-minimum values via a Gumbel approximation.

    Approximates ``P(min f > y) = prod_i (1 - Phi((y - mu_i) / sigma_i))``
    over the candidate set, locates its 25/50/75% quantiles by bisection,
    fits a (negated) Gumbel to them, and draws ``n_samples`` minima.
    """
    lower = float(np.min(mean - 6.0 * std))
    upper = float(np.min(mean))  # the min cannot exceed the best mean

    def prob_min_above(y: float) -> float:
        z = (y - mean) / np.maximum(std, _EPS)
        return float(np.exp(np.sum(_norm_logsf(z))))

    def quantile(p: float) -> float:
        lo, hi = lower, upper
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            # P(min < mid) = 1 - P(min > mid)
            if 1.0 - prob_min_above(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    q25, q50, q75 = quantile(0.25), quantile(0.50), quantile(0.75)
    # Fit a Gumbel (for minima) via the quartile method.
    beta = max((q75 - q25) / (np.log(np.log(4.0)) - np.log(np.log(4.0 / 3.0))), _EPS)
    loc = q50 + beta * np.log(np.log(2.0))
    uniform = np.clip(rng.uniform(size=n_samples), 1e-12, 1.0 - 1e-12)
    return loc - beta * np.log(-np.log(uniform))


def max_value_entropy_search(
    mean: np.ndarray,
    std: np.ndarray,
    rng: np.random.Generator | int | None = None,
    n_samples: int = 16,
) -> np.ndarray:
    """Max-value entropy search (MES, Wang & Jegelka 2017), minimisation form.

    Scores each candidate by the expected reduction in entropy of the
    optimum's *value*: with ``gamma = (mu - y*) / sigma`` for each sampled
    optimum value ``y*`` (the minimisation transform of Wang & Jegelka's
    maximisation form),

    ``alpha = E_{y*}[ gamma phi(gamma) / (2 Phi(gamma)) - log Phi(gamma) ]``.

    The paper's Section III-A points to entropy-search methods as
    promising alternatives to EI; this is the cheap, finite-candidate
    variant.

    Raises:
        ValueError: if ``n_samples`` is not positive.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    mean, std = _validate(mean, std)
    assert std is not None
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    if np.all(std <= _EPS):
        # Degenerate posterior: fall back to pure exploitation.
        return prediction_delta(mean)

    minima = _sample_min_values(mean, std, rng, n_samples)
    safe_std = np.maximum(std, _EPS)
    gamma = (mean[:, None] - minima[None, :]) / safe_std[:, None]
    cdf = np.clip(_norm_cdf(gamma), 1e-12, 1.0)
    alpha = gamma * _norm_pdf(gamma) / (2.0 * cdf) - np.log(cdf)
    scores = alpha.mean(axis=1)
    # Deterministic candidates can gain no information.
    scores[std <= _EPS] = 0.0
    return scores
