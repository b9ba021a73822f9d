"""Gaussian Process regression, from scratch.

This is the surrogate of Naive BO (CherryPick): a GP prior over the
objective with one of the four kernels of :mod:`repro.ml.kernels`.
The implementation follows Rasmussen & Williams Algorithm 2.1:

* Cholesky factorisation of ``K + sigma_n^2 I`` (with jitter escalation if
  the matrix is numerically indefinite),
* hyperparameters (kernel theta and the noise level) fitted by maximising
  the log marginal likelihood with multi-restart L-BFGS-B in log space,
* targets are standardised internally so priors are scale-free.

Hyperparameter fitting is the hot path.  One fused evaluation per
L-BFGS-B iteration returns the log marginal likelihood *and* its
gradient (Rasmussen & Williams Eq. 5.9,
``d lml/d theta = 1/2 tr((alpha alpha^T - K^-1) dK/d theta)``) from a
single Cholesky factorisation, with ``dK/d theta`` computed analytically
from a pairwise squared-distance geometry that is cached once per fit
and merely rescaled by ``1/lengthscale**2`` per evaluation.  The jitter
level that last made the Cholesky succeed is memoised across
evaluations of one fit so escalation is not replayed.  Every shipped
kernel implements :meth:`~repro.ml.kernels.Kernel.value_and_grad`.

The matrices are tiny (one row per measured VM, so at most a few dozen),
which makes scipy.linalg's per-call wrapper work — finiteness scans,
batch dispatch, shape checks, routine lookup — cost more than LAPACK
itself.  Every factorisation and solve therefore goes straight to the
``potrf`` / ``potrs`` / ``trtrs`` handles, fetched once per process, with
the flags scipy's ``cholesky`` / ``cho_solve`` / ``solve_triangular``
pass: the results are bit-identical.  The wrappers' checks move to
where they are needed: a non-finite matrix is rejected once before its
jitter ladder, the targets once per fit, the cross-covariance once per
predict.

The optimiser gets the same treatment.  ``scipy.optimize.minimize``
spends more on its per-start set-up and per-evaluation wrappers than
L-BFGS-B spends iterating, so each start drives the ``setulb`` handle
(fetched once with the LAPACK ones) through the loop ``minimize`` runs,
evaluation for evaluation: the fitted hyperparameters are
bit-identical.  ``setulb`` is private scipy API, so the package needs
scipy >= 1.17, and a test pins the loop against ``minimize``.

The optimiser is split at the evaluation boundary: each start is a
generator (``_lbfgsb_steps``) that yields the point it wants evaluated
and takes the value and gradient back.  :func:`fit_gps_stacked` fits a
group of GPs (a GP scorer's round, alone or in a vectorized-driver
group), and :meth:`fit` runs as a group of one, through one private
body: every round takes the pending hyperparameters of each
unfinished GP and evaluates them together.  No
GP's evaluation sequence depends on another's, so L-BFGS-B's
data-dependent step counts only decide when a GP leaves the group.  The
isotropic kernels of one class and size share one kernel and gradient
pass over the ``(B, n, n)`` stack of their distance geometries, and the
Eq. 5.9 reductions that sum in the same order stacked as alone run over
the stack; the Cholesky factorisations, the solves and the ``y @ alpha``
data fit stay per matrix.  A group ends bit-identical to per-GP fits.

scipy is imported when the first :class:`GaussianProcessRegressor` is
built, never when this module is: Arrow's own searches fit no GP, and
loading ``scipy.linalg`` / ``optimize`` / ``special`` costs a process
~0.5 s and ~40 MB.  Building the GP (not its first fit) keeps the
import out of every timed search step.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.ml.kernels import (
    Geometry,
    Kernel,
    Matern52,
    stack_kind,
    stacked_value_and_grad,
)

_JITTERS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
_LOG_2PI = np.log(2.0 * np.pi)

# The double-precision LAPACK routines scipy.linalg resolves on every
# cholesky / cho_solve / solve_triangular call, and the L-BFGS-B
# iteration scipy.optimize.minimize drives: bound once per process by
# _load_scipy().
_potrf = _potrs = _trtrs = _setulb = None

# scipy.optimize.minimize(method="L-BFGS-B")'s defaults, as scipy's
# _minimize_lbfgsb hands them to setulb.
_LBFGSB_M = 10
_LBFGSB_MAXLS = 20
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXITER = _LBFGSB_MAXFUN = 15000
_TASK_NEW_X, _TASK_FG, _TASK_STOP = 1, 3, 5


def _load_scipy() -> None:
    """Import what a GP needs from scipy, once per process.

    ``scipy.special`` comes along because the GP methods score with
    expected improvement (:mod:`repro.core.acquisition` then finds it
    loaded).  A forked worker inherits whatever its parent loaded.
    """
    global _potrf, _potrs, _trtrs, _setulb
    if _setulb is not None:
        return
    import scipy.special  # noqa: F401
    from scipy.linalg import get_lapack_funcs
    from scipy.optimize._lbfgsb import setulb

    _potrf, _potrs, _trtrs = get_lapack_funcs(
        ("potrf", "potrs", "trtrs"), dtype=np.float64
    )
    _setulb = setulb


def _lbfgsb_steps(
    start: np.ndarray, bounds: np.ndarray
) -> Generator[np.ndarray, tuple[float, np.ndarray], tuple[np.ndarray, float]]:
    """L-BFGS-B within ``bounds``, one objective evaluation at a time.

    A generator: it yields each point to evaluate (its own copy) and
    takes back ``(f, grad)`` there, so a caller can evaluate many
    optimisations' points together without reordering any one's.
    Evaluation for evaluation it is what ``scipy.optimize.minimize(
    objective, start, method="L-BFGS-B", jac=True, bounds=bounds)``
    does under scipy 1.17, minus its per-call set-up and per-evaluation
    wrappers: the start is clipped into the bounds and evaluated once,
    and every later ``setulb`` request for ``f`` and ``g`` evaluates
    only when ``x`` moved.

    Args:
        start: the starting point.
        bounds: ``(n, 2)`` finite ``[low, high]`` rows.

    Returns:
        (as the generator's return value) ``(x, f)`` — what
        ``result.x`` and ``result.fun`` would hold.

    Raises:
        ValueError: on non-finite bounds or a low bound above its high.
    """
    low, high = np.ascontiguousarray(bounds.T, dtype=np.float64)
    if not (np.isfinite(bounds).all() and (low <= high).all()):
        raise ValueError("L-BFGS-B bounds must be finite with low <= high")
    m, n = _LBFGSB_M, low.size
    x = np.clip(start, low, high)
    x_seen = x.copy()
    f_seen, g_seen = yield x_seen
    n_evals, n_iterations = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    nbd = np.full(n, 2, dtype=np.int32)  # both bounds active
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    while True:
        g = g.astype(np.float64)
        _setulb(
            m, x, low, high, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL,
            wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task,
        )
        if task[0] == _TASK_FG:
            if (x != x_seen).any():
                x_seen = x.copy()
                f_seen, g_seen = yield x_seen
                n_evals += 1
            f, g = f_seen, g_seen
        elif task[0] == _TASK_NEW_X:
            # 504 and 502: scipy's iteration- and evaluation-limit stops.
            n_iterations += 1
            if n_iterations >= _LBFGSB_MAXITER:
                task[:] = _TASK_STOP, 504
            elif n_evals > _LBFGSB_MAXFUN:
                task[:] = _TASK_STOP, 502
        else:
            return x, f


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must not contain infs or NaNs")


def _cholesky_with_jitter(K: np.ndarray, start: int = 0) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor of ``K``, escalating diagonal jitter as needed.

    Args:
        K: the (symmetric) matrix to factor; never mutated.
        start: index into the jitter ladder to start from — pass the
            index a previous factorisation of a nearby matrix succeeded
            at to skip re-escalating through jitters known to fail.

    Returns:
        ``(L, index)`` — the factor and the jitter index that succeeded.

    Raises:
        ValueError: if ``K`` holds infs or NaNs.
        np.linalg.LinAlgError: if ``K`` stays indefinite even at the
            largest jitter.
    """
    _load_scipy()
    _require_finite(K, "covariance matrix")
    n = K.shape[0]
    for index in range(start, len(_JITTERS)):
        jittered = K.copy()
        jittered.flat[:: n + 1] += _JITTERS[index]
        L = _factor(jittered)
        if L is not None:
            return L, index
    raise np.linalg.LinAlgError("covariance matrix is not positive definite")


def _factor(jittered: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``jittered``; ``None`` if not positive definite.

    Calls ``potrf`` as ``scipy.linalg.cholesky(jittered, lower=True)``
    does, minus its finiteness check.
    """
    L, info = _potrf(jittered, lower=True, clean=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return L if info == 0 else None


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``K^-1 b`` from the lower Cholesky factor ``L`` of ``K``.

    Exactly ``scipy.linalg.cho_solve((L, True), b)`` minus its
    finiteness checks: ``L`` comes from :func:`_cholesky_with_jitter`
    and callers check ``b``.  ``b`` is never overwritten.
    """
    _load_scipy()
    x, info = _potrs(L, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L^-1 b`` for lower-triangular ``L``.

    Exactly ``scipy.linalg.solve_triangular(L, b, lower=True)`` minus
    its finiteness checks, including its branch for C-ordered factors
    (which it solves as the transposed upper system).
    """
    _load_scipy()
    if L.flags.f_contiguous:
        x, info = _trtrs(L, b, lower=True, trans=0, unitdiag=False)
    else:
        x, info = _trtrs(L.T, b, lower=False, trans=1, unitdiag=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular factor at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return x


class GaussianProcessRegressor:
    """GP regression with marginal-likelihood hyperparameter fitting.

    Args:
        kernel: covariance function; defaults to Matérn 5/2 (CherryPick's
            choice).  The instance is cloned, never mutated.
        noise: initial observation-noise variance.
        optimise: whether to fit hyperparameters at :meth:`fit` time.
        n_restarts: extra random restarts for the likelihood optimisation.
        seed: seed for restart sampling.

    Attributes:
        n_fits: :meth:`fit` calls so far (instrumentation).
        n_lml_evals: log-marginal-likelihood evaluations so far.
        n_kernel_builds: kernel-matrix constructions so far — one per
            likelihood evaluation plus one per conditioning.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise: float = 1e-4,
        optimise: bool = True,
        n_restarts: int = 2,
        seed: int | None = None,
    ) -> None:
        if noise <= 0:
            raise ValueError("noise must be positive")
        _load_scipy()
        self.kernel = (kernel if kernel is not None else Matern52()).clone()
        self.noise = float(noise)
        self.optimise = optimise
        self.n_restarts = n_restarts
        self._rng = np.random.default_rng(seed)
        self._X: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._eye: np.ndarray | None = None
        self._fit_jitter = 0
        self.n_fits = 0
        self.n_lml_evals = 0
        self.n_kernel_builds = 0

    # -- fitting -----------------------------------------------------------

    def fit(
        self, X: np.ndarray, y: np.ndarray, geometry: Geometry | None = None
    ) -> GaussianProcessRegressor:
        """Fit the GP to observations ``(X, y)``.

        Runs as a group of one through the body :func:`fit_gps_stacked`
        runs.

        Args:
            X: ``(n, d)`` design matrix.
            y: ``n`` observed targets.
            geometry: optional precomputed pairwise distance geometry of
                ``X`` (shape ``(n, n)``, self-pair) — callers that track
                distances incrementally across fits pass it to skip the
                per-fit rebuild.

        Raises:
            ValueError: on empty, mismatched or non-finite inputs, or a
                geometry whose shape disagrees with ``X``.
        """
        _fit_group([self], [X], [y], [geometry])
        return self

    def _condition(self, y_scaled: np.ndarray, geometry: Geometry) -> None:
        """Factor the kernel matrix at the current hyperparameters."""
        assert self._X is not None
        n = self._X.shape[0]
        self.n_kernel_builds += 1
        K = self.kernel.value(geometry)
        K.flat[:: n + 1] += self.noise
        self._L = _cholesky_with_jitter(K)[0]
        self._alpha = _cho_solve(self._L, y_scaled)

    def _packed_theta(self) -> np.ndarray:
        return np.concatenate([self.kernel.theta, np.log([self.noise])])

    def _set_packed_theta(self, theta: np.ndarray) -> None:
        self.kernel.theta = theta[:-1]
        self.noise = float(np.exp(theta[-1]))

    def _packed_bounds(self) -> np.ndarray:
        noise_bounds = np.log([[1e-8, 1e1]])
        return np.vstack([self.kernel.bounds, noise_bounds])

    def log_marginal_likelihood(self, y_scaled: np.ndarray) -> float:
        """Log marginal likelihood at the current hyperparameters.

        The value-only reference of the fused :meth:`_lml_value_and_grad`
        (which the optimiser uses); it evaluates the kernel directly.
        """
        assert self._X is not None
        _require_finite(y_scaled, "standardised targets")
        self.n_lml_evals += 1
        self.n_kernel_builds += 1
        n = self._X.shape[0]
        K = self.kernel(self._X)
        K.flat[:: n + 1] += self.noise
        try:
            L, _ = _cholesky_with_jitter(K)
        except np.linalg.LinAlgError:
            return -np.inf
        alpha = _cho_solve(L, y_scaled)
        return float(
            -0.5 * y_scaled @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )

    def _lml_value_and_grad(
        self, theta: np.ndarray, y_scaled: np.ndarray, geometry: Geometry
    ) -> tuple[float, np.ndarray]:
        """Fused log marginal likelihood and gradient at packed ``theta``.

        The group-of-one case of :func:`_group_lml`: one kernel build
        and one Cholesky, and the gradient reuses the factorisation
        through Rasmussen & Williams Eq. 5.9.  Leaves the kernel and
        the noise at ``theta``.
        """
        return _group_lml([(self, theta, y_scaled, geometry)])[0]

    def _lml_from_kernel(
        self, K: np.ndarray, K_grad: np.ndarray, y_scaled: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """:func:`_lml_stack` for one matrix, without the stacking.

        ``K`` is the noisy ``(n, n)`` kernel matrix at ``self.noise`` and
        ``K_grad`` its ``(P, n, n)`` gradient; every operation is the one
        a slice of :func:`_lml_stack` performs, so both end in the same
        bits.  It exists for speed: the stack's allocations, jitter and
        noise vectors and axis reductions cost ~8 µs more per lone
        evaluation (27 against 19 µs at n = 5), which put paper-grid's
        single-search ``step_ms_p90`` ~13% above this path's.
        """
        assert self._eye is not None
        n = K.shape[0]
        try:
            L, self._fit_jitter = _cholesky_with_jitter(K, start=self._fit_jitter)
        except np.linalg.LinAlgError:
            return -np.inf, np.zeros(K_grad.shape[0] + 1)
        alpha = _cho_solve(L, y_scaled)
        lml = float(
            -0.5 * y_scaled @ alpha
            - np.log(L.diagonal()).sum()
            - 0.5 * n * _LOG_2PI
        )
        inner = alpha[:, None] * alpha - _cho_solve(L, self._eye)
        grad = np.empty(K_grad.shape[0] + 1)
        grad[:-1] = 0.5 * np.einsum("ij,pij->p", inner, K_grad)
        grad[-1] = 0.5 * self.noise * inner.trace()
        return lml, grad

    def _optimise_hyperparameters(
        self, y_scaled: np.ndarray, geometry: Geometry
    ) -> Generator[np.ndarray, tuple[float, np.ndarray], None]:
        """Maximise the likelihood by multi-restart L-BFGS-B in log space.

        A generator over the starts' :func:`_lbfgsb_steps`, one after
        another: it yields each packed ``theta`` to evaluate, takes back
        the *negative* log marginal likelihood and its gradient there,
        and sets the best start's hyperparameters when it ends.  The
        restarts are drawn on the first step, before any evaluation.
        """
        assert self._X is not None
        bounds = self._packed_bounds()
        starts = [self._packed_theta()]
        for _ in range(self.n_restarts):
            starts.append(self._rng.uniform(bounds[:, 0], bounds[:, 1]))
        n = self._X.shape[0]
        # One identity per fit, shared by every K^-1 solve of the
        # optimisation — no per-evaluation np.eye allocations.
        if self._eye is None or self._eye.shape[0] != n:
            self._eye = np.eye(n)
        self._fit_jitter = 0
        best_theta, best_value = starts[0], np.inf
        for start in starts:
            theta, value = yield from _lbfgsb_steps(start, bounds)
            if value < best_value:
                best_theta, best_value = theta, float(value)
        self._set_packed_theta(best_theta)

    # -- prediction --------------------------------------------------------

    def predict(
        self,
        X: np.ndarray,
        return_std: bool = False,
        geometry: Geometry | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and optionally standard deviation) at ``X``.

        Args:
            X: ``(m, d)`` query rows.
            geometry: optional precomputed cross geometry between ``X``
                and the training rows (shape ``(m, n)``) — callers that
                track distances incrementally pass it so the
                cross-covariance block is rescaled, not recomputed.

        Raises:
            RuntimeError: if called before :meth:`fit`.
            ValueError: on a geometry whose shape disagrees with the
                query and training rows.
        """
        if self._X is None or self._L is None or self._alpha is None:
            raise RuntimeError("GP must be fitted before predict")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)

        if geometry is not None:
            if geometry.shape != (X.shape[0], self._X.shape[0]):
                raise ValueError(
                    f"geometry shape {geometry.shape} does not match "
                    f"({X.shape[0]}, {self._X.shape[0]})"
                )
            K_star = self.kernel.value(geometry)
        else:
            K_star = self.kernel(X, self._X)
        mean = K_star @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean

        _require_finite(K_star, "cross-covariance")
        v = _solve_lower(self._L, K_star.T)
        var = self.kernel.diag(X) + self.noise - np.sum(v**2, axis=0)
        std = np.sqrt(np.maximum(var, 0.0)) * self._y_std
        return mean, std


def _fit_inputs(
    X: np.ndarray, y: np.ndarray, geometry: Geometry | None
) -> tuple[np.ndarray, float, float, np.ndarray, Geometry]:
    """Validated ``(X, y mean, y std, standardised y, fit geometry)``.

    Raises:
        ValueError: on empty, mismatched or non-finite inputs, or a
            geometry whose shape disagrees with ``X``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit a GP on zero observations")
    n = X.shape[0]
    if geometry is not None and geometry.shape != (n, n):
        raise ValueError(f"geometry shape {geometry.shape} does not match {n} rows")
    y_mean = float(y.mean())
    y_std = float(y.std()) or 1.0
    y_scaled = (y - y_mean) / y_std
    # The one finiteness check of the right-hand side every solve of
    # the fit uses.
    _require_finite(y_scaled, "standardised targets")
    return X, y_mean, y_std, y_scaled, geometry if geometry is not None else Geometry(X)


def _lml_stack(
    gps: list[GaussianProcessRegressor],
    ys: list[np.ndarray],
    K: np.ndarray,
    K_grad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Log marginal likelihoods and gradients from noisy kernel matrices.

    ``K`` is a ``(B, n, n)`` stack of ``K + noise I``, one per GP at its
    current noise, and ``K_grad`` the ``(B, P, n, n)`` gradients w.r.t.
    the kernels' log hyperparameters.  Rasmussen & Williams Eq. 5.9,
    ``d lml/d theta_p = 1/2 tr((alpha alpha^T - K^-1) dK/d theta_p)``,
    with the observation noise entering as ``dK/d log noise = noise I``.

    The finiteness check and the first jitter rung cover the stack at
    once; ``potrf`` and ``potrs`` run once per matrix, and a GP whose
    first rung fails climbs the rest of its own ladder from its own
    memo (``-inf`` and a zero gradient past the top).  The data-fit
    ``y @ alpha`` stays per GP: BLAS may sum it in another order than a
    stacked product.  The log-determinant sums, ``alpha alpha^T -
    K^-1``, the ``einsum`` and the trace run over the stack, each slice
    reducing in the same order as a lone matrix does.

    Returns:
        ``(lml, grad)`` of shapes ``(B,)`` and ``(B, P + 1)``.
    """
    B, n = K.shape[:2]
    _require_finite(K, "covariance matrix")
    jittered = K.copy()
    jittered.reshape(B, -1)[:, :: n + 1] += np.array(
        [_JITTERS[gp._fit_jitter] for gp in gps]
    )[:, None]
    # A row whose ladder fails keeps these neutral values, so the
    # stacked reductions stay finite; its results are replaced below.
    data_fit = np.zeros(B)
    diagonals = np.ones((B, n))
    alphas = np.zeros((B, n))
    K_invs = np.zeros((B, n, n))
    failed = []
    for row, (gp, y_scaled) in enumerate(zip(gps, ys)):
        L = _factor(jittered[row])
        if L is None:
            try:
                L, gp._fit_jitter = _cholesky_with_jitter(
                    K[row], start=gp._fit_jitter + 1
                )
            except np.linalg.LinAlgError:
                failed.append(row)
                continue
        alpha = _cho_solve(L, y_scaled)
        data_fit[row] = -0.5 * y_scaled @ alpha
        diagonals[row] = L.diagonal()
        alphas[row] = alpha
        K_invs[row] = _cho_solve(L, gp._eye)
    lml = data_fit - np.log(diagonals).sum(axis=1) - 0.5 * n * _LOG_2PI
    inner = alphas[:, :, None] * alphas[:, None, :] - K_invs
    grad = np.empty((B, K_grad.shape[1] + 1))
    grad[:, :-1] = 0.5 * np.einsum("bij,bpij->bp", inner, K_grad)
    grad[:, -1] = 0.5 * np.array([gp.noise for gp in gps]) * np.trace(
        inner, axis1=1, axis2=2
    )
    lml[failed] = -np.inf
    grad[failed] = 0.0
    return lml, grad


def _group_lml(
    requests: list[tuple[GaussianProcessRegressor, np.ndarray, np.ndarray, Geometry]],
) -> list[tuple[float, np.ndarray]]:
    """Fused likelihood and gradient for each ``(gp, theta, y_scaled, geometry)``.

    Every request ends exactly as a lone evaluation would: same value
    and gradient bits, same jitter memo, same counters, kernel and noise
    left at ``theta``.  Two or more requests of one isotropic kernel
    class and one size share a kernel pass over the ``(B, n, n)`` stack
    of their ``geometry.total``
    (:func:`repro.ml.kernels.stacked_value_and_grad`), one
    noise-diagonal add and one :func:`_lml_stack`; every other request
    builds its own kernel and finishes alone
    (:meth:`GaussianProcessRegressor._lml_from_kernel`).
    """
    results: list = [None] * len(requests)
    lone: list[int] = []
    stacks: dict[tuple, list[int]] = {}
    for index, (gp, theta, _, geometry) in enumerate(requests):
        gp.n_lml_evals += 1
        gp.n_kernel_builds += 1
        kind = stack_kind(gp.kernel)
        if kind is None:
            gp._set_packed_theta(theta)
            lone.append(index)
        else:
            stacks.setdefault((kind, geometry.shape), []).append(index)
    for (kind, (n, _)), members in stacks.items():
        # exp of the packed (log variance, log lengthscale, log noise),
        # as the theta setters take it.
        scales = np.exp(np.array([requests[index][1] for index in members]))
        for index, (variance, lengthscale, noise) in zip(members, scales.tolist()):
            gp = requests[index][0]
            gp.kernel.variance, gp.kernel.lengthscale = variance, lengthscale
            gp.noise = noise
        if len(members) == 1:
            lone.append(members[0])
            continue
        totals = np.array([requests[index][3].total for index in members])
        K, K_grad = stacked_value_and_grad(
            kind, scales[:, 0], scales[:, 1].tolist(), totals
        )
        K.reshape(len(members), -1)[:, :: n + 1] += scales[:, 2:]
        lml, grad = _lml_stack(
            [requests[index][0] for index in members],
            [requests[index][2] for index in members],
            K,
            K_grad,
        )
        for row, index in enumerate(members):
            results[index] = float(lml[row]), grad[row]
    for index in lone:
        gp, _, y_scaled, geometry = requests[index]
        K, K_grad = gp.kernel.value_and_grad(geometry)
        K.flat[:: K.shape[0] + 1] += gp.noise
        results[index] = gp._lml_from_kernel(K, K_grad, y_scaled)
    return results


def _fit_group(
    gps: list[GaussianProcessRegressor],
    Xs: list[np.ndarray],
    ys: list[np.ndarray],
    geometries: list[Geometry | None],
) -> None:
    """The one fit body of :meth:`GaussianProcessRegressor.fit` and
    :func:`fit_gps_stacked`.

    Validates every GP's inputs before it changes any GP, then runs the
    hyperparameter optimisations in lock-step: each round takes the
    pending ``theta`` of every unfinished GP and evaluates them all in
    one :func:`_group_lml` call.  A GP's own evaluation sequence — its
    restart draws, its L-BFGS-B steps, its jitter memo — never depends
    on the others', so each GP ends bit for bit where a lone fit ends.
    Last, each GP conditions on its data at the fitted hyperparameters.
    """
    fits = [_fit_inputs(X, y, geometry) for X, y, geometry in zip(Xs, ys, geometries)]
    # Each entry carries what its generator is sent next: ``None`` to
    # prime it, then the negated likelihood and gradient at its theta.
    # A generator that returns leaves the group.
    replies = []
    for gp, (X, y_mean, y_std, y_scaled, geometry) in zip(gps, fits):
        gp._X, gp._y_mean, gp._y_std = X, y_mean, y_std
        gp.n_fits += 1
        if gp.optimise and X.shape[0] >= 2:
            steps = gp._optimise_hyperparameters(y_scaled, geometry)
            replies.append((gp, steps, y_scaled, geometry, None))
    while replies:
        pending = []
        for gp, steps, y_scaled, geometry, reply in replies:
            try:
                theta = steps.send(reply)
            except StopIteration:
                continue
            pending.append((gp, steps, y_scaled, geometry, theta))
        values = _group_lml(
            [(gp, theta, y, geometry) for gp, _, y, geometry, theta in pending]
        )
        replies = [
            (gp, steps, y_scaled, geometry, (-lml, -grad))
            for (gp, steps, y_scaled, geometry, _), (lml, grad) in zip(pending, values)
        ]
    for gp, (_, _, _, y_scaled, geometry) in zip(gps, fits):
        gp._condition(y_scaled, geometry)


def fit_gps_stacked(
    gps: list[GaussianProcessRegressor],
    Xs: list[np.ndarray],
    ys: list[np.ndarray],
    geometries: list[Geometry | None] | None = None,
) -> list[GaussianProcessRegressor]:
    """Fit ``gps[i]`` to ``(Xs[i], ys[i])`` as one lock-step group.

    Each GP ends exactly as its own ``fit(Xs[i], ys[i],
    geometry=geometries[i])`` ends: same hyperparameters, same factor,
    same counters.  The likelihood optimisations advance together, one
    evaluation per unfinished GP per round, and the isotropic kernels
    of one class and size build their matrices and gradients in one
    stacked pass per round; the Cholesky factorisations, the solves and
    the conditioning stay per GP.  Every GP scoring round fits through
    here (:meth:`repro.core.naive_bo.GPScorer.score_group`).

    Raises:
        ValueError: if the four lists disagree in length, or as
            :meth:`GaussianProcessRegressor.fit` does on bad inputs.
    """
    if geometries is None:
        geometries = [None] * len(gps)
    if not (len(gps) == len(Xs) == len(ys) == len(geometries)):
        raise ValueError(
            f"got {len(gps)} GPs, {len(Xs)} designs, {len(ys)} targets, "
            f"{len(geometries)} geometries"
        )
    _fit_group(gps, Xs, ys, geometries)
    return gps
