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

:func:`fit_gps_stacked` fits a group of GPs for the vectorized grid
driver.  It runs each GP through the one private body :meth:`fit` runs,
one GP after another: there is a single covariance and conditioning
path, and a lock-step group ends bit-identical to per-GP fits.

scipy is imported when the first :class:`GaussianProcessRegressor` is
built, never when this module is: Arrow's own searches fit no GP, and
loading ``scipy.linalg`` / ``optimize`` / ``special`` costs a process
~0.5 s and ~40 MB.  Building the GP (not its first fit) keeps the
import out of every timed search step.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.ml.kernels import Geometry, Kernel, Matern52

_JITTERS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)

# The double-precision LAPACK routines scipy.linalg resolves on every
# cholesky / cho_solve / solve_triangular call, and the L-BFGS-B
# iteration scipy.optimize.minimize drives: bound once per process by
# _load_scipy().
_potrf = _potrs = _trtrs = _setulb = None

# scipy.optimize.minimize(method="L-BFGS-B")'s defaults, as its
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


def _minimize_lbfgsb(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    start: np.ndarray,
    bounds: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Minimise ``objective`` (value and gradient) within ``bounds``.

    Evaluation for evaluation what ``scipy.optimize.minimize(objective,
    start, method="L-BFGS-B", jac=True, bounds=bounds)`` does under
    scipy 1.17, minus its per-call set-up and per-evaluation wrappers:
    the start is clipped into the bounds and evaluated once, and every
    later ``setulb`` request for ``f`` and ``g`` re-evaluates only when
    ``x`` moved.  Each evaluation gets its own copy of ``x``.

    Args:
        objective: maps a point to ``(f, grad)``.
        start: the starting point.
        bounds: ``(n, 2)`` finite ``[low, high]`` rows.

    Returns:
        ``(x, f)`` — what ``result.x`` and ``result.fun`` would hold.

    Raises:
        ValueError: on non-finite bounds or a low bound above its high.
    """
    low, high = np.ascontiguousarray(bounds.T, dtype=np.float64)
    if not (np.isfinite(bounds).all() and (low <= high).all()):
        raise ValueError("L-BFGS-B bounds must be finite with low <= high")
    m, n = _LBFGSB_M, low.size
    x = np.clip(start, low, high)
    x_seen = x.copy()
    f_seen, g_seen = objective(x_seen)
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
            if not np.array_equal(x, x_seen):
                x_seen = x.copy()
                f_seen, g_seen = objective(x_seen)
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
        # As scipy.linalg.cholesky(jittered, lower=True) calls it.
        L, info = _potrf(jittered, lower=True, clean=True)
        if info == 0:
            return L, index
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
    raise np.linalg.LinAlgError("covariance matrix is not positive definite")


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
        self._fit(X, y, geometry)
        return self

    def _fit(self, X: np.ndarray, y: np.ndarray, geometry: Geometry | None) -> None:
        """The body of :meth:`fit`, which :func:`fit_gps_stacked` runs too.

        Validates and stores the design, standardises the targets, fits
        the hyperparameters, then factors the kernel matrix at them.
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
            raise ValueError(
                f"geometry shape {geometry.shape} does not match {n} rows"
            )

        self._X = X
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        y_scaled = (y - self._y_mean) / self._y_std
        # The one finiteness check of the right-hand side every solve
        # of this fit uses.
        _require_finite(y_scaled, "standardised targets")
        self.n_fits += 1

        fit_geometry = geometry if geometry is not None else Geometry(X)
        if self.optimise and n >= 2:
            self._optimise_hyperparameters(y_scaled, fit_geometry)
        self.n_kernel_builds += 1
        try:
            K = self.kernel.value(fit_geometry)
        except NotImplementedError:
            K = self.kernel(X)
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

        One kernel build and one Cholesky per call: the gradient reuses
        the factorisation through Rasmussen & Williams Eq. 5.9,
        ``d lml/d theta_p = 1/2 tr((alpha alpha^T - K^-1) dK/d theta_p)``.
        The observation noise enters as ``dK/d log noise = noise * I``.
        """
        assert self._X is not None and self._eye is not None
        self._set_packed_theta(theta)
        self.n_lml_evals += 1
        self.n_kernel_builds += 1
        K, K_grad = self.kernel.value_and_grad(geometry)
        n = K.shape[0]
        K.flat[:: n + 1] += self.noise
        try:
            L, self._fit_jitter = _cholesky_with_jitter(K, start=self._fit_jitter)
        except np.linalg.LinAlgError:
            return -np.inf, np.zeros(theta.size)
        alpha = _cho_solve(L, y_scaled)
        lml = float(
            -0.5 * y_scaled @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        inner = np.outer(alpha, alpha) - _cho_solve(L, self._eye)
        grad = np.empty(theta.size)
        grad[:-1] = 0.5 * np.einsum("ij,pij->p", inner, K_grad)
        grad[-1] = 0.5 * self.noise * np.trace(inner)
        return lml, grad

    def _optimise_hyperparameters(self, y_scaled: np.ndarray, geometry: Geometry) -> None:
        """Maximise the likelihood by multi-restart L-BFGS-B in log space.

        Raises:
            NotImplementedError: if the kernel has no
                :meth:`~repro.ml.kernels.Kernel.value_and_grad`.
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

        def negative_lml_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
            lml, grad = self._lml_value_and_grad(theta, y_scaled, geometry)
            return -lml, -grad

        best_theta, best_value = starts[0], np.inf
        for start in starts:
            theta, value = _minimize_lbfgsb(negative_lml_and_grad, start, bounds)
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
            try:
                K_star = self.kernel.value(geometry)
            except NotImplementedError:
                K_star = self.kernel(X, self._X)
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


def fit_gps_stacked(
    gps: list[GaussianProcessRegressor],
    Xs: list[np.ndarray],
    ys: list[np.ndarray],
    geometries: list[Geometry | None] | None = None,
) -> list[GaussianProcessRegressor]:
    """Fit ``gps[i]`` to ``(Xs[i], ys[i])``, one GP after another.

    Each GP runs the same body as its own
    ``fit(Xs[i], ys[i], geometry=geometries[i])`` and ends in exactly
    that state: same hyperparameters, same factor, same counters.  The
    vectorized driver's GP groups call this once per round; nothing in
    the fit is batched.  L-BFGS-B is iterative with data-dependent step
    counts, so there is nothing to lock-step, and the conditioning
    kernel build it follows was measured to gain nothing from a stacked
    ``(S, n, n)`` evaluation.  What the group batches is the expected
    improvement (:func:`repro.core.acquisition.expected_improvement_stacked`).

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
    for gp, X, y, geometry in zip(gps, Xs, ys, geometries):
        gp._fit(X, y, geometry)
    return gps
