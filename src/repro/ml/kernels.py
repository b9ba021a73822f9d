"""Covariance kernels for Gaussian Process regression.

The paper's Section III-B studies exactly four kernels — RBF and the
Matérn family with smoothness 1/2, 3/2 and 5/2 — and shows the choice
among them flips which workloads Naive BO handles well (Figure 7).
All four are implemented here with a shared (signal variance,
lengthscale) parameterisation, plus the sum/product algebra and a white
noise kernel used for composing priors.

Every kernel exposes its free hyperparameters in log space
(:meth:`Kernel.theta`) so the GP can optimise the marginal likelihood
with unconstrained L-BFGS.

Each stationary kernel states its covariance once, in ``_from_sq``
(``_value_and_dsq`` adds the derivative the likelihood gradient needs).
The derivative form takes the signal variance as an argument and is
elementwise, so :func:`stacked_value_and_grad` evaluates it over a
``(B, n, n)`` stack of isotropic kernels at once, each slice bit for bit
what that kernel's own :meth:`~Kernel.value_and_grad` returns: the GP
likelihood of a fitted group (:func:`repro.ml.gp.fit_gps_stacked`)
builds one such stack per evaluation round.
"""

from __future__ import annotations

import abc
import math

import numpy as np


def _as_2d(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D design matrix, got shape {X.shape}")
    return X


def _sq_dists(X: np.ndarray, Y: np.ndarray, lengthscale: float | np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances of scaled inputs, clipped at 0.

    ``lengthscale`` may be a scalar (isotropic) or a per-dimension vector
    (ARD — automatic relevance determination).
    """
    Xs, Ys = X / lengthscale, Y / lengthscale
    sq = (
        np.sum(Xs**2, axis=1)[:, None]
        + np.sum(Ys**2, axis=1)[None, :]
        - 2.0 * Xs @ Ys.T
    )
    return np.maximum(sq, 0.0)


class Geometry:
    """Cached *unscaled* pairwise squared-distance geometry of two row sets.

    The log-marginal-likelihood optimisation evaluates the kernel matrix
    at dozens of hyperparameter settings over the same design.  The
    design never changes during a fit, so the expensive part — pairwise
    squared distances — is computed once here and merely rescaled by
    ``1/lengthscale**2`` per evaluation (:meth:`scaled_sq`).

    ``total`` holds the summed squared distances (enough for isotropic
    kernels); the per-dimension stack ``dims`` — needed for ARD values
    and gradients — is materialised lazily on first use.
    """

    __slots__ = ("X", "Y", "self_pair", "_total", "_dims")

    def __init__(self, X: np.ndarray, Y: np.ndarray | None = None) -> None:
        self.X = _as_2d(X)
        #: Whether the two row sets are the same object (K(X, X)): white
        #: noise contributes to the diagonal only in that case.
        self.self_pair = Y is None
        self.Y = self.X if Y is None else _as_2d(Y)
        if self.X.shape[1] != self.Y.shape[1]:
            raise ValueError(
                f"row sets disagree on dimensionality: "
                f"{self.X.shape[1]} vs {self.Y.shape[1]}"
            )
        self._total: np.ndarray | None = None
        self._dims: np.ndarray | None = None

    @classmethod
    def from_blocks(
        cls, dims: np.ndarray, total: np.ndarray | None, self_pair: bool
    ) -> Geometry:
        """Wrap precomputed distance blocks (the incremental-scorer path).

        Args:
            dims: per-dimension squared differences, shape ``(d, n, m)``.
            total: their sum over dimensions ``(n, m)``; derived when None.
            self_pair: whether the blocks describe ``K(X, X)``.
        """
        dims = np.asarray(dims, dtype=float)
        if dims.ndim != 3:
            raise ValueError(f"dims must be (d, n, m), got shape {dims.shape}")
        geometry = cls.__new__(cls)
        geometry.X = None  # type: ignore[assignment]
        geometry.Y = None  # type: ignore[assignment]
        geometry.self_pair = self_pair
        geometry._dims = dims
        geometry._total = dims.sum(axis=0) if total is None else np.asarray(total, float)
        return geometry

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, m)`` — rows of X by rows of Y."""
        if self._total is not None:
            return self._total.shape  # type: ignore[return-value]
        if self._dims is not None:
            return self._dims.shape[1:]  # type: ignore[return-value]
        return (self.X.shape[0], self.Y.shape[0])

    @property
    def total(self) -> np.ndarray:
        """Unscaled pairwise squared distances, shape ``(n, m)``."""
        if self._total is None:
            self._total = _sq_dists(self.X, self.Y, 1.0)
            if self.self_pair:
                # The quadratic-expansion formula leaves ~1e-15 residuals
                # where the exact distance is 0; pin the diagonal so
                # non-smooth kernels (Matérn 1/2) see exact zeros.
                self._total.flat[:: self._total.shape[0] + 1] = 0.0
        return self._total

    @property
    def dims(self) -> np.ndarray:
        """Per-dimension squared differences, shape ``(d, n, m)``."""
        if self._dims is None:
            diff = self.X[:, None, :] - self.Y[None, :, :]
            self._dims = np.ascontiguousarray(np.moveaxis(diff * diff, -1, 0))
        return self._dims

    def scaled_sq(self, lengthscale: float | np.ndarray) -> np.ndarray:
        """Squared distances of ``1/lengthscale``-scaled inputs.

        Scalar lengthscales rescale the cached total; ARD vectors
        contract the per-dimension stack with ``1/lengthscale**2``.
        """
        ls = np.asarray(lengthscale, dtype=float)
        if ls.ndim == 0:
            return self.total / float(ls) ** 2
        return np.tensordot(1.0 / ls**2, self.dims, axes=1)


class Kernel(abc.ABC):
    """A positive semi-definite covariance function.

    Subclasses implement :meth:`__call__`, :meth:`value` (the same
    matrix from a cached :class:`Geometry`) and :meth:`diag`;
    hyperparameters live in ``theta`` as log-transformed values so
    optimisation is unconstrained.
    """

    @abc.abstractmethod
    def __call__(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """Covariance matrix between rows of ``X`` and rows of ``Y`` (or ``X``)."""

    @property
    @abc.abstractmethod
    def theta(self) -> np.ndarray:
        """Free hyperparameters in log space."""

    @theta.setter
    @abc.abstractmethod
    def theta(self, value: np.ndarray) -> None: ...

    @property
    @abc.abstractmethod
    def bounds(self) -> np.ndarray:
        """``(n_params, 2)`` log-space bounds for optimisation."""

    @abc.abstractmethod
    def clone(self) -> Kernel:
        """An independent copy with the same hyperparameters."""

    @abc.abstractmethod
    def value(self, geometry: Geometry) -> np.ndarray:
        """Covariance matrix evaluated from cached distance geometry."""

    def value_and_grad(self, geometry: Geometry) -> tuple[np.ndarray, np.ndarray]:
        """``K`` and its analytic gradients w.r.t. the log hyperparameters.

        Returns:
            ``(K, dK)`` where ``dK`` has shape ``(theta.size, n, m)`` and
            ``dK[p]`` is the derivative of ``K`` w.r.t. ``theta[p]``
            (log-space, matching :attr:`theta`).

        Raises:
            NotImplementedError: for kernels without an analytic gradient
                (a GP can then only condition on fixed hyperparameters,
                ``optimise=False``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no analytic gradient"
        )

    @abc.abstractmethod
    def diag(self, X: np.ndarray) -> np.ndarray:
        """The diagonal of ``self(X, X)``, without forming the matrix."""

    def __add__(self, other: Kernel) -> Kernel:
        return Sum(self, other)

    def __mul__(self, other: Kernel) -> Kernel:
        return Product(self, other)


class _Stationary(Kernel):
    """Shared machinery for stationary kernels with (variance, lengthscale).

    ``lengthscale`` may be a scalar (isotropic kernel, the default) or a
    per-dimension vector (ARD): with a vector, each input dimension gets
    its own learned scale, letting the GP discount irrelevant features.
    """

    def __init__(
        self,
        variance: float = 1.0,
        lengthscale: float | np.ndarray = 1.0,
        lengthscale_bounds: tuple[float, float] = (1e-2, 1e3),
        variance_bounds: tuple[float, float] = (1e-3, 1e3),
    ) -> None:
        lengthscale_arr = np.asarray(lengthscale, dtype=float)
        if variance <= 0 or np.any(lengthscale_arr <= 0):
            raise ValueError("variance and lengthscale must be positive")
        if lengthscale_arr.ndim > 1:
            raise ValueError("lengthscale must be a scalar or a 1-D vector")
        self.variance = float(variance)
        self.lengthscale: float | np.ndarray = (
            float(lengthscale_arr) if lengthscale_arr.ndim == 0 else lengthscale_arr
        )
        self._ls_bounds = lengthscale_bounds
        self._var_bounds = variance_bounds

    @property
    def is_ard(self) -> bool:
        """Whether this kernel carries per-dimension lengthscales."""
        return isinstance(self.lengthscale, np.ndarray)

    def _lengthscales(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.lengthscale, dtype=float))

    @property
    def theta(self) -> np.ndarray:
        return np.log(np.concatenate([[self.variance], self._lengthscales()]))

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        expected = 1 + self._lengthscales().size
        if value.shape != (expected,):
            raise ValueError(
                f"expected {expected} log-parameters, got shape {value.shape}"
            )
        exp = np.exp(value)
        self.variance = float(exp[0])
        self.lengthscale = exp[1:] if self.is_ard else float(exp[1])

    @property
    def bounds(self) -> np.ndarray:
        ls_rows = [self._ls_bounds] * self._lengthscales().size
        return np.log([self._var_bounds, *ls_rows])

    def clone(self) -> Kernel:
        lengthscale = (
            self.lengthscale.copy() if self.is_ard else self.lengthscale
        )
        return type(self)(self.variance, lengthscale, self._ls_bounds, self._var_bounds)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(_as_2d(X).shape[0], self.variance)

    @abc.abstractmethod
    def _from_sq(self, sq: np.ndarray) -> np.ndarray:
        """Covariance from squared distances of already-scaled inputs."""

    @staticmethod
    @abc.abstractmethod
    def _value_and_dsq(
        sq: np.ndarray, variance: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(K, dK/d sq)`` from scaled squared distances ``sq``.

        ``variance`` is a float, or a ``(B, 1, 1)`` column beside a
        ``(B, n, n)`` stack of ``sq``: the arithmetic is elementwise,
        so each slice of a stack rounds exactly as a lone kernel does.
        """

    @classmethod
    def _isotropic_terms(
        cls, sq: np.ndarray, variance: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(K, dK)`` w.r.t. ``(log variance, log lengthscale)``.

        ``dK`` stacks the two gradients on axis ``-3``: ``(2, n, n)``
        for one kernel, ``(B, 2, n, n)`` for a stack.
        """
        K, dK_dsq = cls._value_and_dsq(sq, variance)
        grad = np.empty((*K.shape[:-2], 2, *K.shape[-2:]))
        grad[..., 0, :, :] = K
        grad[..., 1, :, :] = dK_dsq * (-2.0 * sq)
        return K, grad

    def __call__(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        X = _as_2d(X)
        Y = X if Y is None else _as_2d(Y)
        return self._from_sq(_sq_dists(X, Y, self.lengthscale))

    def value(self, geometry: Geometry) -> np.ndarray:
        return self._from_sq(geometry.scaled_sq(self.lengthscale))

    def value_and_grad(self, geometry: Geometry) -> tuple[np.ndarray, np.ndarray]:
        """``K`` plus gradients w.r.t. ``log variance`` and log lengthscales.

        With ``sq`` the scaled squared distances, ``d sq / d log l = -2 sq``
        (isotropic) or ``-2 sq_d / l_d**2`` per dimension (ARD), and the
        gradient w.r.t. ``log variance`` is ``K`` itself.
        """
        sq = geometry.scaled_sq(self.lengthscale)
        if not self.is_ard:
            return self._isotropic_terms(sq, self.variance)
        K, dK_dsq = self._value_and_dsq(sq, self.variance)
        lengthscales = self._lengthscales()
        grad = np.empty((1 + lengthscales.size, *K.shape))
        grad[0] = K
        dims = geometry.dims
        for axis, lengthscale in enumerate(lengthscales):
            grad[1 + axis] = dK_dsq * (-2.0 / lengthscale**2) * dims[axis]
        return K, grad

    def __repr__(self) -> str:
        if self.is_ard:
            scales = np.array2string(self._lengthscales(), precision=3)
            return f"{type(self).__name__}(variance={self.variance:.4g}, ard={scales})"
        return (
            f"{type(self).__name__}(variance={self.variance:.4g}, "
            f"lengthscale={self.lengthscale:.4g})"
        )


class RBF(_Stationary):
    """Radial basis function (squared exponential) kernel.

    Infinitely smooth — the strongest smoothness prior of the four, which
    the paper notes "considers the effects of features on the covariance
    equally" and can be unrealistic for cloud performance.
    """

    def _from_sq(self, sq: np.ndarray) -> np.ndarray:
        return self.variance * np.exp(-0.5 * sq)

    @staticmethod
    def _value_and_dsq(
        sq: np.ndarray, variance: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        K = variance * np.exp(-0.5 * sq)
        return K, -0.5 * K


class Matern12(_Stationary):
    """Matérn kernel with smoothness 1/2 (the exponential kernel).

    The roughest prior: sample paths are continuous but nowhere
    differentiable.
    """

    def _from_sq(self, sq: np.ndarray) -> np.ndarray:
        d = np.sqrt(sq)
        return self.variance * np.exp(-d)

    @staticmethod
    def _value_and_dsq(
        sq: np.ndarray, variance: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        d = np.sqrt(sq)
        K = variance * np.exp(-d)
        # dK/dsq = -K / (2 d); the kernel is not differentiable at d = 0
        # (the diagonal), where the distance gradient is 0 anyway — take
        # the subgradient 0 there.
        with np.errstate(divide="ignore", invalid="ignore"):
            dK_dsq = np.where(d > 0.0, -K / (2.0 * d), 0.0)
        return K, dK_dsq


class Matern32(_Stationary):
    """Matérn kernel with smoothness 3/2 (once-differentiable paths)."""

    def _from_sq(self, sq: np.ndarray) -> np.ndarray:
        d = math.sqrt(3.0) * np.sqrt(sq)
        return self.variance * (1.0 + d) * np.exp(-d)

    @staticmethod
    def _value_and_dsq(
        sq: np.ndarray, variance: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        d = math.sqrt(3.0) * np.sqrt(sq)
        exp_d = np.exp(-d)
        return variance * (1.0 + d) * exp_d, -1.5 * variance * exp_d


class Matern52(_Stationary):
    """Matérn kernel with smoothness 5/2 — CherryPick's choice.

    Twice-differentiable sample paths: smooth enough for efficient
    optimisation but without RBF's unrealistically strong smoothness.
    """

    def _from_sq(self, sq: np.ndarray) -> np.ndarray:
        d = math.sqrt(5.0) * np.sqrt(sq)
        return self.variance * (1.0 + d + d**2 / 3.0) * np.exp(-d)

    @staticmethod
    def _value_and_dsq(
        sq: np.ndarray, variance: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        d = math.sqrt(5.0) * np.sqrt(sq)
        exp_d = np.exp(-d)
        K = variance * (1.0 + d + d**2 / 3.0) * exp_d
        return K, -(5.0 / 6.0) * variance * (1.0 + d) * exp_d


class White(Kernel):
    """White noise kernel: adds ``noise`` to the diagonal of K(X, X)."""

    def __init__(
        self, noise: float = 1e-4, noise_bounds: tuple[float, float] = (1e-8, 1e1)
    ) -> None:
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.noise = float(noise)
        self._bounds = noise_bounds

    def __call__(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        X = _as_2d(X)
        if Y is None:
            return self.noise * np.eye(X.shape[0])
        return np.zeros((X.shape[0], _as_2d(Y).shape[0]))

    @property
    def theta(self) -> np.ndarray:
        return np.log([self.noise])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        if value.shape != (1,):
            raise ValueError(f"expected 1 log-parameter, got shape {value.shape}")
        self.noise = float(np.exp(value[0]))

    @property
    def bounds(self) -> np.ndarray:
        return np.log([self._bounds])

    def clone(self) -> Kernel:
        return White(self.noise, self._bounds)

    def value(self, geometry: Geometry) -> np.ndarray:
        n, m = geometry.shape
        K = np.zeros((n, m))
        if geometry.self_pair:
            K.flat[:: m + 1] = self.noise
        return K

    def value_and_grad(self, geometry: Geometry) -> tuple[np.ndarray, np.ndarray]:
        # d(noise I)/d log noise = noise I = K itself.
        K = self.value(geometry)
        return K, K[None].copy()

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(_as_2d(X).shape[0], self.noise)

    def __repr__(self) -> str:
        return f"White(noise={self.noise:.4g})"


class _Combination(Kernel):
    """Shared machinery for binary kernel combinations."""

    def __init__(self, left: Kernel, right: Kernel) -> None:
        self.left = left
        self.right = right

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.left.theta, self.right.theta])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        n_left = self.left.theta.size
        self.left.theta = value[:n_left]
        self.right.theta = value[n_left:]

    @property
    def bounds(self) -> np.ndarray:
        return np.vstack([self.left.bounds, self.right.bounds])

    def clone(self) -> Kernel:
        return type(self)(self.left.clone(), self.right.clone())


class Sum(_Combination):
    """Pointwise sum of two kernels."""

    def __call__(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        return self.left(X, Y) + self.right(X, Y)

    def value(self, geometry: Geometry) -> np.ndarray:
        return self.left.value(geometry) + self.right.value(geometry)

    def value_and_grad(self, geometry: Geometry) -> tuple[np.ndarray, np.ndarray]:
        K_left, grad_left = self.left.value_and_grad(geometry)
        K_right, grad_right = self.right.value_and_grad(geometry)
        return K_left + K_right, np.concatenate([grad_left, grad_right])

    def diag(self, X: np.ndarray) -> np.ndarray:
        return self.left.diag(X) + self.right.diag(X)

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


class Product(_Combination):
    """Pointwise product of two kernels."""

    def __call__(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        return self.left(X, Y) * self.right(X, Y)

    def value(self, geometry: Geometry) -> np.ndarray:
        return self.left.value(geometry) * self.right.value(geometry)

    def value_and_grad(self, geometry: Geometry) -> tuple[np.ndarray, np.ndarray]:
        K_left, grad_left = self.left.value_and_grad(geometry)
        K_right, grad_right = self.right.value_and_grad(geometry)
        return (
            K_left * K_right,
            np.concatenate([grad_left * K_right, K_left * grad_right]),
        )

    def diag(self, X: np.ndarray) -> np.ndarray:
        return self.left.diag(X) * self.right.diag(X)

    def __repr__(self) -> str:
        return f"({self.left!r} * {self.right!r})"


def stack_kind(kernel: Kernel) -> type[_Stationary] | None:
    """The class :func:`stacked_value_and_grad` evaluates ``kernel`` as.

    ``None`` unless ``kernel`` is exactly one of the paper's four
    stationary kernels, isotropic: a subclass may override any step of
    :meth:`~Kernel.value_and_grad`, and an ARD kernel's gradient
    contracts its per-dimension stack, which does not stack elementwise.
    """
    kind = type(kernel)
    if kind in (RBF, Matern12, Matern32, Matern52) and not kernel.is_ard:
        return kind
    return None


def stacked_value_and_grad(
    kind: type[_Stationary],
    variances: np.ndarray,
    lengthscales: list[float],
    totals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(K, dK)`` of ``B`` isotropic ``kind`` kernels in one pass.

    Args:
        kind: a class :func:`stack_kind` returned.
        variances: ``(B,)`` signal variances.
        lengthscales: the ``B`` lengthscales, as floats.
        totals: ``(B, n, m)`` unscaled squared distances
            (:attr:`Geometry.total`).

    Returns:
        ``K`` of shape ``(B, n, m)`` and ``dK`` of shape
        ``(B, 2, n, m)``; slice ``b`` is bit for bit
        ``kind(variances[b], lengthscales[b]).value_and_grad(geometry)``
        for a geometry with ``total == totals[b]``.
    """
    # Each divisor is squared as Geometry.scaled_sq squares it.
    divisors = np.array([lengthscale**2 for lengthscale in lengthscales])
    sq = totals / divisors[:, None, None]
    return kind._isotropic_terms(sq, variances[:, None, None])


class DesignGeometry:
    """Incremental distance geometry over a fixed design matrix.

    A BO scorer fits its GP on the measured subset of a fixed design and
    predicts over the unmeasured rest at every step.  A column of
    squared differences depends only on the *design row* it is taken
    against — never on when that row was measured — so columns are
    cached by design index in preallocated ``(d, n, n)`` / ``(n, n)``
    buffers and computed at most once per row across the whole search.

    Caching by index (rather than by measurement order) is what lets
    the constant-liar q-EI path reuse candidate-side cross-covariance
    columns across fantasies *and* across rounds: a batched search
    commits measurements in catalog order while fantasies extend in
    pick order, and both simply gather the same cached columns instead
    of recomputing distances after every order change.

    :meth:`fit_geometry` and :meth:`cross_geometry` gather the cached
    columns into the :class:`Geometry` blocks kernels consume, so no
    pairwise distance is ever computed twice.
    """

    def __init__(self, design: np.ndarray) -> None:
        self.design = _as_2d(np.asarray(design, dtype=float))
        n, d = self.design.shape
        self._order: list[int] = []
        self._col_dims = np.empty((d, n, n))
        self._col_total = np.empty((n, n))
        self._have = np.zeros(n, dtype=bool)
        #: Observability counters: columns computed, and serve orders
        #: that diverged from a pure extension of the previous one
        #: (those used to force a full recompute; they are now served
        #: from the by-index cache like any other order).
        self.extensions = 0
        self.rebuilds = 0

    def _sync(self, measured: list[int]) -> None:
        """Compute any columns of ``measured`` not cached yet."""
        if measured[: len(self._order)] != self._order:
            self.rebuilds += 1
            self._order = list(measured)
        elif len(measured) > len(self._order):
            self._order = list(measured)
        for index in measured:
            if not self._have[index]:
                diff = self.design - self.design[index]
                square = diff * diff
                self._col_dims[:, :, index] = square.T
                self._col_total[:, index] = square.sum(axis=1)
                self._have[index] = True
                self.extensions += 1

    def fit_geometry(self, measured: list[int]) -> Geometry:
        """Geometry of the measured rows against themselves."""
        measured = list(measured)
        self._sync(measured)
        rows = np.asarray(measured, dtype=int)
        dims = np.arange(self.design.shape[1])
        return Geometry.from_blocks(
            self._col_dims[np.ix_(dims, rows, rows)],
            self._col_total[np.ix_(rows, rows)],
            self_pair=True,
        )

    def cross_geometry(self, rows: list[int], measured: list[int]) -> Geometry:
        """Geometry of arbitrary design rows against the measured set."""
        measured = list(measured)
        self._sync(measured)
        row_index = np.asarray(list(rows), dtype=int)
        cols = np.asarray(measured, dtype=int)
        dims = np.arange(self.design.shape[1])
        return Geometry.from_blocks(
            self._col_dims[np.ix_(dims, row_index, cols)],
            self._col_total[np.ix_(row_index, cols)],
            self_pair=False,
        )


_KERNELS_BY_NAME = {
    "rbf": RBF,
    "matern12": Matern12,
    "matern32": Matern32,
    "matern52": Matern52,
}


def kernel_by_name(name: str, **kwargs: float) -> Kernel:
    """Construct one of the paper's four kernels by name.

    Accepted names: ``"rbf"``, ``"matern12"``, ``"matern32"``,
    ``"matern52"`` (case-insensitive; ``"matern5/2"`` style also works).
    """
    key = name.lower().replace("/", "").replace("-", "").replace("_", "")
    try:
        return _KERNELS_BY_NAME[key](**kwargs)
    except KeyError:
        known = ", ".join(sorted(_KERNELS_BY_NAME))
        raise ValueError(f"unknown kernel {name!r}; known kernels: {known}") from None
