"""The GP's direct L-BFGS-B driver against ``scipy.optimize.minimize``.

:class:`~repro.ml.gp.GaussianProcessRegressor` drives scipy's private
``setulb`` iteration itself instead of calling
``optimize.minimize(method="L-BFGS-B", jac=True, bounds=...)`` once per
start.  :class:`MinimizeGP` keeps that ``minimize`` loop; every fit must
end bit for bit where it ends — same hyperparameters, same number of
likelihood evaluations and kernel builds, same posterior.  A scipy
release that changes ``setulb`` fails here instead of drifting the
golden digests.
"""

import numpy as np
import pytest
from scipy import optimize

from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import RBF, Matern12, Matern32, Matern52

DIMS = 3


class MinimizeGP(GaussianProcessRegressor):
    """The reference: the same fit, one ``optimize.minimize`` per start.

    A generator like the method it overrides, but one that evaluates
    through ``minimize`` before its first ``yield`` and then returns,
    so it leaves the fit's group as soon as it is primed.
    """

    def _optimise_hyperparameters(self, y_scaled, geometry):
        bounds = self._packed_bounds()
        starts = [self._packed_theta()]
        for _ in range(self.n_restarts):
            starts.append(self._rng.uniform(bounds[:, 0], bounds[:, 1]))
        n = self._X.shape[0]
        if self._eye is None or self._eye.shape[0] != n:
            self._eye = np.eye(n)
        self._fit_jitter = 0

        def negative_lml_and_grad(theta):
            lml, grad = self._lml_value_and_grad(theta, y_scaled, geometry)
            return -lml, -grad

        best_theta, best_value = starts[0], np.inf
        for start in starts:
            result = optimize.minimize(
                negative_lml_and_grad,
                start,
                method="L-BFGS-B",
                jac=True,
                bounds=bounds,
            )
            if result.fun < best_value:
                best_theta, best_value = result.x, float(result.fun)
        self._set_packed_theta(best_theta)
        yield from ()


class PoisonedMatern52(Matern52):
    """Matérn 5/2 made indefinite once its lengthscale passes 2.

    No jitter rescues the Cholesky there, so the fused likelihood takes
    its ``-inf`` path mid-optimisation; ``poisoned`` counts how often.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.poisoned = 0

    def value_and_grad(self, geometry):
        K, K_grad = super().value_and_grad(geometry)
        if np.max(self.lengthscale) > 2.0:
            self.poisoned += 1
            K.flat[:: K.shape[0] + 1] -= 10.0 * self.variance + 1.0
        return K, K_grad


def _data(seed, n=10):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, DIMS))
    y = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1] ** 2 + rng.normal(0.0, 0.1, n)
    return X, y


def _fit_both(make_kernel, X, y, seed):
    return [
        cls(make_kernel(), seed=seed).fit(X, y)
        for cls in (GaussianProcessRegressor, MinimizeGP)
    ]


def _assert_identical(driven, reference, X_query):
    assert np.array_equal(driven._packed_theta(), reference._packed_theta())
    assert driven.n_lml_evals == reference.n_lml_evals
    assert driven.n_kernel_builds == reference.n_kernel_builds
    mean, std = driven.predict(X_query, return_std=True)
    ref_mean, ref_std = reference.predict(X_query, return_std=True)
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(std, ref_std)


KERNELS = [
    pytest.param(RBF, id="rbf"),
    pytest.param(Matern12, id="matern12"),
    pytest.param(Matern32, id="matern32"),
    pytest.param(Matern52, id="matern52"),
]


class TestMatchesMinimize:
    @pytest.mark.parametrize("ard", [False, True], ids=["iso", "ard"])
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_is_bit_identical(self, kernel_cls, ard, seed):
        X, y = _data(seed, n=6 + 3 * seed)

        def make():
            return kernel_cls(lengthscale=np.ones(DIMS)) if ard else kernel_cls()

        driven, reference = _fit_both(make, X, y, seed)
        assert driven.n_lml_evals > 1 + driven.n_restarts
        _assert_identical(driven, reference, _data(seed + 100, n=7)[0])

    @pytest.mark.parametrize("ard", [False, True], ids=["iso", "ard"])
    def test_start_outside_the_bounds_is_clipped(self, ard):
        # Lengthscale 1e5 and variance 1e-6 lie outside the default
        # (1e-2, 1e3) and (1e-3, 1e3) boxes: the first start is clipped.
        X, y = _data(3)

        def make():
            lengthscale = np.full(DIMS, 1e5) if ard else 1e5
            return Matern52(variance=1e-6, lengthscale=lengthscale)

        theta = GaussianProcessRegressor(make())._packed_theta()
        bounds = GaussianProcessRegressor(make())._packed_bounds()
        assert np.any((theta < bounds[:, 0]) | (theta > bounds[:, 1]))
        driven, reference = _fit_both(make, X, y, seed=3)
        _assert_identical(driven, reference, _data(4, n=5)[0])

    def test_cholesky_failure_mid_optimisation(self):
        X, y = _data(5, n=12)
        driven, reference = _fit_both(PoisonedMatern52, X, y, seed=5)
        assert driven.kernel.poisoned > 0
        assert driven.kernel.poisoned == reference.kernel.poisoned
        _assert_identical(driven, reference, _data(6, n=5)[0])

    def test_refits_reuse_the_fitted_start(self):
        # A second fit starts from the first fit's hyperparameters and
        # continues the restart stream.
        X, y = _data(7, n=14)
        gps = [
            cls(Matern52(), seed=7) for cls in (GaussianProcessRegressor, MinimizeGP)
        ]
        for n in (8, 14):
            for gp in gps:
                gp.fit(X[:n], y[:n])
            _assert_identical(*gps, _data(8, n=5)[0])


@pytest.mark.parametrize(
    "lengthscale_bounds", [(1e-2, np.inf), (10.0, 1.0)], ids=["infinite", "reversed"]
)
def test_bounds_must_be_finite_and_ordered(lengthscale_bounds):
    X, y = _data(9)
    gp = GaussianProcessRegressor(
        Matern52(lengthscale_bounds=lengthscale_bounds), n_restarts=0
    )
    with pytest.raises(ValueError, match="bounds must be finite with low <= high"):
        gp.fit(X, y)
