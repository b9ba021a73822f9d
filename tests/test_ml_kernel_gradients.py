"""Finite-difference validation of the analytic GP gradients.

Two layers are checked against central differences in log-parameter
space:

* every kernel's ``value_and_grad`` (``dK/d theta``) — the four
  stationary kernels, isotropic and ARD, the white-noise kernel, and
  sum/product composites,
* the GP's fused log-marginal-likelihood value+gradient (Rasmussen &
  Williams Eq. 5.9), including the observation-noise parameter, against
  differences of both its own value and the value-only
  ``log_marginal_likelihood``; and the fused optimiser against
  L-BFGS-B driven by finite differences of that likelihood.

Matérn 1/2 is not differentiable at zero distance, so its self-pair
checks mask the diagonal (where the analytic subgradient is exactly 0
and central differences only measure ``sqrt(eps)`` noise).
"""

import numpy as np
import pytest
from scipy import optimize

from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import (
    RBF,
    DesignGeometry,
    Geometry,
    Matern12,
    Matern32,
    Matern52,
    Product,
    Sum,
    White,
)

STEP = 1e-6


def kernel_cases():
    return [
        pytest.param(lambda: RBF(1.7, 0.8), id="rbf"),
        pytest.param(lambda: Matern12(2.0, 1.3), id="matern12"),
        pytest.param(lambda: Matern32(0.5, 2.0), id="matern32"),
        pytest.param(lambda: Matern52(1.2, 0.6), id="matern52"),
        pytest.param(lambda: RBF(1.3, np.array([0.5, 1.0, 2.0])), id="rbf-ard"),
        pytest.param(lambda: Matern12(1.1, np.array([0.7, 1.5, 1.0])), id="matern12-ard"),
        pytest.param(lambda: Matern32(0.9, np.array([1.2, 0.4, 2.0])), id="matern32-ard"),
        pytest.param(lambda: Matern52(0.9, np.array([2.0, 0.3, 1.0])), id="matern52-ard"),
        pytest.param(lambda: White(0.2), id="white"),
        pytest.param(lambda: Sum(RBF(1.1, 0.9), White(0.3)), id="sum"),
        pytest.param(lambda: Product(Matern32(1.4, 1.1), RBF(0.7, 2.2)), id="product"),
    ]


@pytest.fixture(scope="module")
def X():
    return np.random.default_rng(0).normal(size=(7, 3))


def central_difference(kernel, X, param):
    """dK/d theta[param] by central differences in log space."""
    theta = kernel.theta
    plus, minus = kernel.clone(), kernel.clone()
    theta_plus, theta_minus = theta.copy(), theta.copy()
    theta_plus[param] += STEP
    theta_minus[param] -= STEP
    plus.theta, minus.theta = theta_plus, theta_minus
    return (plus(X) - minus(X)) / (2 * STEP)


class TestKernelGradients:
    @pytest.mark.parametrize("make", kernel_cases())
    def test_matches_central_differences(self, make, X):
        kernel = make()
        K, grad = kernel.value_and_grad(Geometry(X))
        assert grad.shape == (kernel.theta.size, X.shape[0], X.shape[0])
        # Matérn 1/2 is non-differentiable at zero distance, where central
        # differences measure sqrt-clipping noise; skip the diagonal.
        mask = ~np.eye(X.shape[0], dtype=bool)
        for param in range(kernel.theta.size):
            numeric = central_difference(kernel, X, param)
            assert np.allclose(grad[param][mask], numeric[mask], atol=1e-5), (
                f"param {param}"
            )

    @pytest.mark.parametrize("make", kernel_cases())
    def test_value_matches_call(self, make, X):
        kernel = make()
        K, grad = kernel.value_and_grad(Geometry(X))
        assert np.allclose(K, kernel(X), atol=1e-12)
        assert np.allclose(kernel.value(Geometry(X)), kernel(X), atol=1e-12)

    def test_variance_gradient_is_the_kernel_matrix(self, X):
        kernel = Matern52(1.5, 0.9)
        K, grad = kernel.value_and_grad(Geometry(X))
        assert np.allclose(grad[0], K)

    def test_matern12_diagonal_subgradient_is_zero(self, X):
        _, grad = Matern12(2.0, 1.3).value_and_grad(Geometry(X))
        assert np.all(np.diag(grad[1]) == 0.0)
        assert np.all(np.isfinite(grad))

    def test_cross_geometry_gradients(self, X):
        Y = np.random.default_rng(1).normal(size=(5, 3))
        kernel = Matern52(1.2, np.array([2.0, 0.3, 1.0]))
        K, grad = kernel.value_and_grad(Geometry(X, Y))
        assert K.shape == (7, 5)
        theta = kernel.theta
        for param in range(theta.size):
            plus, minus = kernel.clone(), kernel.clone()
            tp, tm = theta.copy(), theta.copy()
            tp[param] += STEP
            tm[param] -= STEP
            plus.theta, minus.theta = tp, tm
            numeric = (plus(X, Y) - minus(X, Y)) / (2 * STEP)
            assert np.allclose(grad[param], numeric, atol=1e-5)

    def test_base_kernel_has_no_analytic_gradient(self, X):
        from repro.ml.kernels import Kernel

        with pytest.raises(NotImplementedError, match="analytic gradient"):
            Kernel.value_and_grad(RBF(), Geometry(X))


class TestGeometry:
    def test_scaled_sq_matches_direct(self, X):
        from repro.ml.kernels import _sq_dists

        geometry = Geometry(X)
        assert np.allclose(geometry.scaled_sq(0.7), _sq_dists(X, X, 0.7), atol=1e-10)
        ard = np.array([0.5, 2.0, 1.0])
        assert np.allclose(geometry.scaled_sq(ard), _sq_dists(X, X, ard), atol=1e-10)

    def test_dimension_mismatch_rejected(self, X):
        with pytest.raises(ValueError, match="dimensionality"):
            Geometry(X, np.zeros((3, 2)))

    def test_from_blocks_requires_3d(self):
        with pytest.raises(ValueError, match="dims"):
            Geometry.from_blocks(np.zeros((2, 2)), None, self_pair=True)

    def test_from_blocks_derives_total(self, X):
        geometry = Geometry(X)
        rebuilt = Geometry.from_blocks(geometry.dims, None, self_pair=True)
        assert np.allclose(rebuilt.total, geometry.total)


class TestDesignGeometry:
    def test_blocks_match_direct_evaluation(self, X):
        design = DesignGeometry(X)
        kernel = Matern52(1.2, np.array([2.0, 0.3, 1.0]))
        measured = [2, 5, 0]
        assert np.allclose(kernel.value(design.fit_geometry(measured)), kernel(X[measured]))
        candidates = [1, 3, 6]
        assert np.allclose(
            kernel.value(design.cross_geometry(candidates, measured)),
            kernel(X[candidates], X[measured]),
        )

    def test_extends_one_column_per_measurement(self, X):
        design = DesignGeometry(X)
        design.fit_geometry([2, 5, 0])
        assert design.extensions == 3 and design.rebuilds == 0
        design.fit_geometry([2, 5, 0, 4])
        assert design.extensions == 4 and design.rebuilds == 0

    def test_diverged_order_rebuilds(self, X):
        design = DesignGeometry(X)
        design.fit_geometry([2, 5, 0])
        kernel = Matern52()
        assert np.allclose(kernel.value(design.fit_geometry([5, 2])), kernel(X[[5, 2]]))
        assert design.rebuilds == 1

    def test_white_sees_self_pair_only_in_fit_block(self, X):
        design = DesignGeometry(X)
        white = White(0.4)
        fit = white.value(design.fit_geometry([1, 2]))
        cross = white.value(design.cross_geometry([3, 4], [1, 2]))
        assert np.allclose(fit, 0.4 * np.eye(2))
        assert np.allclose(cross, 0.0)


class TestFusedLMLGradient:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3, 3, size=(12, 4))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + rng.normal(0, 0.05, size=12)
        return X, (y - y.mean()) / y.std()

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: RBF(), id="rbf"),
            pytest.param(lambda: Matern12(), id="matern12"),
            pytest.param(lambda: Matern32(), id="matern32"),
            pytest.param(lambda: Matern52(), id="matern52"),
            pytest.param(lambda: Matern52(lengthscale=np.ones(4)), id="matern52-ard"),
            pytest.param(lambda: Sum(RBF(), White(0.1)), id="sum"),
        ],
    )
    def test_matches_central_differences(self, make, data):
        X, y_scaled = data
        gp = GaussianProcessRegressor(make(), optimise=False, seed=0).fit(X, y_scaled)
        geometry = Geometry(X)
        gp._eye = np.eye(X.shape[0])
        theta = gp._packed_theta()
        value, grad = gp._lml_value_and_grad(theta, y_scaled, geometry)
        assert np.isfinite(value)
        for param in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[param] += STEP
            tm[param] -= STEP
            vp = gp._lml_value_and_grad(tp, y_scaled, geometry)[0]
            vm = gp._lml_value_and_grad(tm, y_scaled, geometry)[0]
            numeric = (vp - vm) / (2 * STEP)
            assert grad[param] == pytest.approx(numeric, abs=1e-4, rel=1e-4)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: RBF(), id="rbf"),
            pytest.param(lambda: Matern32(), id="matern32"),
            pytest.param(lambda: Matern52(lengthscale=np.ones(4)), id="matern52-ard"),
        ],
    )
    def test_matches_differences_of_value_only_likelihood(self, make, data):
        """The fused gradient against central differences of the public
        value-only :meth:`log_marginal_likelihood`.

        Matérn 1/2 is left out: the value-only path evaluates distances
        directly, so its self-pair distances carry rounding noise where
        the kernel is not differentiable.
        """
        X, y_scaled = data
        gp = GaussianProcessRegressor(make(), optimise=False, seed=0).fit(X, y_scaled)
        gp._eye = np.eye(X.shape[0])
        theta = gp._packed_theta()
        _, grad = gp._lml_value_and_grad(theta, y_scaled, Geometry(X))

        def lml_at(point):
            gp._set_packed_theta(point)
            return gp.log_marginal_likelihood(y_scaled)

        for param in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[param] += STEP
            tm[param] -= STEP
            numeric = (lml_at(tp) - lml_at(tm)) / (2 * STEP)
            assert grad[param] == pytest.approx(numeric, abs=1e-4, rel=1e-4)

    def test_fused_value_matches_value_only_path(self, data):
        X, y_scaled = data
        gp = GaussianProcessRegressor(Matern52(), optimise=False, seed=0).fit(X, y_scaled)
        gp._eye = np.eye(X.shape[0])
        theta = gp._packed_theta()
        fused, _ = gp._lml_value_and_grad(theta, y_scaled, Geometry(X))
        gp._set_packed_theta(theta)
        assert fused == pytest.approx(gp.log_marginal_likelihood(y_scaled), rel=1e-12)


class FiniteDifferenceGP(GaussianProcessRegressor):
    """The reference optimiser: L-BFGS-B on the value-only likelihood.

    Same starts and bounds as the fused path, but the gradient comes
    from L-BFGS-B's own finite differences of
    :meth:`~repro.ml.gp.GaussianProcessRegressor.log_marginal_likelihood`
    (one kernel build and Cholesky per parameter per gradient).  A
    generator like the method it overrides: it optimises through
    ``minimize`` before its first ``yield`` and then returns.
    """

    def _optimise_hyperparameters(self, y_scaled, geometry):
        bounds = self._packed_bounds()
        starts = [self._packed_theta()]
        for _ in range(self.n_restarts):
            starts.append(self._rng.uniform(bounds[:, 0], bounds[:, 1]))

        def negative_lml(theta):
            self._set_packed_theta(theta)
            return -self.log_marginal_likelihood(y_scaled)

        best_theta, best_value = starts[0], np.inf
        for start in starts:
            result = optimize.minimize(
                negative_lml, start, method="L-BFGS-B", bounds=bounds
            )
            if result.fun < best_value:
                best_theta, best_value = result.x, float(result.fun)
        self._set_packed_theta(best_theta)
        yield from ()


class TestGradientModes:
    def test_analytic_and_numeric_reach_the_same_likelihood(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-3, 3, size=(14, 3))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 2]
        y_scaled = (y - y.mean()) / y.std()
        lml = {}
        for name, cls in (("analytic", GaussianProcessRegressor), ("numeric", FiniteDifferenceGP)):
            gp = cls(Matern52(), seed=0).fit(X, y)
            lml[name] = gp.log_marginal_likelihood(y_scaled)
        assert lml["analytic"] == pytest.approx(lml["numeric"], abs=1e-3)

    def test_analytic_uses_fewer_kernel_builds(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-3, 3, size=(12, 4))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
        builds = {}
        for name, cls in (("analytic", GaussianProcessRegressor), ("numeric", FiniteDifferenceGP)):
            builds[name] = cls(Matern52(), seed=0).fit(X, y).n_kernel_builds
        # The fused path needs one kernel build per L-BFGS-B iteration;
        # finite differences need one per parameter per iteration.
        assert builds["numeric"] >= 3 * builds["analytic"]

    def test_kernels_without_analytic_gradient_raise(self):
        class Opaque(Matern52):
            def value_and_grad(self, geometry):
                raise NotImplementedError("no analytic gradient")

        rng = np.random.default_rng(6)
        X = rng.uniform(-3, 3, size=(10, 2))
        y = np.sin(X[:, 0])
        with pytest.raises(NotImplementedError, match="analytic gradient"):
            GaussianProcessRegressor(Opaque(), seed=0).fit(X, y)
        # Fixed hyperparameters need no gradient.
        fixed = GaussianProcessRegressor(Opaque(), optimise=False).fit(X, y)
        reference = GaussianProcessRegressor(Matern52(), optimise=False).fit(X, y)
        assert np.array_equal(fixed.predict(X), reference.predict(X))

    def test_predict_with_cross_geometry_matches_plain(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-3, 3, size=(10, 3))
        y = np.sin(X[:, 0])
        queries = rng.uniform(-3, 3, size=(6, 3))
        gp = GaussianProcessRegressor(Matern52(), seed=0).fit(X, y)
        plain_mean, plain_std = gp.predict(queries, return_std=True)
        mean, std = gp.predict(queries, return_std=True, geometry=Geometry(queries, X))
        assert np.allclose(mean, plain_mean, atol=1e-10)
        assert np.allclose(std, plain_std, atol=1e-10)

    def test_predict_geometry_shape_validated(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(5, 2))
        gp = GaussianProcessRegressor(Matern52(), seed=0).fit(X, np.arange(5.0))
        with pytest.raises(ValueError, match="geometry shape"):
            gp.predict(X, geometry=Geometry(X[:2], X))

    def test_fit_geometry_shape_validated(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(5, 2))
        with pytest.raises(ValueError, match="geometry shape"):
            GaussianProcessRegressor(Matern52()).fit(X, np.arange(5.0), geometry=Geometry(X[:3]))
