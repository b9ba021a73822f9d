"""Unit tests for the from-scratch Gaussian Process."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from repro.ml.gp import (
    _JITTERS,
    GaussianProcessRegressor,
    _cho_solve,
    _cholesky_with_jitter,
    _solve_lower,
    fit_gps_stacked,
)
from repro.ml.kernels import RBF, Geometry, Matern12, Matern32, Matern52, White


@pytest.fixture(scope="module")
def toy_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(30, 2))
    y = np.sin(X[:, 0]) + 0.5 * np.cos(2 * X[:, 1])
    return X, y


class TestFitPredict:
    def test_interpolates_training_points(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(Matern52(), seed=1).fit(X, y)
        mean = gp.predict(X)
        assert np.max(np.abs(mean - y)) < 1e-2

    def test_uncertainty_near_zero_at_training_points(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(Matern52(), seed=1).fit(X, y)
        _, std = gp.predict(X, return_std=True)
        assert np.all(std < 0.1 * y.std())

    def test_uncertainty_grows_away_from_data(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(RBF(), seed=1).fit(X, y)
        _, std_near = gp.predict(X[:1], return_std=True)
        _, std_far = gp.predict(np.array([[30.0, 30.0]]), return_std=True)
        assert std_far[0] > 5 * std_near[0]

    def test_far_extrapolation_reverts_to_mean(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(RBF(), seed=1).fit(X, y)
        mean = gp.predict(np.array([[100.0, 100.0]]))
        assert mean[0] == pytest.approx(y.mean(), abs=0.2 * np.abs(y).max() + 0.1)

    def test_generalises_on_smooth_function(self, toy_data):
        X, y = toy_data
        rng = np.random.default_rng(5)
        X_test = rng.uniform(-3, 3, size=(100, 2))
        y_test = np.sin(X_test[:, 0]) + 0.5 * np.cos(2 * X_test[:, 1])
        gp = GaussianProcessRegressor(Matern52(), seed=1).fit(X, y)
        rmse = np.sqrt(np.mean((gp.predict(X_test) - y_test) ** 2))
        assert rmse < 0.35

    def test_single_point_fit(self):
        gp = GaussianProcessRegressor(Matern52(), seed=0)
        gp.fit(np.array([[1.0, 2.0]]), np.array([5.0]))
        assert gp.predict(np.array([[1.0, 2.0]]))[0] == pytest.approx(5.0, abs=1e-6)

    def test_constant_targets_handled(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        gp = GaussianProcessRegressor(Matern52(), seed=0).fit(X, np.full(10, 3.0))
        assert gp.predict(np.array([[4.5]]))[0] == pytest.approx(3.0, abs=1e-6)

    def test_1d_query_reshaped(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(Matern52(), seed=1).fit(X, y)
        assert gp.predict(X[0]).shape == (1,)


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError, match="zero observations"):
            GaussianProcessRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="rows"):
            GaussianProcessRegressor().fit(np.zeros((3, 2)), np.zeros(4))

    def test_non_2d_X_raises(self):
        with pytest.raises(ValueError, match="2-D"):
            GaussianProcessRegressor().fit(np.zeros((2, 2, 2)), np.zeros(2))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            GaussianProcessRegressor(noise=-1.0)


class TestHyperparameterFit:
    def test_marginal_likelihood_improves_with_optimisation(self, toy_data):
        X, y = toy_data
        y_scaled = (y - y.mean()) / y.std()

        unoptimised = GaussianProcessRegressor(
            Matern52(lengthscale=100.0), optimise=False
        )
        unoptimised.fit(X, y)
        lml_before = unoptimised.log_marginal_likelihood(y_scaled)

        optimised = GaussianProcessRegressor(
            Matern52(lengthscale=100.0), optimise=True, seed=0
        )
        optimised.fit(X, y)
        lml_after = optimised.log_marginal_likelihood(y_scaled)
        assert lml_after > lml_before

    def test_learns_sensible_lengthscale(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(Matern52(lengthscale=50.0), seed=0, n_restarts=2)
        gp.fit(X, y)
        assert 0.05 < gp.kernel.lengthscale < 20.0

    def test_kernel_argument_not_mutated(self, toy_data):
        X, y = toy_data
        kernel = Matern52(lengthscale=7.0)
        GaussianProcessRegressor(kernel, seed=0).fit(X, y)
        assert kernel.lengthscale == 7.0

    def test_noisy_targets_learn_noise(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3, 3, size=(60, 1))
        y = np.sin(X[:, 0]) + rng.normal(0, 0.3, size=60)
        gp = GaussianProcessRegressor(Matern52(), seed=0, n_restarts=2).fit(X, y)
        # Learned noise should be material, not the 1e-4 default.
        assert gp.noise > 1e-3


# -- linear-algebra pins -------------------------------------------------
#
# Every factorisation and solve on the GP path must match what
# scipy.linalg's public wrappers return, bit for bit: the golden digests
# hash float bits, so "close" is not good enough.  The references below
# go through ``linalg.cholesky`` / ``cho_solve`` / ``solve_triangular``.


def _reference_cholesky(K, start=0):
    """The jitter ladder spelled with scipy.linalg.cholesky."""
    n = K.shape[0]
    for index in range(start, len(_JITTERS)):
        jittered = K.copy()
        jittered.flat[:: n + 1] += _JITTERS[index]
        try:
            return linalg.cholesky(jittered, lower=True), index
        except linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("indefinite at every jitter")


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T / n + 1e-3 * np.eye(n)


def _near_singular(n, rank, seed, deficit):
    """PSD of rank ``rank < n``, shifted ``deficit`` below singular.

    Its smallest eigenvalue is ``-deficit`` (up to rounding), so the
    ladder must climb past every jitter not larger than ``deficit``.
    """
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, rank)) / np.sqrt(n)
    return B @ B.T - deficit * np.eye(n)


def _design(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    y = np.sin(X[:, 0]) + 0.3 * X[:, -1] + rng.normal(0, 0.05, size=n)
    return X, y


def _scaled(y):
    return (y - float(y.mean())) / (float(y.std()) or 1.0)


def _conditioning_matrix(gp, X):
    K = gp.kernel.value(Geometry(X))
    K.flat[:: X.shape[0] + 1] += gp.noise
    return K


KERNELS = (RBF, Matern12, Matern32, Matern52)
sizes = st.integers(1, 20)
seeds = st.integers(0, 2**32 - 1)


class TestCholeskyLadder:
    @settings(max_examples=60, deadline=None)
    @given(n=sizes, seed=seeds)
    def test_spd_matches_scipy_bit_for_bit(self, n, seed):
        K = _random_spd(n, seed)
        before = K.copy()
        L, index = _cholesky_with_jitter(K)
        expected, expected_index = _reference_cholesky(K)
        assert index == expected_index == 0
        assert np.array_equal(L, expected)
        assert np.array_equal(K, before)  # never mutated

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 20), seed=seeds, data=st.data())
    def test_near_singular_escalates_like_scipy(self, n, seed, data):
        deficit = data.draw(st.sampled_from((0.0, 5e-11, 5e-9, 5e-7, 5e-5)))
        K = _near_singular(n, data.draw(st.integers(1, n - 1)), seed, deficit)
        start = data.draw(st.integers(0, len(_JITTERS) - 1))
        expected, expected_index = _reference_cholesky(K, start=start)
        L, index = _cholesky_with_jitter(K, start=start)
        assert index == expected_index >= start
        assert np.array_equal(L, expected)

    def test_ladder_climbs_to_the_first_sufficient_jitter(self):
        K = _near_singular(8, 3, seed=1, deficit=5e-7)
        L, index = _cholesky_with_jitter(K)
        assert _JITTERS[index] == 1e-6
        assert np.array_equal(L, _reference_cholesky(K)[0])

    @settings(max_examples=30, deadline=None)
    @given(n=sizes, seed=seeds, start=st.integers(0, len(_JITTERS) - 1))
    def test_start_is_honoured(self, n, seed, start):
        K = _random_spd(n, seed)
        L, index = _cholesky_with_jitter(K, start=start)
        assert index == start
        assert np.array_equal(L, _reference_cholesky(K, start=start)[0])

    @settings(max_examples=30, deadline=None)
    @given(n=sizes, seed=seeds, start=st.integers(0, len(_JITTERS) - 1))
    def test_indefinite_at_every_jitter_raises(self, n, seed, start):
        K = _random_spd(n, seed)
        K[n // 2, n // 2] = -1.0  # a negative pivot no jitter can lift
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_with_jitter(K, start=start)

class TestSolveHelpers:
    @settings(max_examples=60, deadline=None)
    @given(n=sizes, k=st.integers(0, 20), seed=seeds)
    def test_cho_solve_matches_scipy(self, n, k, seed):
        L = linalg.cholesky(_random_spd(n, seed), lower=True)
        rng = np.random.default_rng(seed)
        b = rng.normal(size=n) if k == 0 else rng.normal(size=(n, k))
        before = b.copy()
        assert np.array_equal(_cho_solve(L, b), linalg.cho_solve((L, True), b))
        assert np.array_equal(b, before)  # never overwritten

    @settings(max_examples=60, deadline=None)
    @given(n=sizes, m=st.integers(1, 20), seed=seeds, c_order=st.booleans())
    def test_solve_lower_matches_scipy(self, n, m, seed, c_order):
        L = linalg.cholesky(_random_spd(n, seed), lower=True)
        if c_order:
            L = np.ascontiguousarray(L)
        rhs = np.random.default_rng(seed).normal(size=(m, n)).T
        expected = linalg.solve_triangular(L, rhs, lower=True)
        assert np.array_equal(_solve_lower(L, rhs), expected)

    @pytest.mark.parametrize("c_order", [False, True])
    def test_solve_lower_rejects_singular_factor(self, c_order):
        L = np.asfortranarray(np.tril(np.ones((3, 3))))
        L[1, 1] = 0.0
        if c_order:
            L = np.ascontiguousarray(L)
        with pytest.raises(np.linalg.LinAlgError):
            _solve_lower(L, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, bad):
        K = _random_spd(4, 0)
        K[1, 2] = K[2, 1] = bad
        with pytest.raises(ValueError):
            _cholesky_with_jitter(K)


class TestSolvesMatchScipy:
    @settings(max_examples=40, deadline=None)
    @given(
        n=sizes,
        seed=seeds,
        kernel_cls=st.sampled_from(KERNELS),
        noise=st.floats(1e-6, 1.0),
    )
    def test_conditioning_factor_and_alpha(self, n, seed, kernel_cls, noise):
        X, y = _design(n, 3, seed)
        gp = GaussianProcessRegressor(kernel_cls(), noise=noise, optimise=False)
        gp.fit(X, y)
        L, _ = _reference_cholesky(_conditioning_matrix(gp, X))
        assert np.array_equal(gp._L, L)
        assert np.array_equal(gp._alpha, linalg.cho_solve((L, True), _scaled(y)))

    @settings(max_examples=40, deadline=None)
    @given(n=sizes, seed=seeds, kernel_cls=st.sampled_from(KERNELS))
    def test_log_marginal_likelihood(self, n, seed, kernel_cls):
        X, y = _design(n, 2, seed)
        y_scaled = _scaled(y)
        gp = GaussianProcessRegressor(kernel_cls(), optimise=False).fit(X, y)
        K = gp.kernel(X)
        K.flat[:: n + 1] += gp.noise
        L, _ = _reference_cholesky(K)
        alpha = linalg.cho_solve((L, True), y_scaled)
        expected = float(
            -0.5 * y_scaled @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        assert gp.log_marginal_likelihood(y_scaled) == expected

    @settings(max_examples=40, deadline=None)
    @given(n=sizes, seed=seeds, kernel_cls=st.sampled_from(KERNELS))
    def test_fused_value_and_gradient(self, n, seed, kernel_cls):
        X, y = _design(n, 2, seed)
        y_scaled = _scaled(y)
        geometry = Geometry(X)
        gp = GaussianProcessRegressor(kernel_cls(), optimise=False).fit(X, y)
        gp._eye = np.eye(n)
        gp._fit_jitter = 0
        theta = gp._packed_theta()
        value, grad = gp._lml_value_and_grad(theta, y_scaled, geometry)

        K, K_grad = gp.kernel.value_and_grad(geometry)
        K.flat[:: n + 1] += gp.noise
        L, index = _reference_cholesky(K)
        alpha = linalg.cho_solve((L, True), y_scaled)
        expected = float(
            -0.5 * y_scaled @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        inner = np.outer(alpha, alpha) - linalg.cho_solve((L, True), np.eye(n))
        assert value == expected
        assert gp._fit_jitter == index
        assert np.array_equal(grad[:-1], 0.5 * np.einsum("ij,pij->p", inner, K_grad))
        assert grad[-1] == 0.5 * gp.noise * np.trace(inner)

    @settings(max_examples=40, deadline=None)
    @given(n=sizes, m=st.integers(1, 20), seed=seeds, kernel_cls=st.sampled_from(KERNELS))
    def test_predict_std(self, n, m, seed, kernel_cls):
        X, y = _design(n, 2, seed)
        queries = np.random.default_rng(seed + 1).uniform(-2, 2, size=(m, 2))
        gp = GaussianProcessRegressor(kernel_cls(), optimise=False).fit(X, y)
        _, std = gp.predict(queries, return_std=True)
        K_star = gp.kernel(queries, X)
        v = linalg.solve_triangular(gp._L, K_star.T, lower=True)
        var = gp.kernel.diag(queries) + gp.noise - np.sum(v**2, axis=0)
        assert np.array_equal(std, np.sqrt(np.maximum(var, 0.0)) * gp._y_std)

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_optimised_fit_conditions_like_scipy(self, kernel_cls):
        X, y = _design(12, 3, 7)
        gp = GaussianProcessRegressor(kernel_cls(), seed=0, n_restarts=1).fit(X, y)
        L, _ = _reference_cholesky(_conditioning_matrix(gp, X))
        assert np.array_equal(gp._L, L)
        assert np.array_equal(gp._alpha, linalg.cho_solve((L, True), _scaled(y)))

    def test_stacked_fit_conditions_like_scipy(self):
        designs = [_design(9, 2, seed) for seed in range(3)]
        gps = [GaussianProcessRegressor(Matern52(), seed=s) for s in range(3)]
        fit_gps_stacked(gps, [X for X, _ in designs], [y for _, y in designs])
        for gp, (X, y) in zip(gps, designs):
            L, _ = _reference_cholesky(_conditioning_matrix(gp, X))
            assert np.array_equal(gp._L, L)
            assert np.array_equal(gp._alpha, linalg.cho_solve((L, True), _scaled(y)))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("optimise", [True, False])
    def test_non_finite_target_raises(self, bad, optimise):
        X, y = _design(6, 2, 0)
        y[3] = bad
        with pytest.raises(ValueError):
            GaussianProcessRegressor(Matern52(), optimise=optimise, seed=0).fit(X, y)

    @pytest.mark.parametrize("optimise", [True, False])
    def test_nan_design_row_raises(self, optimise):
        X, y = _design(6, 2, 0)
        X[2] = np.nan
        with pytest.raises(ValueError):
            GaussianProcessRegressor(Matern52(), optimise=optimise, seed=0).fit(X, y)

    def test_nan_query_row_raises_for_std(self):
        X, y = _design(6, 2, 0)
        gp = GaussianProcessRegressor(Matern52(), optimise=False).fit(X, y)
        queries = np.zeros((3, 2))
        queries[1] = np.nan
        with pytest.raises(ValueError):
            gp.predict(queries, return_std=True)

    def test_stacked_fit_rejects_non_finite_target(self):
        X, y = _design(6, 2, 0)
        y[0] = np.nan
        with pytest.raises(ValueError):
            fit_gps_stacked([GaussianProcessRegressor(Matern52(), seed=0)], [X], [y])


def _mixed_kernels():
    """An ARD, a composite and two isotropic kernels, for one group."""
    return [
        Matern52(lengthscale=np.ones(3)),
        Matern32() + White(),
        RBF(),
        Matern12(),
    ]


class TestFitGpsStackedOneBody:
    """``fit_gps_stacked`` runs the private fit body, never ``fit``."""

    def test_fits_without_the_public_fit(self, monkeypatch):
        designs = [_design(8, 3, seed) for seed in range(2)]
        gps = [GaussianProcessRegressor(Matern52(), seed=s) for s in range(2)]

        def no_public_fit(self, *args, **kwargs):
            raise AssertionError("fit_gps_stacked called the public fit")

        monkeypatch.setattr(GaussianProcessRegressor, "fit", no_public_fit)
        fit_gps_stacked(gps, [X for X, _ in designs], [y for _, y in designs])
        for gp, (X, _) in zip(gps, designs):
            assert gp.n_fits == 1
            assert gp._L is not None and gp._alpha is not None
            gp.predict(X, return_std=True)

    @pytest.mark.parametrize("with_geometry", [False, True])
    def test_mixed_group_matches_per_gp_fit(self, with_geometry):
        kernels = _mixed_kernels()
        designs = [_design(6 + i, 3, 40 + i) for i in range(len(kernels))]
        geometries = [Geometry(X) if with_geometry else None for X, _ in designs]
        serial = [
            GaussianProcessRegressor(k.clone(), seed=i) for i, k in enumerate(kernels)
        ]
        grouped = [
            GaussianProcessRegressor(k.clone(), seed=i) for i, k in enumerate(kernels)
        ]
        for gp, (X, y), geometry in zip(serial, designs, geometries):
            gp.fit(X, y, geometry=geometry)
        fit_gps_stacked(
            grouped, [X for X, _ in designs], [y for _, y in designs], geometries
        )
        queries = np.random.default_rng(5).uniform(-2, 2, size=(4, 3))
        for gp_a, gp_b in zip(serial, grouped):
            assert gp_a.n_fits == gp_b.n_fits == 1
            assert gp_a.n_lml_evals == gp_b.n_lml_evals > 0
            assert gp_a.n_kernel_builds == gp_b.n_kernel_builds
            assert np.array_equal(gp_a._packed_theta(), gp_b._packed_theta())
            mean_a, std_a = gp_a.predict(queries, return_std=True)
            mean_b, std_b = gp_b.predict(queries, return_std=True)
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(std_a, std_b)
