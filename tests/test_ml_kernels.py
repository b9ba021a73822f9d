"""Unit and property tests for covariance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.kernels import (
    RBF,
    Matern12,
    Matern32,
    Matern52,
    Product,
    Sum,
    White,
    kernel_by_name,
)

ALL_KERNELS = (RBF, Matern12, Matern32, Matern52)


def design_matrices():
    return hnp.arrays(
        dtype=float,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 4)),
        elements=st.floats(-10, 10, allow_nan=False),
    )


class TestKernelValues:
    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_self_covariance_equals_variance(self, kernel_cls):
        kernel = kernel_cls(variance=2.5, lengthscale=1.3)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.all(np.diag(kernel(X)) == 2.5)
        assert np.all(kernel.diag(X) == 2.5)

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_covariance_decays_with_distance(self, kernel_cls):
        kernel = kernel_cls()
        x0 = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[5.0, 0.0]])
        assert kernel(x0, near)[0, 0] > kernel(x0, far)[0, 0]

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_symmetry(self, kernel_cls):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 3))
        K = kernel_cls()(X)
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: RBF(2.5, 1.3), id="rbf"),
            pytest.param(lambda: Matern12(1.5, 0.7), id="matern12"),
            pytest.param(lambda: Matern32(0.8, 2.1), id="matern32"),
            pytest.param(lambda: Matern52(1.1, 0.9), id="matern52"),
            pytest.param(lambda: RBF(1.2, np.array([0.5, 1.0, 2.0])), id="rbf-ard"),
            pytest.param(lambda: White(0.3), id="white"),
            pytest.param(lambda: Sum(RBF(1.1, 0.9), White(0.2)), id="sum"),
            pytest.param(lambda: Product(Matern32(1.4, 1.1), RBF(0.7, 2.2)), id="product"),
        ],
    )
    def test_diag_matches_full_matrix_diagonal(self, make):
        kernel = make()
        X = np.random.default_rng(2).normal(size=(8, 3))
        assert np.array_equal(kernel.diag(X), np.diag(kernel(X)))

    def test_value_and_diag_have_no_generic_body(self):
        from repro.ml.kernels import Kernel

        assert {"value", "diag"} <= Kernel.__abstractmethods__

        class NoGeometry(RBF):
            value = Kernel.value

        with pytest.raises(TypeError, match="value"):
            NoGeometry()

    def test_smoothness_ordering_near_origin(self):
        """Rougher kernels decay faster for small distances:
        matern12 < matern32 < matern52 < rbf at the same separation."""
        x0 = np.zeros((1, 1))
        x1 = np.array([[0.5]])
        values = [k()(x0, x1)[0, 0] for k in (Matern12, Matern32, Matern52, RBF)]
        assert values == sorted(values)

    def test_matern12_is_exponential(self):
        kernel = Matern12(variance=1.0, lengthscale=2.0)
        x0, x1 = np.zeros((1, 1)), np.array([[3.0]])
        assert kernel(x0, x1)[0, 0] == pytest.approx(np.exp(-1.5))

    def test_rbf_is_squared_exponential(self):
        kernel = RBF(variance=1.0, lengthscale=2.0)
        x0, x1 = np.zeros((1, 1)), np.array([[2.0]])
        assert kernel(x0, x1)[0, 0] == pytest.approx(np.exp(-0.5))

    @settings(max_examples=30, deadline=None)
    @given(X=design_matrices(), kernel_index=st.integers(0, 3))
    def test_kernel_matrices_are_positive_semidefinite(self, X, kernel_index):
        kernel = ALL_KERNELS[kernel_index]()
        K = kernel(X)
        eigenvalues = np.linalg.eigvalsh(K)
        assert eigenvalues.min() > -1e-8 * max(1.0, eigenvalues.max())


class TestHyperparameters:
    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_theta_roundtrip(self, kernel_cls):
        kernel = kernel_cls(variance=3.0, lengthscale=0.7)
        other = kernel_cls()
        other.theta = kernel.theta
        assert other.variance == pytest.approx(3.0)
        assert other.lengthscale == pytest.approx(0.7)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RBF(variance=-1.0)
        with pytest.raises(ValueError):
            Matern52(lengthscale=0.0)
        with pytest.raises(ValueError):
            White(noise=0.0)

    def test_clone_is_independent(self):
        kernel = Matern52(variance=2.0)
        copy = kernel.clone()
        copy.theta = np.log([9.0, 1.0])
        assert kernel.variance == pytest.approx(2.0)

    def test_bounds_shape_matches_theta(self):
        for kernel_cls in ALL_KERNELS:
            kernel = kernel_cls()
            assert kernel.bounds.shape == (kernel.theta.size, 2)


class TestComposition:
    def test_sum_adds_pointwise(self):
        X = np.random.default_rng(1).normal(size=(4, 2))
        a, b = RBF(), Matern32()
        assert np.array_equal(Sum(a, b)(X), a(X) + b(X))
        assert np.array_equal((a + b)(X), a(X) + b(X))

    def test_product_multiplies_pointwise(self):
        X = np.random.default_rng(2).normal(size=(4, 2))
        a, b = RBF(), Matern12()
        assert np.array_equal(Product(a, b)(X), a(X) * b(X))
        assert np.array_equal((a * b)(X), a(X) * b(X))

    def test_white_adds_diagonal_only(self):
        X = np.random.default_rng(3).normal(size=(5, 2))
        white = White(noise=0.5)
        assert np.array_equal(white(X), 0.5 * np.eye(5))
        assert np.array_equal(white(X, X + 1.0), np.zeros((5, 5)))

    def test_composed_theta_concatenates(self):
        combined = RBF() + White(noise=0.1)
        assert combined.theta.size == 3
        combined.theta = np.log([2.0, 3.0, 0.5])
        assert combined.left.variance == pytest.approx(2.0)
        assert combined.right.noise == pytest.approx(0.5)

    def test_composed_clone_deep(self):
        combined = RBF() * Matern52()
        copy = combined.clone()
        copy.theta = np.log([5.0, 5.0, 5.0, 5.0])
        assert combined.left.variance == pytest.approx(1.0)


class TestKernelByName:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("rbf", RBF),
            ("RBF", RBF),
            ("matern12", Matern12),
            ("Matern3/2", Matern32),
            ("matern-52", Matern52),
            ("MATERN_52", Matern52),
        ],
    )
    def test_accepted_spellings(self, name, cls):
        assert isinstance(kernel_by_name(name), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernel_by_name("periodic")
