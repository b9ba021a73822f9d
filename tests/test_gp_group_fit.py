"""Lock-step group fits against one-at-a-time fits, bit for bit.

:func:`~repro.ml.gp.fit_gps_stacked` advances every GP's likelihood
optimisation one evaluation per round and evaluates a round's isotropic
kernels of one class and size in one stacked pass.  Each GP must still
end exactly where its own :meth:`~repro.ml.gp.GaussianProcessRegressor.fit`
ends: same hyperparameters, factor, weights, counters and posterior.
"""

import numpy as np
import pytest
from scipy import optimize

from repro.ml import gp as gp_module
from repro.ml.gp import GaussianProcessRegressor, _lbfgsb_steps, fit_gps_stacked
from repro.ml.kernels import RBF, Geometry, Matern12, Matern32, Matern52, White
from tests.test_gp_lbfgsb_driver import PoisonedMatern52

DIMS = 3
QUERIES = np.random.default_rng(99).uniform(-2.0, 2.0, size=(6, DIMS))


def _data(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, DIMS))
    y = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1] ** 2 + rng.normal(0.0, 0.1, n)
    return X, y


def _gp(kernel, seed, **kwargs):
    return GaussianProcessRegressor(kernel.clone(), seed=seed, **kwargs)


def _fit_both(kernels, datasets, geometries=None, **kwargs):
    """The same GPs fitted one at a time and as one group."""
    if geometries is None:
        geometries = [None] * len(kernels)
    alone = [_gp(kernel, seed, **kwargs) for seed, kernel in enumerate(kernels)]
    for gp, (X, y), geometry in zip(alone, datasets, geometries):
        gp.fit(X, y, geometry=geometry)
    grouped = [_gp(kernel, seed, **kwargs) for seed, kernel in enumerate(kernels)]
    fit_gps_stacked(
        grouped, [X for X, _ in datasets], [y for _, y in datasets], geometries
    )
    return alone, grouped


def _assert_identical(alone, grouped):
    for gp_a, gp_b in zip(alone, grouped):
        assert np.array_equal(gp_a._packed_theta(), gp_b._packed_theta())
        assert np.array_equal(gp_a._L, gp_b._L)
        assert np.array_equal(gp_a._alpha, gp_b._alpha)
        assert gp_a.n_fits == gp_b.n_fits
        assert gp_a.n_lml_evals == gp_b.n_lml_evals
        assert gp_a.n_kernel_builds == gp_b.n_kernel_builds
        mean_a, std_a = gp_a.predict(QUERIES, return_std=True)
        mean_b, std_b = gp_b.predict(QUERIES, return_std=True)
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(std_a, std_b)


KERNEL_CLASSES = [
    pytest.param(RBF, id="rbf"),
    pytest.param(Matern12, id="matern12"),
    pytest.param(Matern32, id="matern32"),
    pytest.param(Matern52, id="matern52"),
]


class TestGroupMatchesLoneFits:
    @pytest.mark.parametrize("ard", [False, True], ids=["iso", "ard"])
    @pytest.mark.parametrize("kernel_cls", KERNEL_CLASSES)
    @pytest.mark.parametrize("size", [1, 2])
    def test_each_kernel(self, kernel_cls, ard, size):
        kernel = kernel_cls(lengthscale=np.ones(DIMS)) if ard else kernel_cls()
        datasets = [_data(10 + i, 4 + i) for i in range(size)]
        alone, grouped = _fit_both([kernel] * size, datasets)
        assert all(gp.n_lml_evals > 1 for gp in grouped)
        _assert_identical(alone, grouped)

    def test_sum_with_white(self):
        kernels = [Matern52() + White(), RBF() + White(1e-2)]
        alone, grouped = _fit_both(kernels, [_data(20, 5), _data(21, 5)])
        _assert_identical(alone, grouped)

    def test_group_of_107_with_sizes_3_to_6(self):
        datasets = [_data(100 + i, 3 + i % 4) for i in range(107)]
        geometries = [Geometry(X) for X, _ in datasets]
        alone, grouped = _fit_both(
            [Matern52()] * 107, datasets, geometries, n_restarts=0
        )
        _assert_identical(alone, grouped)

    def test_mixed_classes_sizes_and_paths_in_one_round(self):
        kernels = [
            Matern52(),
            RBF(),
            Matern52(lengthscale=np.ones(DIMS)),
            Matern32() + White(),
            Matern52(),
            Matern12(),
            RBF(),
        ]
        datasets = [_data(30 + i, 3 + i % 3) for i in range(len(kernels))]
        alone, grouped = _fit_both(kernels, datasets)
        _assert_identical(alone, grouped)

    def test_members_finish_their_starts_in_different_rounds(self):
        datasets = [_data(40 + i, 6) for i in range(4)]
        alone, grouped = [], []
        for restarts, (X, y) in enumerate(datasets):
            alone.append(_gp(Matern52(), restarts, n_restarts=restarts).fit(X, y))
            grouped.append(_gp(Matern52(), restarts, n_restarts=restarts))
        fit_gps_stacked(grouped, [X for X, _ in datasets], [y for _, y in datasets])
        assert len({gp.n_lml_evals for gp in grouped}) == len(grouped)
        _assert_identical(alone, grouped)

    def test_refits_continue_from_the_fitted_start(self):
        X, y = _data(50, 6)
        alone = [_gp(Matern52(), seed) for seed in range(3)]
        grouped = [_gp(Matern52(), seed) for seed in range(3)]
        for n in (4, 6):
            for gp in alone:
                gp.fit(X[:n], y[:n])
            fit_gps_stacked(grouped, [X[:n]] * 3, [y[:n]] * 3)
            _assert_identical(alone, grouped)


def _duplicated_design(seed):
    """Five rows, two of them repeated: an exactly singular kernel part."""
    X, y = _data(seed, 5)
    X[3], X[4] = X[0], X[1]
    return X, y


class TestCholeskyLadder:
    def test_jitter_escalation_stays_with_its_gp(self):
        # A huge signal variance over repeated rows leaves the noise far
        # below rounding, so the first factorisation escalates; its
        # stack mates must keep starting their ladders at the bottom.
        steep = Matern52(
            variance=1e8, lengthscale=1e2, variance_bounds=(1e-3, 1e9),
            lengthscale_bounds=(1e-2, 1e3),
        )
        kernels = [Matern52(), steep, Matern52()]
        datasets = [_data(60, 5), _duplicated_design(61), _data(62, 5)]
        alone, grouped = _fit_both(kernels, datasets, noise=1e-8)
        assert [gp._fit_jitter > 0 for gp in grouped] == [False, True, False]
        assert [gp._fit_jitter for gp in grouped] == [gp._fit_jitter for gp in alone]
        _assert_identical(alone, grouped)

    def test_indefinite_members_take_the_minus_inf_branch(self):
        # Two poisoned kernels of one size: a subclass must build its own
        # kernel, never share a stack.
        kernels = [Matern52(), PoisonedMatern52(), PoisonedMatern52(), RBF()]
        datasets = [_data(70 + i, 6) for i in range(4)]
        alone, grouped = _fit_both(kernels, datasets)
        for index in (1, 2):
            assert grouped[index].kernel.poisoned > 0
            assert grouped[index].kernel.poisoned == alone[index].kernel.poisoned
        _assert_identical(alone, grouped)

    def test_indefinite_start_inside_a_stack(self, monkeypatch):
        # A signal variance of 1e19 over repeated rows defeats the whole
        # ladder: the first start scores -inf inside the Matérn 5/2 stack,
        # and the restarts find finite hyperparameters.
        ladder_failures = []
        cholesky = gp_module._cholesky_with_jitter

        def counting(K, start=0):
            try:
                return cholesky(K, start)
            except np.linalg.LinAlgError:
                ladder_failures.append(start)
                raise

        monkeypatch.setattr(gp_module, "_cholesky_with_jitter", counting)
        steep = Matern52(variance=1e19, variance_bounds=(1e-3, 1e20))
        kernels = [Matern52(), steep, Matern52()]
        datasets = [_data(63, 5), _duplicated_design(64), _data(65, 5)]
        alone, grouped = _fit_both(kernels, datasets)
        assert ladder_failures
        assert len(ladder_failures) % 2 == 0  # as many alone as grouped
        _assert_identical(alone, grouped)


class TestOneBodyTwoEntryPoints:
    """Neither traced entry point calls the other, so a wrapper around
    each counts every fit once."""

    def test_fit_never_calls_fit_gps_stacked(self, monkeypatch):
        def no_group(*args, **kwargs):
            raise AssertionError("fit called fit_gps_stacked")

        monkeypatch.setattr(gp_module, "fit_gps_stacked", no_group)
        gp = GaussianProcessRegressor(Matern52(), seed=0).fit(*_data(80, 5))
        assert gp.n_fits == 1 and gp.n_lml_evals > 1

    def test_fit_gps_stacked_never_calls_fit(self, monkeypatch):
        def no_fit(self, *args, **kwargs):
            raise AssertionError("fit_gps_stacked called fit")

        monkeypatch.setattr(GaussianProcessRegressor, "fit", no_fit)
        gps = [GaussianProcessRegressor(Matern52(), seed=s) for s in range(2)]
        fit_gps_stacked(gps, *zip(*[_data(81 + s, 5) for s in range(2)]))
        assert [gp.n_fits for gp in gps] == [1, 1]


def test_bad_member_rejects_the_group_before_any_fit():
    gps = [GaussianProcessRegressor(Matern52(), seed=s) for s in range(2)]
    X, y = _data(90, 5)
    with pytest.raises(ValueError, match="rows but y has"):
        fit_gps_stacked(gps, [X, X], [y, y[:4]])
    assert [gp.n_fits for gp in gps] == [0, 0]


@pytest.mark.parametrize("seed", [0, 1])
def test_stepwise_driver_matches_minimize(seed):
    """The generator, driven by one objective, against ``minimize``."""
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-1.0, 1.0, size=3)
    bounds = np.array([[-2.0, 2.0], [-0.5, 3.0], [0.1, 2.5]])
    start = rng.uniform(bounds[:, 0], bounds[:, 1])

    def rosenbrock(x):
        z = x - shift
        f = np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (1.0 - z[:-1]) ** 2)
        g = np.zeros_like(z)
        g[:-1] = -400.0 * z[:-1] * (z[1:] - z[:-1] ** 2) - 2.0 * (1.0 - z[:-1])
        g[1:] += 200.0 * (z[1:] - z[:-1] ** 2)
        return float(f), g

    steps = _lbfgsb_steps(start, bounds)
    try:
        point = next(steps)
        while True:
            point = steps.send(rosenbrock(point))
    except StopIteration as stop:
        x, f = stop.value
    result = optimize.minimize(
        rosenbrock, start, method="L-BFGS-B", jac=True, bounds=bounds
    )
    assert np.array_equal(x, result.x)
    assert f == result.fun
