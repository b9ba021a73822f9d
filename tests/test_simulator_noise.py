"""Unit tests for the interference-noise model."""

import numpy as np
import pytest

from repro.simulator.noise import InterferenceModel

NO_METRICS = np.empty((1, 0))
METRICS = np.array([[50.0, 10.0, 8.0, 70.0, 30.0, 5.0]])


def perturb_time(model: InterferenceModel, time_s: float) -> float:
    """One run's noisy execution time."""
    return float(model.perturb(np.array([time_s]), NO_METRICS)[0][0])


def perturb_metrics(model: InterferenceModel, metrics: np.ndarray) -> np.ndarray:
    """One run's noisy metric row (the time draw is taken and discarded)."""
    return model.perturb(np.array([1.0]), metrics)[1][0]


class TestTimeNoise:
    def test_same_seed_same_sequence(self):
        a = InterferenceModel(seed=42)
        b = InterferenceModel(seed=42)
        assert [perturb_time(a, 100.0) for _ in range(5)] == [
            perturb_time(b, 100.0) for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        a = InterferenceModel(seed=1)
        b = InterferenceModel(seed=2)
        assert perturb_time(a, 100.0) != perturb_time(b, 100.0)

    def test_zero_sigma_is_identity(self):
        model = InterferenceModel(time_sigma=0.0, seed=0)
        assert perturb_time(model, 123.4) == 123.4

    def test_noise_is_multiplicative_and_positive(self):
        model = InterferenceModel(time_sigma=0.5, seed=3)
        values = [perturb_time(model, 100.0) for _ in range(200)]
        assert all(v > 0 for v in values)

    def test_noise_magnitude_tracks_sigma(self):
        small = InterferenceModel(time_sigma=0.01, seed=4)
        large = InterferenceModel(time_sigma=0.3, seed=4)
        spread_small = np.std([perturb_time(small, 100.0) for _ in range(300)])
        spread_large = np.std([perturb_time(large, 100.0) for _ in range(300)])
        assert spread_large > 5 * spread_small

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            InterferenceModel(time_sigma=-0.1)

    def test_unbiased_in_log_space(self):
        model = InterferenceModel(time_sigma=0.05, seed=5)
        values = np.array([perturb_time(model, 100.0) for _ in range(3000)])
        assert np.mean(np.log(values)) == pytest.approx(np.log(100.0), abs=0.01)


class TestMetricNoise:
    def test_zero_sigma_is_identity(self):
        model = InterferenceModel(metric_sigma=0.0, seed=0)
        assert np.array_equal(perturb_metrics(model, METRICS), METRICS[0])

    def test_each_component_perturbed_independently(self):
        model = InterferenceModel(metric_sigma=0.2, seed=6)
        noisy = perturb_metrics(model, METRICS)
        ratios = noisy / METRICS[0]
        assert len(set(np.round(ratios, 6))) == 6

    def test_metrics_stay_positive(self):
        model = InterferenceModel(metric_sigma=0.5, seed=7)
        for _ in range(100):
            assert np.all(perturb_metrics(model, METRICS) > 0)

    def test_seed_and_noise_model_mutually_exclusive_in_cloud(self):
        from repro.simulator.cluster import SimulatedCloud
        from repro.workloads.registry import default_registry

        workload = next(iter(default_registry()))
        with pytest.raises(ValueError, match="not both"):
            SimulatedCloud(workload, noise=InterferenceModel(), seed=1)


class TestBlockDraws:
    @pytest.mark.parametrize(
        "time_sigma, metric_sigma", [(0.03, 0.05), (0.0, 0.05), (0.03, 0.0), (0.0, 0.0)]
    )
    def test_block_equals_one_run_at_a_time(self, time_sigma, metric_sigma):
        rng = np.random.default_rng(0)
        times = rng.uniform(10.0, 100.0, size=7)
        metrics = rng.uniform(1.0, 90.0, size=(7, 6))
        block = InterferenceModel(time_sigma, metric_sigma, seed=11)
        single = InterferenceModel(time_sigma, metric_sigma, seed=11)
        block_times, block_metrics = block.perturb(times, metrics)
        for i in range(len(times)):
            one_time, one_metrics = single.perturb(times[i : i + 1], metrics[i : i + 1])
            assert block_times[i] == one_time[0]
            assert np.array_equal(block_metrics[i], one_metrics[0])
