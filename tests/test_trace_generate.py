"""Unit tests for trace generation."""

import numpy as np
import pytest

from repro.cloud.catalog import get_catalog
from repro.trace.generate import (
    DEFAULT_TRACE_SEED,
    canonical_trace,
    default_trace,
    generate_trace,
)
from tests.trace_reference import reference_trace


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = generate_trace(seed=123)
        b = generate_trace(seed=123)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.costs, b.costs)
        assert np.array_equal(a.metrics, b.metrics)

    def test_different_seed_differs(self):
        a = generate_trace(seed=1)
        b = generate_trace(seed=2)
        assert not np.array_equal(a.times, b.times)

    def test_default_trace_uses_canonical_seed(self, trace):
        assert trace.seed == DEFAULT_TRACE_SEED

    def test_default_trace_memoised(self):
        assert default_trace() is default_trace()


class TestNoiseControls:
    def test_zero_sigma_gives_model_truth(self, clean_trace, registry):
        from repro.simulator.perfmodel import PerformanceModel

        model = PerformanceModel()
        truth = np.array(
            [
                [model.execution_time(vm, workload.profile) for vm in clean_trace.catalog]
                for workload in registry
            ]
        )
        assert np.array_equal(clean_trace.times, truth)

    def test_noisy_trace_close_to_clean(self, trace, clean_trace):
        log_ratio = np.log(trace.times / clean_trace.times)
        assert np.abs(log_ratio).max() < 0.25
        assert np.abs(log_ratio).mean() < 0.05


class TestReferenceEquivalence:
    """Row-wise synthesis equals measuring every cell one at a time."""

    @staticmethod
    def _assert_matches(trace, expected):
        for actual, want in zip((trace.times, trace.costs, trace.metrics), expected):
            assert np.array_equal(actual, want)

    @pytest.mark.parametrize("catalog_name", ["aws-2017", "aws-large", "multicloud"])
    def test_canonical_trace_bit_identical(self, catalog_name, registry):
        expected = reference_trace(
            DEFAULT_TRACE_SEED, registry, get_catalog(catalog_name)
        )
        self._assert_matches(canonical_trace(catalog_name), expected)

    @pytest.mark.parametrize(
        "time_sigma, metric_sigma", [(0.0, None), (None, 0.0), (0.0, 0.0)]
    )
    def test_zero_sigmas_bit_identical(self, time_sigma, metric_sigma, registry):
        catalog = get_catalog("multicloud")
        sigmas = {
            key: value
            for key, value in (("time_sigma", time_sigma), ("metric_sigma", metric_sigma))
            if value is not None
        }
        trace = generate_trace(seed=31, catalog=catalog, **sigmas)
        self._assert_matches(trace, reference_trace(31, registry, catalog, **sigmas))


class TestDatasetShape:
    """The empirical claims of Section II must emerge from the trace."""

    def test_time_spread_reaches_paper_magnitude(self, trace, registry):
        max_spread = max(trace.spread(w, "time") for w in registry)
        assert max_spread > 10, "worst/best time ratio should approach the paper's 20x"

    def test_cost_spread_reaches_paper_magnitude(self, trace, registry):
        max_spread = max(trace.spread(w, "cost") for w in registry)
        assert max_spread > 3.5, "worst/best cost ratio should be several-fold"

    def test_no_single_vm_rules_time(self, trace, registry):
        winners = {trace.best_vm(w, "time").name for w in registry}
        assert len(winners) >= 3

    def test_no_single_vm_rules_cost(self, trace, registry):
        winners = {trace.best_vm(w, "cost").name for w in registry}
        assert len(winners) >= 5

    def test_cost_compresses_the_spread(self, trace, registry):
        """Introducing price compresses performance differences — the
        'level playing field' of Figure 6: the median worst/best ratio is
        much smaller under cost than under time."""
        time_spread = np.median([trace.spread(w, "time") for w in registry])
        cost_spread = np.median([trace.spread(w, "cost") for w in registry])
        assert cost_spread < 0.7 * time_spread

    def test_most_expensive_vm_not_always_fastest(self, trace, registry):
        fastest_fraction = np.mean(
            [trace.best_vm(w, "time").name == "r3.2xlarge" for w in registry]
        )
        assert fastest_fraction < 0.5

    def test_cheapest_vm_not_always_cheapest_to_run(self, trace, registry):
        cheapest_fraction = np.mean(
            [trace.best_vm(w, "cost").name == "c4.large" for w in registry]
        )
        assert cheapest_fraction < 0.5
