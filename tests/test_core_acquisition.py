"""Unit and property tests for acquisition functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.acquisition import (
    expected_improvement,
    lower_confidence_bound,
    prediction_delta,
    probability_of_improvement,
    top_q_indices,
)


def _top_q_reference(scores: np.ndarray, q: int) -> list[int]:
    """The order top_q_indices promises: one full stable argsort."""
    scores = np.asarray(scores, dtype=float).ravel()
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order[: min(q, scores.size)]]


class TestExpectedImprovement:
    def test_prefers_lower_mean_at_equal_std(self):
        mean = np.array([10.0, 5.0, 8.0])
        std = np.ones(3)
        ei = expected_improvement(mean, std, best_observed=9.0)
        assert np.argmax(ei) == 1

    def test_prefers_higher_std_at_equal_mean(self):
        mean = np.full(2, 10.0)
        std = np.array([0.5, 3.0])
        ei = expected_improvement(mean, std, best_observed=9.0)
        assert ei[1] > ei[0]

    def test_zero_std_gives_deterministic_improvement(self):
        mean = np.array([5.0, 12.0])
        std = np.zeros(2)
        ei = expected_improvement(mean, std, best_observed=10.0)
        assert ei[0] == pytest.approx(5.0)
        assert ei[1] == 0.0

    def test_known_analytic_value(self):
        # improvement = 1, std = 1 -> EI = Phi(1) + phi(1).
        from scipy import stats

        ei = expected_improvement(np.array([0.0]), np.array([1.0]), best_observed=1.0)
        assert ei[0] == pytest.approx(stats.norm.cdf(1) + stats.norm.pdf(1))

    @settings(max_examples=50, deadline=None)
    @given(
        mean=st.lists(st.floats(-100, 100), min_size=1, max_size=10),
        std_scale=st.floats(0, 10),
        best=st.floats(-100, 100),
    )
    def test_ei_is_never_negative(self, mean, std_scale, best):
        mean_arr = np.array(mean)
        std = np.full(len(mean), std_scale)
        ei = expected_improvement(mean_arr, std, best)
        assert np.all(ei >= 0)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError, match="shape"):
            expected_improvement(np.zeros(3), np.zeros(2), 0.0)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            expected_improvement(np.zeros(2), np.array([1.0, -1.0]), 0.0)


class TestProbabilityOfImprovement:
    def test_half_probability_at_incumbent(self):
        pi = probability_of_improvement(np.array([10.0]), np.array([2.0]), 10.0)
        assert pi[0] == pytest.approx(0.5)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        pi = probability_of_improvement(rng.normal(size=50), np.abs(rng.normal(size=50)), 0.0)
        assert np.all((pi >= 0) & (pi <= 1))

    def test_zero_std_is_indicator(self):
        pi = probability_of_improvement(np.array([5.0, 15.0]), np.zeros(2), 10.0)
        assert pi.tolist() == [1.0, 0.0]


class TestLowerConfidenceBound:
    def test_kappa_zero_reduces_to_prediction_delta(self):
        mean = np.array([3.0, 1.0, 2.0])
        lcb = lower_confidence_bound(mean, np.ones(3), kappa=0.0)
        assert np.allclose(lcb, prediction_delta(mean))

    def test_higher_kappa_rewards_uncertainty(self):
        mean = np.full(2, 5.0)
        std = np.array([0.1, 2.0])
        assert np.argmax(lower_confidence_bound(mean, std, kappa=3.0)) == 1

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            lower_confidence_bound(np.zeros(1), np.ones(1), kappa=-1.0)


class TestPredictionDelta:
    def test_argmax_is_argmin_of_mean(self):
        mean = np.array([4.0, 9.0, 1.0, 6.0])
        assert np.argmax(prediction_delta(mean)) == np.argmin(mean)

    @settings(max_examples=50, deadline=None)
    @given(mean=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_scores_are_elementwise_negation(self, mean):
        mean_arr = np.array(mean)
        assert np.array_equal(prediction_delta(mean_arr), -mean_arr)


class TestTopQIndices:
    """top_q_indices must order like one full stable argsort — argmax
    first, ties to the lowest position — for every q from 1 to n."""

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(
            # A handful of repeated values forces heavy ties, the case
            # argpartition alone gets wrong.
            st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
            min_size=1,
            max_size=120,
        )
    )
    def test_matches_reference_for_every_q(self, scores):
        arr = np.array(scores)
        for q in range(1, arr.size + 1):
            assert top_q_indices(arr, q) == _top_q_reference(arr, q)

    @settings(max_examples=40, deadline=None)
    @given(
        scores=st.lists(
            st.floats(-1e9, 1e9), min_size=65, max_size=200
        ),
        q=st.integers(1, 50),
    )
    def test_large_distinct_inputs_hit_fast_path(self, scores, q):
        arr = np.array(scores)
        assert top_q_indices(arr, q) == _top_q_reference(arr, q)

    def test_catalog_scale_with_ties(self):
        rng = np.random.default_rng(0)
        arr = rng.choice([0.0, 1.0, 2.0, 3.0], size=390)
        for q in (1, 4, 64, 65, 200, 390):
            assert top_q_indices(arr, q) == _top_q_reference(arr, q)
        assert top_q_indices(arr, 1) == [int(np.argmax(arr))]

    def test_nan_scores_fall_back_to_stable_sort(self):
        arr = np.full(100, 1.0)
        arr[10] = np.nan
        arr[50] = 5.0
        assert top_q_indices(arr, 3) == _top_q_reference(arr, 3)


class TestStandardNormal:
    """The acquisition module's normal cdf/pdf/logsf are scipy.stats.norm's
    values bit for bit (the golden digests hash the scores), on finite and
    infinite inputs alike."""

    @staticmethod
    def _same_bits(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        values=hnp.arrays(
            dtype=float,
            shape=st.integers(0, 40),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        )
    )
    def test_matches_scipy_stats(self, values):
        from scipy import stats

        from repro.core import acquisition

        edges = np.array([0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 8.3, -38.5])
        x = np.concatenate([values, edges])
        assert self._same_bits(acquisition._norm_cdf(x), stats.norm.cdf(x))
        assert self._same_bits(acquisition._norm_pdf(x), stats.norm.pdf(x))
        logsf, expected = acquisition._norm_logsf(x), stats.norm.logsf(x)
        # The one difference is the sign of zero at x = -inf (log_ndtr
        # gives -0.0 where scipy.stats places +0.0): equal values.
        finite_side = x != -np.inf
        assert self._same_bits(logsf[finite_side], expected[finite_side])
        assert np.all(logsf[~finite_side] == expected[~finite_side])
