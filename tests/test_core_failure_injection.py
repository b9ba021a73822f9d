"""Failure-injection tests: the search must degrade, not die.

Fault scenarios are built with :class:`repro.faults.FaultInjector` —
seeded, reproducible fault plans — and the SMBO loop must survive them:
transient failures are retried, persistently failing VMs are quarantined
(the search continues over the remaining catalog), corrupted
measurements are rejected, and every failed attempt is charged.
"""

import pytest

from repro.core.baselines import ExhaustiveSearch, RandomSearch
from repro.core.naive_bo import NaiveBO
from repro.core.smbo import MeasurementError
from repro.faults import (
    CorruptedMeasurements,
    FaultInjector,
    FaultPlan,
    PermanentOutage,
    RetryPolicy,
    TransientTimeouts,
)

WORKLOAD = "kmeans/Spark 2.1/small"


def faulty(trace, *rules, seed=0):
    return FaultInjector(trace.environment(WORKLOAD), FaultPlan(tuple(rules), seed=seed))


class TestTransientFailures:
    def test_every_third_call_failing_still_completes(self, trace):
        env = faulty(trace, TransientTimeouts(every=3))
        result = RandomSearch(
            env, seed=0, retry_policy=RetryPolicy.from_retries(1)
        ).run()
        assert result.search_cost == 18
        assert result.stopped_by == "exhausted"
        assert result.failure_count > 0
        assert result.charged_cost == 18 + result.failure_count

    def test_without_retries_failed_vms_are_revisited(self, trace):
        # No retries: a failed VM stays unmeasured and is re-proposed
        # later instead of aborting the whole search.
        env = faulty(trace, TransientTimeouts(every=4))
        result = RandomSearch(env, seed=0).run()
        assert result.search_cost == 18
        assert not result.quarantined_vms

    def test_retried_search_matches_reliable_search_outcome(self, trace):
        reliable = RandomSearch(trace.environment(WORKLOAD), seed=4).run()
        env = faulty(trace, TransientTimeouts(every=4))
        retried = RandomSearch(
            env, seed=4, retry_policy=RetryPolicy.from_retries(2)
        ).run()
        # Trace replay is deterministic, so retries change nothing but cost.
        assert retried.measured_vm_names == reliable.measured_vm_names
        assert retried.best_value == pytest.approx(reliable.best_value)
        assert retried.best_vm_name == reliable.best_vm_name

    def test_random_transient_faults_reach_the_same_best_vm(self, trace):
        # Acceptance: a 1-in-3 random-failure environment finds the same
        # best VM as the fault-free run under the same optimiser seed.
        clean = NaiveBO(trace.environment(WORKLOAD), seed=0).run()
        env = faulty(trace, TransientTimeouts(rate=1 / 3), seed=11)
        noisy = NaiveBO(env, seed=0, retry_policy=RetryPolicy.from_retries(3)).run()
        assert noisy.best_vm_name == clean.best_vm_name
        assert noisy.best_value == pytest.approx(clean.best_value)

    def test_environment_bill_matches_charged_cost(self, trace):
        env = faulty(trace, TransientTimeouts(every=3))
        result = RandomSearch(
            env, seed=0, retry_policy=RetryPolicy.from_retries(1)
        ).run()
        # Failed attempts are billed by the cloud and counted by us.
        assert env.measurement_count == result.charged_cost


class TestPermanentFailures:
    def test_dead_vm_is_quarantined_and_search_completes(self, trace):
        env = faulty(trace, PermanentOutage("c3.large"))
        result = ExhaustiveSearch(
            env, seed=0, retry_policy=RetryPolicy.from_retries(2)
        ).run()
        assert result.quarantined_vms == ("c3.large",)
        assert result.search_cost == 17  # every reachable VM measured
        assert result.stopped_by == "exhausted"
        assert "c3.large" not in result.measured_vm_names

    def test_failure_events_record_the_cause(self, trace):
        env = faulty(trace, PermanentOutage("c3.large"))
        result = ExhaustiveSearch(
            env, seed=0, retry_policy=RetryPolicy.from_retries(2)
        ).run()
        c3_events = [e for e in result.failure_events if e.vm_name == "c3.large"]
        assert len(c3_events) == 3  # quarantined after 3 consecutive failures
        assert [e.attempt for e in c3_events] == [1, 2, 3]
        assert all("VMUnavailableError" in e.error for e in c3_events)
        assert all("permanently unavailable" in e.error for e in c3_events)

    def test_all_vms_dead_raises_measurement_error(self, trace):
        names = [vm.name for vm in trace.catalog]
        env = faulty(trace, PermanentOutage(*names))
        with pytest.raises(MeasurementError, match="no initial measurement"):
            RandomSearch(env, seed=0).run()

    def test_negative_retries_rejected(self, trace):
        with pytest.raises(ValueError, match="measure_retries"):
            RandomSearch(
                trace.environment(WORKLOAD), retry_policy=RetryPolicy.from_retries(-1)
            )


class TestCorruptedMeasurements:
    def test_nan_measurements_are_rejected_and_retried(self, trace):
        env = faulty(trace, CorruptedMeasurements(every=5, mode="nan"))
        result = RandomSearch(
            env, seed=0, retry_policy=RetryPolicy.from_retries(2)
        ).run()
        assert result.search_cost == 18
        assert all(step.objective_value > 0 for step in result.steps)
        assert any("CorruptedMeasurementError" in e.error for e in result.failure_events)

    def test_negative_measurements_are_rejected(self, trace):
        env = faulty(trace, CorruptedMeasurements(every=6, mode="negative"))
        result = RandomSearch(
            env, seed=0, retry_policy=RetryPolicy.from_retries(2)
        ).run()
        assert all(step.objective_value > 0 for step in result.steps)


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self, trace):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=2.0, jitter=0.5)

        def run_once():
            env = faulty(trace, TransientTimeouts(rate=0.3), seed=9)
            return RandomSearch(env, seed=5, retry_policy=policy).run()

        a, b = run_once(), run_once()
        assert a == b  # steps, failure events, quarantine, retry waits

    def test_backoff_waits_are_deterministic_and_positive(self, trace):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=1.0, jitter=1.0)

        def run_once():
            env = faulty(trace, TransientTimeouts(every=2), seed=0)
            return RandomSearch(env, seed=7, retry_policy=policy).run()

        a, b = run_once(), run_once()
        assert a.retry_wait_s == pytest.approx(b.retry_wait_s)
        assert a.retry_wait_s > 0

    def test_rerun_of_same_optimizer_instance_is_identical(self, trace):
        env = faulty(trace, TransientTimeouts(every=3), seed=2)
        optimizer = ExhaustiveSearch(
            env, seed=1, retry_policy=RetryPolicy.from_retries(1)
        )
        assert optimizer.run() == optimizer.run()


class TestBudgetAccounting:
    def test_failed_attempts_count_against_the_budget(self, trace):
        env = faulty(trace, TransientTimeouts(every=2))
        result = RandomSearch(
            env, seed=0, retry_policy=RetryPolicy.from_retries(3), max_measurements=8
        ).run()
        assert result.stopped_by == "budget"
        assert result.charged_cost == 8
        assert result.search_cost < 8  # some of the 8 charges failed

    def test_budget_exhaustion_mid_retry_stops_cleanly(self, trace):
        env = faulty(trace, PermanentOutage("c3.large"))
        # One success, then c3.large burns the remaining budget mid-retry.
        result = ExhaustiveSearch(
            env, seed=0, retry_policy=RetryPolicy.from_retries(5),
            max_measurements=3, quarantine_after=10,
        ).run(initial_vms=[1, 0])
        assert result.stopped_by == "budget"
        assert result.charged_cost == 3
        assert result.search_cost == 1
        assert not result.quarantined_vms  # threshold never reached

    def test_step_attempt_counts_recorded(self, trace):
        env = faulty(trace, TransientTimeouts(every=3))
        result = RandomSearch(
            env, seed=0, retry_policy=RetryPolicy.from_retries(2)
        ).run()
        assert any(step.attempts > 1 for step in result.steps)
        retries_within_steps = sum(step.attempts - 1 for step in result.steps)
        assert retries_within_steps <= result.failure_count
