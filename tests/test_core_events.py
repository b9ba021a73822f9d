"""Structured per-search event stream (SearchEvent)."""

from __future__ import annotations

import pytest

from repro.analysis.runner import result_from_payload, result_to_payload, valid_payload
from repro.core.baselines import RandomSearch
from repro.core.events import EVENT_KINDS, SearchEvent
from repro.core.objectives import Objective
from repro.faults import FaultInjector, RetryPolicy, parse_fault_plan

WORKLOAD = "kmeans/Spark 2.1/small"


class TestSearchEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            SearchEvent(kind="nonsense", step=1)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            SearchEvent(kind="measurement_started", step=0)


class TestEmission:
    def test_fault_free_stream_shape(self, trace):
        result = RandomSearch(
            trace.environment(WORKLOAD), seed=0, max_measurements=5
        ).run()
        kinds = [event.kind for event in result.events]
        assert set(kinds) <= set(EVENT_KINDS)
        # One started + one finished per successful measurement, one
        # surrogate fit per acquisition round after the initial design.
        assert kinds.count("measurement_started") == result.search_cost
        assert kinds.count("measurement_finished") == result.search_cost
        assert kinds.count("measurement_failed") == 0
        assert kinds.count("surrogate_fitted") == result.search_cost - 3

    def test_started_precedes_finished_per_step(self, trace):
        result = RandomSearch(
            trace.environment(WORKLOAD), seed=1, max_measurements=5
        ).run()
        for step_record in result.steps:
            step_events = [e for e in result.events if e.step == step_record.step]
            lifecycle = [
                e.kind for e in step_events if e.kind.startswith("measurement")
            ]
            assert lifecycle[0] == "measurement_started"
            assert lifecycle[-1] == "measurement_finished"
            assert step_events[-1].vm_name == step_record.vm_name

    def test_failures_and_quarantine_appear(self, trace):
        plan = parse_fault_plan("outage:vm=c4.large", seed=0)
        result = RandomSearch(
            FaultInjector(trace.environment(WORKLOAD), plan),
            objective=Objective.TIME,
            seed=3,
            retry_policy=RetryPolicy(max_attempts=4),
            quarantine_after=3,
        ).run()
        assert "c4.large" in result.quarantined_vms
        kinds = [event.kind for event in result.events]
        assert "measurement_failed" in kinds
        quarantines = [e for e in result.events if e.kind == "vm_quarantined"]
        assert [e.vm_name for e in quarantines] == ["c4.large"]

    def test_rerun_resets_the_stream(self, trace):
        # A second run must not accumulate the first run's events (the
        # searches themselves differ: RandomSearch's RNG stream advances).
        optimizer = RandomSearch(
            trace.environment(WORKLOAD), seed=0, max_measurements=5
        )
        first = optimizer.run()
        second = optimizer.run()
        for result in (first, second):
            kinds = [event.kind for event in result.events]
            assert kinds.count("measurement_finished") == result.search_cost


class TestStoppingRuleFired:
    def test_fired_criterion_emits_event(self, trace):
        from repro.core.stopping import MaxMeasurements

        result = RandomSearch(
            trace.environment(WORKLOAD), seed=0, stopping=MaxMeasurements(4)
        ).run()
        assert result.stopped_by == "criterion"
        fired = [e for e in result.events if e.kind == "stopping_rule_fired"]
        assert len(fired) == 1
        assert fired[0].detail == "MaxMeasurements(budget=4)"
        assert fired[0].step == result.search_cost + 1
        # It is the last event of the stream: nothing happens after it.
        assert result.events[-1] is fired[0]

    def test_exhausted_search_emits_no_stopping_event(self, trace):
        result = RandomSearch(trace.environment(WORKLOAD), seed=0).run()
        assert result.stopped_by == "exhausted"
        assert all(e.kind != "stopping_rule_fired" for e in result.events)

    def test_budget_stop_emits_no_stopping_event(self, trace):
        result = RandomSearch(
            trace.environment(WORKLOAD), seed=0, max_measurements=5
        ).run()
        assert result.stopped_by == "budget"
        assert all(e.kind != "stopping_rule_fired" for e in result.events)

    def test_event_survives_cache_roundtrip(self, trace):
        from repro.core.stopping import MaxMeasurements

        result = RandomSearch(
            trace.environment(WORKLOAD), seed=1, stopping=MaxMeasurements(4)
        ).run()
        payload = result_to_payload(result)
        assert valid_payload(payload)
        restored = result_from_payload(payload, result.objective, WORKLOAD)
        assert restored == result
        fired = [e for e in restored.events if e.kind == "stopping_rule_fired"]
        assert [e.detail for e in fired] == ["MaxMeasurements(budget=4)"]


class TestCacheRoundtrip:
    def test_events_survive_json_roundtrip(self, trace):
        result = RandomSearch(
            trace.environment(WORKLOAD), seed=2, max_measurements=6
        ).run()
        payload = result_to_payload(result)
        assert valid_payload(payload)
        restored = result_from_payload(payload, result.objective, WORKLOAD)
        assert restored == result

    def test_payload_without_events_is_still_valid(self, trace):
        result = RandomSearch(
            trace.environment(WORKLOAD), seed=2, max_measurements=6
        ).run()
        payload = result_to_payload(result)
        del payload["events"]
        assert valid_payload(payload)
        restored = result_from_payload(payload, result.objective, WORKLOAD)
        assert restored.events == ()

    def test_malformed_events_rejected(self, trace):
        result = RandomSearch(
            trace.environment(WORKLOAD), seed=2, max_measurements=6
        ).run()
        payload = result_to_payload(result)
        payload["events"] = [["not-a-kind", 1, None, ""]]
        assert not valid_payload(payload)
        payload["events"] = [["measurement_started", 0, None, ""]]
        assert not valid_payload(payload)
