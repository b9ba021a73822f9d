"""Supervisor policy: crashes, errors and deadlines end in one serial run.

These tests script a fake executor so every failure mode is exercised
deterministically, without real processes or wall-clock races; the
integration behaviour over real local queue workers is covered in
``test_parallel_engine.py``.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.objectives import Objective
from repro.core.result import SearchResult, SearchStep
from repro.parallel.events import CellEvent
from repro.parallel.executors import CellOutcome
from repro.parallel.supervisor import SupervisionConfig, Supervisor


def _result(tag: str) -> SearchResult:
    return SearchResult(
        optimizer="scripted",
        objective=Objective.TIME,
        workload_id=tag,
        steps=(SearchStep(step=1, vm_name="vm", objective_value=1.0, best_value=1.0),),
        stopped_by="budget",
    )


class ScriptedExecutor:
    """A CellExecutor whose outcomes are scripted per submission.

    ``script[cell]`` is the cell's behaviour: ``"ok"`` (result),
    ``"fail"`` (application error), ``"crash"`` (worker death),
    ``"hang"`` (stays in flight until cancelled).
    """

    supports_cancel = True

    def __init__(self, script: dict[tuple, list[str]]) -> None:
        self.script = dict(script)
        self.queue: deque[CellOutcome] = deque()
        self.hanging: set = set()
        self.cancelled: list = []
        self.submissions: list = []
        self.shutdowns = 0

    def submit(self, cells) -> None:
        self.submissions.extend(cells)
        for cell in cells:
            behaviour = self.script[cell]
            if behaviour == "ok":
                self.queue.append(CellOutcome(cell=cell, result=_result(cell[0])))
            elif behaviour == "fail":
                self.queue.append(
                    CellOutcome(cell=cell, error=f"RuntimeError: scripted {cell}")
                )
            elif behaviour == "crash":
                self.queue.append(CellOutcome(cell=cell, crashed=True))
            elif behaviour == "hang":
                self.hanging.add(cell)
            else:  # pragma: no cover - test-author error
                raise AssertionError(behaviour)

    def poll(self, timeout=None):
        batch = list(self.queue)
        self.queue.clear()
        return batch

    def cancel(self, cell) -> bool:
        if cell in self.hanging:
            self.hanging.discard(cell)
            self.cancelled.append(cell)
            return True
        return False

    def started_at(self, cell):
        # Far in the past: any armed deadline has already expired.
        return 0.0 if cell in self.hanging else None

    def shutdown(self) -> None:
        self.shutdowns += 1


def serial_run(cell) -> SearchResult:
    return _result(f"serial-{cell[0]}")


def run_supervised(script, config=None, order=None, serial=serial_run):
    executor = ScriptedExecutor(script)
    events: list[CellEvent] = []
    supervisor = Supervisor(executor, serial, config=config, on_event=events.append)
    cells = order if order is not None else list(script)
    results = list(supervisor.run(cells))
    return executor, events, results


def kinds(events: list[CellEvent]) -> list[str]:
    return [event.kind for event in events]


class TestHappyPath:
    def test_yields_in_submission_order(self):
        script = {("a", 0): "ok", ("b", 0): "ok", ("c", 0): "ok"}
        _, events, results = run_supervised(script)
        assert [cell for cell, _ in results] == [("a", 0), ("b", 0), ("c", 0)]
        assert kinds(events).count("cell_finished") == 3

    def test_executor_shut_down_after_run(self):
        executor, _, _ = run_supervised({("a", 0): "ok"})
        assert executor.shutdowns >= 1


class TestRetries:
    def test_retries_exhausted_fall_back_to_serial(self):
        """The executor gave up on an application error (a queue row
        parked ``failed``): one serial attempt, mirrored into the result."""
        executor, events, results = run_supervised({("a", 0): "fail"})
        result = dict(results)[("a", 0)]
        assert result.workload_id == "serial-a"
        assert kinds(events) == [
            "cell_scheduled", "cell_failed", "cell_retried", "cell_finished"
        ]
        assert "RuntimeError: scripted" in events[1].detail
        assert events[2].detail == (
            "serial fallback after RuntimeError: scripted ('a', 0)"
        )
        assert result.events[0].kind == "cell_retried"
        assert result.events[0].detail == events[2].detail

    def test_default_policy_goes_straight_to_serial(self):
        script = {("a", 0): "fail"}
        executor, events, results = run_supervised(script)
        assert executor.submissions.count(("a", 0)) == 1
        assert dict(results)[("a", 0)].workload_id == "serial-a"

    def test_deterministic_serial_failure_propagates(self):
        def doomed(cell):
            raise RuntimeError("deterministic failure")

        with pytest.raises(RuntimeError, match="deterministic failure"):
            run_supervised({("a", 0): "fail"}, serial=doomed)


class TestSelfHealing:
    def test_degradation_drains_finished_work_first(self):
        """A sibling result in the same poll as a crash is kept, not
        recomputed serially."""
        script = {("a", 0): "ok", ("b", 0): "crash"}
        executor = ScriptedExecutor(script)
        events: list[CellEvent] = []
        serial_calls: list = []

        def counting_serial(cell):
            serial_calls.append(cell)
            return serial_run(cell)

        supervisor = Supervisor(executor, counting_serial, on_event=events.append)
        results = dict(supervisor.run([("a", 0), ("b", 0)]))
        assert results[("a", 0)].workload_id == "a"
        assert serial_calls == [("b", 0)]

    def test_poison_cell_is_pinned_not_resubmitted(self):
        script = {("a", 0): "crash", ("b", 0): "ok"}
        executor, events, results = run_supervised(script)
        assert kinds(events).count("cell_pinned") == 1
        assert executor.submissions.count(("a", 0)) == 1
        assert dict(results)[("a", 0)].workload_id == "serial-a"
        # A crash leaves no mirror: the result is the serial run's own.
        assert not dict(results)[("a", 0)].events


class TestDeadlines:
    def test_straggler_cancelled_and_completed_serially(self):
        config = SupervisionConfig(cell_timeout_s=5.0, poll_tick_s=0.01)
        script = {("a", 0): "hang", ("b", 0): "ok"}
        executor, events, results = run_supervised(script, config)
        assert executor.cancelled == [("a", 0)]
        assert kinds(events).count("cell_timeout") == 1
        by_cell = dict(results)
        assert by_cell[("a", 0)].workload_id == "serial-a"
        assert by_cell[("b", 0)].workload_id == "b"

    def test_no_deadline_without_cancel_support(self):
        class NoCancel(ScriptedExecutor):
            supports_cancel = False

            def submit(self, cells):
                # Without cancel support the supervisor must not arm
                # deadlines; hanging here would deadlock the test.
                for cell in cells:
                    self.queue.append(CellOutcome(cell=cell, result=_result(cell[0])))

        executor = NoCancel({})
        supervisor = Supervisor(
            executor,
            serial_run,
            config=SupervisionConfig(cell_timeout_s=0.01, poll_tick_s=0.01),
        )
        results = list(supervisor.run([("a", 0)]))
        assert results[0][1].workload_id == "a"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_timeout_s": 0.0},
            {"cell_timeout_s": -1.0},
            {"cell_timeout_s": float("nan")},
            {"poll_tick_s": float("nan")},
            {"poll_tick_s": 0.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionConfig(**kwargs)
