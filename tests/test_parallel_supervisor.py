"""Queue supervision: crashes, errors and deadlines end in one serial run.

These tests drive :func:`~repro.parallel.queue.supervise` over a
scripted stand-in for the queue executor, so every failure mode is
exercised deterministically, without real processes or wall-clock
races; the integration behaviour over real local queue workers is
covered in ``test_parallel_engine.py``.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.objectives import Objective
from repro.core.result import SearchResult, SearchStep
from repro.parallel.engine import run_cells
from repro.parallel.events import CellEvent
from repro.parallel.queue import CellOutcome, QueueConfig, supervise


def _result(tag: str) -> SearchResult:
    return SearchResult(
        optimizer="scripted",
        objective=Objective.TIME,
        workload_id=tag,
        steps=(SearchStep(step=1, vm_name="vm", objective_value=1.0, best_value=1.0),),
        stopped_by="budget",
    )


def serial_run(cell) -> SearchResult:
    return _result(f"serial-{cell[0]}")


def _never_built(environment, objective, seed):
    raise AssertionError("validation must precede any search")


class ScriptedExecutor:
    """Stands in for a ``QueueExecutor``, outcomes scripted per submission.

    ``script[cell]`` is the cell's behaviour: ``"ok"`` (result),
    ``"fail"`` (application error), ``"crash"`` (worker death),
    ``"hang"`` (stays in flight until cancelled).  ``run_cell`` is the
    serial completion path.
    """

    config = QueueConfig(poll_tick_s=0.01)

    def __init__(self, script: dict[tuple, list[str]], run_cell=serial_run) -> None:
        self.script = dict(script)
        self.run_cell = run_cell
        self.queue: deque[CellOutcome] = deque()
        self.hanging: set = set()
        self.cancelled: list = []
        self.submissions: list = []
        self.resolved: list = []
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

    def resolve_serial(self, cell, result) -> None:
        self.resolved.append((cell, result))

    def shutdown(self) -> None:
        self.shutdowns += 1


def run_supervised(script, cell_timeout_s=None, order=None, serial=serial_run):
    executor = ScriptedExecutor(script, serial)
    events: list[CellEvent] = []
    cells = order if order is not None else list(script)
    results = list(supervise(executor, cells, cell_timeout_s, events.append))
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
        # The queue's durable record gets the mirrored serial result.
        assert executor.resolved == [(("a", 0), result)]

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
        serial_calls: list = []

        def counting_serial(cell):
            serial_calls.append(cell)
            return serial_run(cell)

        _, _, results = run_supervised(script, serial=counting_serial)
        assert dict(results)[("a", 0)].workload_id == "a"
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
        script = {("a", 0): "hang", ("b", 0): "ok"}
        executor, events, results = run_supervised(script, cell_timeout_s=5.0)
        assert executor.cancelled == [("a", 0)]
        assert kinds(events).count("cell_timeout") == 1
        by_cell = dict(results)
        assert by_cell[("a", 0)].workload_id == "serial-a"
        assert by_cell[("b", 0)].workload_id == "b"

    def test_refused_cancel_leaves_the_cell_running(self):
        """An external worker's lease cannot be withdrawn: ``cancel()``
        returns False, so the overdue cell runs on to its own result."""

        class ExternalLease(ScriptedExecutor):
            def __init__(self, script) -> None:
                super().__init__(script)
                self.polls = 0
                self.refused: list = []

            def poll(self, timeout=None):
                self.polls += 1
                if self.polls == 3:  # the external worker finishes
                    return [CellOutcome(cell=("a", 0), result=_result("a"))]
                return []

            def cancel(self, cell) -> bool:
                self.refused.append(cell)
                return False

        executor = ExternalLease({("a", 0): "hang"})
        events: list[CellEvent] = []
        results = list(supervise(executor, [("a", 0)], 0.01, events.append))
        assert results[0][1].workload_id == "a"
        assert executor.refused == [("a", 0), ("a", 0)]
        assert "cell_timeout" not in kinds(events)
        assert executor.resolved == []


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_timeout": 0.0},
            {"cell_timeout": -1.0},
            {"cell_timeout": float("nan")},
            {"poll_tick_s": float("nan")},
            {"poll_tick_s": 0.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs, trace):
        """A bad deadline is refused as ``run_cells`` starts; a bad tick
        by the queue's config."""
        with pytest.raises(ValueError):
            if "poll_tick_s" in kwargs:
                QueueConfig(**kwargs)
            else:
                next(run_cells(trace, _never_built, Objective.TIME, [], **kwargs))
