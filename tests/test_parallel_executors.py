"""The queue executor's local fork pool: crash containment, cancellation."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.objectives import Objective
from repro.core.result import SearchResult, SearchStep
from repro.parallel.engine import _fork_available
from repro.parallel.queue import CellOutcome, QueueConfig, QueueExecutor


def _result(tag: str) -> SearchResult:
    return SearchResult(
        optimizer="scripted",
        objective=Objective.TIME,
        workload_id=tag,
        steps=(SearchStep(step=1, vm_name="vm", objective_value=1.0, best_value=1.0),),
        stopped_by="budget",
    )


def scripted_cell(cell):
    """Module-level so forked workers can run it; behaviour rides in the cell."""
    action, index = cell
    if action == "ok":
        return _result(f"ok-{index}")
    if action == "slow":
        time.sleep(0.2)
        return _result(f"slow-{index}")
    if action == "hang":
        time.sleep(60.0)
        return _result(f"hang-{index}")
    if action == "fail":
        raise RuntimeError(f"scripted failure {index}")
    if action == "exit":
        os._exit(13)
    raise AssertionError(f"unknown action {action}")


def drain(executor, n, deadline_s=30.0):
    """Poll until ``n`` outcomes arrived (or the deadline passed)."""
    outcomes: list[CellOutcome] = []
    deadline = time.monotonic() + deadline_s
    while len(outcomes) < n and time.monotonic() < deadline:
        outcomes.extend(executor.poll(0.2))
    return outcomes


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
class TestForkPoolExecutor:
    """``auto``'s fork pool: a :class:`QueueExecutor` whose pull-workers
    the coordinator forks, the one process backend."""

    @staticmethod
    def pool(tmp_path, workers, **kwargs):
        return QueueExecutor(
            QueueConfig(
                path=tmp_path / "pool.queue",
                cache_key="pool",
                workers=workers,
                stall_timeout_s=None,
                poll_tick_s=0.02,
                **kwargs,
            ),
            scripted_cell,
            Objective.TIME,
            lambda _action, index: index,
        )

    def test_completes_all_cells(self, tmp_path):
        executor = self.pool(tmp_path, workers=2)
        try:
            cells = [("ok", index) for index in range(5)]
            executor.submit(cells)
            outcomes = drain(executor, len(cells))
            assert sorted(o.cell for o in outcomes) == cells
            assert all(o.ok for o in outcomes)
        finally:
            executor.shutdown()

    def test_application_error_is_an_outcome_not_a_crash(self, tmp_path):
        executor = self.pool(tmp_path, workers=1, max_attempts=1)
        try:
            executor.submit([("fail", 7)])
            [outcome] = drain(executor, 1)
            assert outcome.cell == ("fail", 7)
            assert not outcome.ok and not outcome.crashed
            assert "scripted failure 7" in outcome.error
            # The worker survived the error and takes the next cell.
            executor.submit([("ok", 1)])
            [outcome] = drain(executor, 1)
            assert outcome.ok
        finally:
            executor.shutdown()

    def test_worker_death_is_contained_to_its_cell(self, tmp_path):
        executor = self.pool(tmp_path, workers=2, max_attempts=1)
        try:
            executor.submit([("exit", 0)] + [("ok", index) for index in range(3)])
            outcomes = drain(executor, 4)
            crashed = [o for o in outcomes if o.crashed]
            finished = [o for o in outcomes if o.ok]
            assert [o.cell for o in crashed] == [("exit", 0)]
            assert sorted(o.cell for o in finished) == [("ok", i) for i in range(3)]
        finally:
            executor.shutdown()

    def test_cancel_kills_only_the_straggler(self, tmp_path):
        executor = self.pool(tmp_path, workers=2)
        try:
            executor.submit([("hang", 0), ("slow", 1)])
            deadline = time.monotonic() + 10.0
            while executor.started_at(("hang", 0)) is None:
                executor.poll(0.05)
                assert time.monotonic() < deadline
            owner = executor.queue.lease_owner(("hang", 0))
            straggler = executor._workers[owner]
            assert executor.cancel(("hang", 0))
            straggler.join(timeout=10.0)
            assert straggler.exitcode == -signal.SIGTERM
            assert executor.started_at(("hang", 0)) is None
            # The sibling's result still arrives; the cancelled cell
            # only reports its withdrawal.
            outcomes = drain(executor, 2)
            assert [o.cell for o in outcomes if o.ok] == [("slow", 1)]
            assert [(o.cell, o.error) for o in outcomes if not o.ok] == [
                (("hang", 0), "cancelled by coordinator")
            ]
        finally:
            executor.shutdown()

    def test_cancel_withdraws_backlog_without_killing(self, tmp_path):
        executor = self.pool(tmp_path, workers=1)
        try:
            # Queued behind the only worker, which forks on the first poll.
            executor.submit([("slow", 0), ("ok", 99)])
            assert executor.cancel(("ok", 99))
            outcomes = drain(executor, 2)
            assert [o.cell for o in outcomes if o.ok] == [("slow", 0)]
            assert executor.queue.counts()["leased"] == 0
        finally:
            executor.shutdown()

    def test_capacity_heals_after_crash(self, tmp_path):
        executor = self.pool(tmp_path, workers=1, max_attempts=1)
        try:
            executor.submit([("exit", 0)])
            [outcome] = drain(executor, 1)
            assert outcome.crashed
            # The next cell runs on a freshly forked worker.
            executor.submit([("ok", 1)])
            [outcome] = drain(executor, 1)
            assert outcome.ok and outcome.cell == ("ok", 1)
        finally:
            executor.shutdown()

    def test_shutdown_is_idempotent(self, tmp_path):
        executor = self.pool(tmp_path, workers=2)
        executor.submit([("slow", 0)])
        executor.poll(0)
        executor.shutdown()
        executor.shutdown()
        assert executor.poll(0) == []

    def test_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            self.pool(tmp_path, workers=-1)
