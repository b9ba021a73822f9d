"""Durable work queue: lease semantics, crash recovery, executor parity.

Lease mechanics run against an injected fake clock, so expiry and
backoff windows are exact, not slept.  Crash recovery uses real forked
workers and real ``SIGKILL`` — the scenario the queue exists for.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.runner import (
    ExperimentRunner,
    RunGrid,
    result_from_payload,
    result_to_payload,
)
from repro.core.baselines import RandomSearch
from repro.core.objectives import Objective
from repro.core.result import SearchResult, SearchStep
from repro.parallel import queue as queue_module
from repro.parallel.engine import _fork_available
from repro.parallel.queue import (
    QueueConfig,
    QueueExecutor,
    WorkQueue,
    queue_worker_loop,
)

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="requires fork start method"
)


def _result(tag: str) -> SearchResult:
    return SearchResult(
        optimizer="scripted",
        objective=Objective.TIME,
        workload_id=tag,
        steps=(SearchStep(step=1, vm_name="vm", objective_value=1.0, best_value=1.0),),
        stopped_by="budget",
    )


class FakeClock:
    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def queue(tmp_path, clock):
    work_queue = WorkQueue(
        tmp_path / "grid.queue",
        "grid",
        max_attempts=3,
        lease_duration_s=10.0,
        clock=clock,
    )
    yield work_queue
    work_queue.close()


def _event_kinds(queue) -> list[str]:
    return [kind for _id, kind, _cell, _detail in queue.events_since(0)]


class TestLeaseSemantics:
    def test_concurrent_claimers_get_disjoint_cells(self, queue):
        queue.enqueue([(("a", 0), 1), (("b", 0), 2)])
        first = queue.claim("w1")
        second = queue.claim("w2")
        third = queue.claim("w3")
        assert {first.cell, second.cell} == {("a", 0), ("b", 0)}
        assert third is None

    def test_claim_follows_enqueue_order(self, queue):
        queue.enqueue([(("a", 0), 1), (("b", 0), 2)])
        queue.enqueue([(("c", 0), 3)])
        assert [queue.claim("w").cell for _ in range(3)] == [
            ("a", 0), ("b", 0), ("c", 0),
        ]

    def test_lease_carries_stored_seed_and_attempt(self, queue):
        queue.enqueue([(("a", 0), 42)])
        lease = queue.claim("w")
        assert lease.seed == 42
        assert lease.attempts == 1
        assert lease.owner == "w"
        assert lease.deadline == pytest.approx(queue._clock() + 10.0)

    def test_expired_lease_is_reclaimable_exactly_once(self, queue, clock):
        queue.enqueue([(("a", 0), 1)])
        queue.claim("victim")
        clock.advance(11.0)
        recovered = queue.claim("rescuer")
        assert recovered.cell == ("a", 0)
        assert recovered.attempts == 2  # the lost attempt stays counted
        assert queue.claim("greedy") is None
        kinds = _event_kinds(queue)
        assert kinds.count("lease_expired") == 1
        assert kinds.count("worker_lost") == 1
        assert kinds.count("cell_requeued") == 1

    def test_heartbeat_extends_the_lease(self, queue, clock):
        queue.enqueue([(("a", 0), 1)])
        lease = queue.claim("w")
        clock.advance(8.0)
        assert queue.heartbeat(lease.cell, "w")
        clock.advance(8.0)  # 16s since claim, 8s since heartbeat
        assert queue.sweep_expired() == []
        assert queue.counts()["leased"] == 1

    def test_heartbeat_after_expiry_reports_lease_lost(self, queue, clock):
        queue.enqueue([(("a", 0), 1)])
        lease = queue.claim("w")
        clock.advance(11.0)
        queue.sweep_expired()
        assert not queue.heartbeat(lease.cell, "w")

    def test_attempts_beyond_max_transition_to_poisoned(self, queue, clock):
        queue.enqueue([(("a", 0), 1)])
        for _ in range(3):  # max_attempts=3 workers die holding the lease
            assert queue.claim("doomed") is not None
            clock.advance(11.0)
        queue.sweep_expired()
        assert queue.counts()["poisoned"] == 1
        assert queue.claim("w") is None
        kinds = _event_kinds(queue)
        assert kinds.count("cell_poisoned") == 1
        assert kinds.count("cell_requeued") == 2

    def test_complete_is_guarded_against_lost_leases(self, queue, clock):
        """At-most-once result recording under at-least-once execution."""
        queue.enqueue([(("a", 0), 1)])
        queue.claim("slow")
        clock.advance(11.0)
        queue.claim("fast")
        assert queue.complete(("a", 0), "fast", {"winner": "fast"})
        # The original worker finishes late: its write must be refused.
        assert not queue.complete(("a", 0), "slow", {"winner": "slow"})
        [(cell, state, payload, _error, _attempts)] = queue.terminal_cells()
        assert (cell, state, payload) == (("a", 0), "done", {"winner": "fast"})
        kinds = _event_kinds(queue)
        assert kinds.count("cell_done") == 1  # no double write recorded

    def test_fail_requeues_with_backoff_window(self, queue, clock):
        queue.enqueue([(("a", 0), 1)])
        queue.claim("w")
        assert queue.fail(("a", 0), "w", "RuntimeError: boom", requeue_delay_s=5.0)
        assert queue.claim("w") is None  # still inside the backoff window
        clock.advance(5.0)
        retry = queue.claim("w")
        assert retry.cell == ("a", 0)
        assert retry.attempts == 2

    def test_fail_at_attempt_budget_is_terminal(self, queue, clock):
        queue.enqueue([(("a", 0), 1)])
        for _ in range(3):
            lease = queue.claim("w")
            queue.fail(lease.cell, "w", "RuntimeError: boom")
        [(cell, state, _payload, error, attempts)] = queue.terminal_cells()
        assert (cell, state, attempts) == (("a", 0), "failed", 3)
        assert "boom" in error
        assert "cell_failed" in _event_kinds(queue)

    def test_fail_by_non_owner_is_refused(self, queue):
        queue.enqueue([(("a", 0), 1)])
        queue.claim("w")
        assert not queue.fail(("a", 0), "impostor", "nope")

    def test_enqueue_revives_failed_but_keeps_done(self, queue, clock):
        queue.enqueue([(("a", 0), 1), (("b", 0), 2)])
        lease = queue.claim("w")
        while lease is not None and lease.cell != ("a", 0):
            lease = queue.claim("w")
        queue.complete(("a", 0), "w", {"kept": True})
        b = queue.claim("w")
        for _ in range(3):
            if b is not None:
                queue.fail(b.cell, "w", "RuntimeError: boom")
            b = queue.claim("w")
        counts = queue.counts()
        assert counts["done"] == 1 and counts["failed"] == 1
        enqueued = queue.enqueue([(("a", 0), 1), (("b", 0), 2)])
        assert enqueued.touched == 1  # only the failed row revived
        assert enqueued.finished == [("a", 0)]
        assert queue.counts() == {
            "pending": 1, "leased": 0, "done": 1, "failed": 0, "poisoned": 0,
        }
        retry = queue.claim("w")
        assert retry.cell == ("b", 0)
        assert retry.attempts == 1  # revival resets the attempt budget

    def test_enqueue_leaves_live_leases_alone(self, queue):
        queue.enqueue([(("a", 0), 1)])
        queue.claim("w")
        assert queue.enqueue([(("a", 0), 9)]) == (0, [])
        assert queue.counts()["leased"] == 1

    def test_sweep_without_expired_lease_takes_no_write_lock(self, queue, clock):
        queue.enqueue([(("a", 0), 1), (("b", 0), 2)])
        queue.claim("w")
        statements: list[str] = []
        queue._con.set_trace_callback(statements.append)
        assert queue.sweep_expired() == []
        assert not [s for s in statements if s.startswith("BEGIN")]
        # A claim with nothing to sweep is one write transaction.
        assert queue.claim("w").cell == ("b", 0)
        assert statements.count("BEGIN IMMEDIATE") == 1
        statements.clear()
        clock.advance(11.0)
        assert sorted(t[0] for t in queue.sweep_expired()) == [("a", 0), ("b", 0)]
        assert statements.count("BEGIN IMMEDIATE") == 1
        queue._con.set_trace_callback(None)

    def test_expire_owner_recovers_known_dead_worker_immediately(self, queue):
        queue.enqueue([(("a", 0), 1)])
        queue.claim("dead")
        [(cell, state, attempts, owner)] = queue.expire_owner("dead")
        assert (cell, state, owner) == (("a", 0), "pending", "dead")
        assert queue.claim("w").attempts == 2

    def test_reconcile_marks_cached_cells_done(self, queue, clock):
        queue.enqueue([(("a", 0), 1), (("b", 0), 2)])
        queue.claim("w")  # one leased, one pending — an interrupted run
        changed = queue.reconcile([("a", 0), ("b", 0), ("c", 0)])
        assert changed == 3  # both rows plus the upserted missing one
        assert queue.counts()["done"] == 3
        assert queue.drained()
        assert queue.claim("w") is None
        assert _event_kinds(queue).count("cell_reconciled") == 3
        # Re-reconciling is idempotent.
        assert queue.reconcile([("a", 0)]) == 0

    def test_reconcile_keeps_stored_results(self, queue):
        queue.enqueue([(("a", 0), 1)])
        queue.claim("w")
        queue.complete(("a", 0), "w", {"payload": 1})
        queue.reconcile([("a", 0)])
        [(_cell, state, payload, _error, _attempts)] = queue.terminal_cells()
        assert state == "done" and payload == {"payload": 1}

    def test_status_readers(self, queue, clock):
        queue.enqueue([(("a", 0), 1), (("b", 0), 2), (("c", 0), 3)])
        queue.claim("w1")
        clock.advance(2.0)
        assert not queue.drained()
        counts = queue.counts()
        assert counts["pending"] == 2 and counts["leased"] == 1
        [(cell, owner, attempts, beat_age, expires_in)] = queue.leases()
        assert owner == "w1" and attempts == 1
        assert beat_age == pytest.approx(2.0)
        assert expires_in == pytest.approx(8.0)
        assert queue.attempt_histogram() == {1: 1}


class TestDurability:
    def test_attach_adopts_recorded_parameters(self, tmp_path, clock):
        with WorkQueue(
            tmp_path / "g.queue", "key", max_attempts=5,
            lease_duration_s=7.5, clock=clock,
        ) as queue:
            queue.enqueue([(("a", 0), 1)])
        attached = WorkQueue.attach(tmp_path / "g.queue")
        try:
            assert attached.cache_key == "key"
            assert attached.max_attempts == 5
            assert attached.lease_duration_s == 7.5
            assert attached.counts()["pending"] == 1
        finally:
            attached.close()

    def test_open_with_wrong_grid_key_is_refused(self, tmp_path, clock):
        WorkQueue(tmp_path / "g.queue", "key", clock=clock).close()
        with pytest.raises(ValueError, match="belongs to grid"):
            WorkQueue(tmp_path / "g.queue", "other-key", clock=clock)

    def test_attach_missing_file_is_refused(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            WorkQueue.attach(tmp_path / "absent.queue")

    def test_attach_non_queue_file_is_refused(self, tmp_path):
        bogus = tmp_path / "bogus.queue"
        con = sqlite3.connect(bogus)
        con.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        con.commit()
        con.close()
        with pytest.raises(ValueError, match="schema"):
            WorkQueue.attach(bogus)

    def test_attach_non_database_file_is_refused(self, tmp_path):
        garbage = tmp_path / "garbage.queue"
        garbage.write_bytes(b"not a database at all" * 100)
        with pytest.raises(ValueError, match="not a work queue"):
            WorkQueue.attach(garbage)

    def test_max_seq_reads_the_seq_index(self, tmp_path, clock):
        """enqueue/reconcile/record_external each read MAX(seq); the
        index keeps that O(log n) instead of a full scan."""
        with WorkQueue(tmp_path / "g.queue", "key", clock=clock) as queue:
            plan = " ".join(
                row[-1]
                for row in queue._con.execute(
                    "EXPLAIN QUERY PLAN SELECT MAX(seq) FROM cells"
                )
            )
        assert "cells_by_seq" in plan

    def test_connections_commit_at_full_synchronous(self, tmp_path, clock):
        """Every result commit is fsync-durable: the queue file is the
        only record of a finished cell between cache flushes."""
        with WorkQueue(tmp_path / "g.queue", "key", clock=clock) as queue:
            # 2 = FULL, SQLite's default.
            assert queue._con.execute("PRAGMA synchronous").fetchone()[0] == 2

    def test_claim_commits_at_normal_and_leaves_the_connection_full(
        self, tmp_path, clock
    ):
        """A claim skips the WAL fsync (a lost claim only returns its cell
        to pending); the commits after it are FULL again."""
        with WorkQueue(tmp_path / "g.queue", "key", clock=clock) as queue:
            queue.enqueue([(("a", 0), 1)])
            statements: list[str] = []
            queue._con.set_trace_callback(statements.append)
            lease = queue.claim("w")
            claimed = statements[:]
            assert claimed.index("PRAGMA synchronous=NORMAL") < claimed.index("COMMIT")
            assert claimed[-1] == "PRAGMA synchronous=FULL"
            # 2 = FULL.
            assert queue._con.execute("PRAGMA synchronous").fetchone()[0] == 2
            statements.clear()
            assert queue.complete(lease.cell, "w", {"ok": True})
            assert not any(s.startswith("PRAGMA synchronous") for s in statements)
            assert queue._con.execute("PRAGMA synchronous").fetchone()[0] == 2

    def test_readonly_attach_reads_while_writer_lives(self, tmp_path, clock):
        with WorkQueue(tmp_path / "g.queue", "key", clock=clock) as queue:
            queue.enqueue([(("a", 0), 1)])
            reader = WorkQueue.attach(tmp_path / "g.queue", readonly=True)
            try:
                assert reader.counts()["pending"] == 1
                assert reader.readonly
            finally:
                reader.close()

    def test_remove_deletes_database_and_sidecars(self, tmp_path, clock):
        path = tmp_path / "g.queue"
        with WorkQueue(path, "key", clock=clock) as queue:
            queue.enqueue([(("a", 0), 1)])
        WorkQueue.remove(path)
        assert not path.exists()
        assert not path.with_name("g.queue-wal").exists()

    def test_state_survives_reopen(self, tmp_path, clock):
        path = tmp_path / "g.queue"
        with WorkQueue(path, "key", clock=clock) as queue:
            queue.enqueue([(("a", 0), 1), (("b", 0), 2)])
            queue.claim("w")
        reopened = WorkQueue.attach(path, clock=clock)
        try:
            counts = reopened.counts()
            assert counts["pending"] == 1 and counts["leased"] == 1
        finally:
            reopened.close()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            WorkQueue(tmp_path / "a.queue", "k", max_attempts=0)
        with pytest.raises(ValueError, match="lease_duration_s"):
            WorkQueue(tmp_path / "b.queue", "k", lease_duration_s=0.0)


def _claim_hammer(path: str, owner: str, out_path: str) -> None:
    queue = WorkQueue.attach(path)
    claimed = []
    try:
        while True:
            lease = queue.claim(owner)
            if lease is None:
                break
            claimed.append([lease.workload_id, lease.repeat])
        Path(out_path).write_text(json.dumps(claimed))
    finally:
        queue.close()


@needs_fork
class TestConcurrentClaims:
    def test_processes_hammering_claim_never_double_claim(self, tmp_path):
        path = tmp_path / "g.queue"
        cells = [(("w", index), index) for index in range(40)]
        with WorkQueue(path, "key", lease_duration_s=60.0) as queue:
            queue.enqueue(cells)
        ctx = multiprocessing.get_context("fork")
        outs = [tmp_path / f"claims-{index}.json" for index in range(4)]
        workers = [
            ctx.Process(
                target=_claim_hammer, args=(str(path), f"w{index}", str(out))
            )
            for index, out in enumerate(outs)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
            assert worker.exitcode == 0
        claimed = [
            tuple(cell)
            for out in outs
            for cell in json.loads(out.read_text())
        ]
        assert len(claimed) == 40  # every cell claimed...
        assert len(set(claimed)) == 40  # ...exactly once


class TestWorkerLoop:
    def test_completes_cells_with_round_tripping_payloads(self, tmp_path):
        with WorkQueue(tmp_path / "g.queue", "key", lease_duration_s=30.0) as queue:
            queue.enqueue([(("a", 0), 11), (("b", 1), 22)])
            done = queue_worker_loop(
                queue, lambda lease: _result(f"{lease.workload_id}-{lease.seed}"),
                owner="w",
            )
            assert done == 2
            terminal = dict(
                (cell, payload)
                for cell, state, payload, _e, _a in queue.terminal_cells()
                if state == "done"
            )
            assert terminal[("a", 0)] == result_to_payload(_result("a-11"))
            decoded = result_from_payload(
                terminal[("b", 1)], Objective.TIME, "b-22"
            )
            assert decoded == _result("b-22")

    def test_application_error_requeues_then_parks_failed(self, tmp_path):
        with WorkQueue(
            tmp_path / "g.queue", "key", max_attempts=2, lease_duration_s=30.0
        ) as queue:
            queue.enqueue([(("doomed", 0), 1)])

            def explode(lease):
                raise RuntimeError(f"attempt {lease.attempts}")

            done = queue_worker_loop(queue, explode, owner="w")
            assert done == 2  # both attempts processed by this worker
            [(cell, state, _p, error, attempts)] = queue.terminal_cells()
            assert state == "failed" and attempts == 2
            assert "attempt 2" in error
            kinds = _event_kinds(queue)
            assert "cell_requeued" in kinds and "cell_failed" in kinds

    def test_max_cells_bounds_the_loop(self, tmp_path):
        with WorkQueue(tmp_path / "g.queue", "key") as queue:
            queue.enqueue([(("a", 0), 1), (("b", 0), 2), (("c", 0), 3)])
            done = queue_worker_loop(
                queue, lambda lease: _result("x"), owner="w", max_cells=2
            )
            assert done == 2
            assert queue.counts()["pending"] == 1

    def test_one_pump_thread_and_connection_serve_every_lease(
        self, tmp_path, monkeypatch
    ):
        attached, started = [], []
        attach = WorkQueue.attach.__func__
        start = queue_module._HeartbeatPump.start

        def counting_attach(cls, *args, **kwargs):
            attached.append(args[0])
            return attach(cls, *args, **kwargs)

        def counting_start(self):
            started.append(self.name)
            start(self)

        monkeypatch.setattr(WorkQueue, "attach", classmethod(counting_attach))
        monkeypatch.setattr(queue_module._HeartbeatPump, "start", counting_start)
        with WorkQueue(tmp_path / "g.queue", "key", lease_duration_s=30.0) as queue:
            queue.enqueue([((f"w{i}", 0), i) for i in range(5)])

            def run_lease(lease):
                time.sleep(0.03)  # a few heartbeats per cell
                return _result(lease.workload_id)

            done = queue_worker_loop(
                queue, run_lease, owner="w", heartbeat_interval_s=0.01
            )
            assert done == 5 and queue.counts()["done"] == 5
        assert started == ["heartbeat-w"]
        assert attached == [tmp_path / "g.queue"]
        assert not any(t.name == "heartbeat-w" for t in threading.enumerate())

    def test_lease_lost_mid_cell_is_discarded_and_next_lease_completes(
        self, tmp_path, monkeypatch
    ):
        refused = threading.Event()
        heartbeat = WorkQueue.heartbeat

        def watched_heartbeat(self, cell, owner):
            ok = heartbeat(self, cell, owner)
            if not ok:
                refused.set()
            return ok

        completed = []
        complete = WorkQueue.complete

        def recording_complete(self, cell, owner, payload):
            completed.append(cell)
            return complete(self, cell, owner, payload)

        monkeypatch.setattr(WorkQueue, "heartbeat", watched_heartbeat)
        monkeypatch.setattr(WorkQueue, "complete", recording_complete)
        path = tmp_path / "g.queue"
        with WorkQueue(path, "key", lease_duration_s=30.0) as queue:
            queue.enqueue([(("lost", 0), 1), (("next", 0), 2)])

            def run_lease(lease):
                if lease.workload_id == "lost":
                    # Another worker takes the cell over mid-run.
                    with WorkQueue.attach(path) as other:
                        other.expire_owner("w")
                        assert other.claim("thief").cell == lease.cell
                    assert refused.wait(timeout=10.0)
                return _result(lease.workload_id)

            done = queue_worker_loop(
                queue, run_lease, owner="w", heartbeat_interval_s=0.01,
                max_cells=2,
            )
            assert done == 2
            assert completed == [("next", 0)]
            states = {cell: state for cell, state, *_ in queue.terminal_cells()}
            assert states == {("next", 0): "done"}
            [(cell, owner, *_)] = queue.leases()
            assert (cell, owner) == (("lost", 0), "thief")


def _suicidal_worker_main(path: str) -> None:
    """A real worker that SIGKILLs itself mid-cell on the first attempt."""
    queue = WorkQueue.attach(path)

    def run_lease(lease):
        if lease.workload_id == "die" and lease.attempts == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return _result(f"{lease.workload_id}-{lease.seed}")

    try:
        queue_worker_loop(queue, run_lease, owner="victim")
    finally:
        queue.close()


@needs_fork
class TestSigkillRecovery:
    def test_killed_workers_cell_recovers_with_identical_payload(self, tmp_path):
        path = tmp_path / "g.queue"
        with WorkQueue(path, "key", lease_duration_s=1.0) as queue:
            queue.enqueue([(("die", 0), 7), (("ok", 0), 8)])
            ctx = multiprocessing.get_context("fork")
            victim = ctx.Process(target=_suicidal_worker_main, args=(str(path),))
            victim.start()
            victim.join(timeout=30.0)
            assert victim.exitcode == -signal.SIGKILL  # died mid-cell

            # A rescuer drains the queue: it waits out the dead worker's
            # lease, requeues the cell, and computes the identical result
            # from the stored seed.
            done = queue_worker_loop(
                queue, lambda lease: _result(f"{lease.workload_id}-{lease.seed}"),
                owner="rescuer",
            )
            assert done >= 1
            terminal = {
                cell: (state, payload)
                for cell, state, payload, _e, _a in queue.terminal_cells()
            }
            assert terminal[("die", 0)] == (
                "done", result_to_payload(_result("die-7"))
            )
            assert terminal[("ok", 0)] == (
                "done", result_to_payload(_result("ok-8"))
            )
            kinds = _event_kinds(queue)
            assert kinds.count("lease_expired") == 1
            assert kinds.count("worker_lost") == 1
            assert kinds.count("cell_requeued") == 1
            # No cell's result was recorded twice.
            done_cells = [
                cell
                for _id, kind, cell, _detail in queue.events_since(0)
                if kind == "cell_done"
            ]
            assert sorted(done_cells) == [("die", 0), ("ok", 0)]


def _openblas_thread_counts() -> dict[str, int]:
    """Thread count of each OpenBLAS mapped into this process, by file."""
    import ctypes

    with open("/proc/self/maps") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    paths = {
        parts[5].strip()
        for parts in fields
        if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()
    }
    counts = {}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for setter in queue_module._OPENBLAS_SETTERS:
            getter = getattr(library, setter.replace("_set_", "_get_"), None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts[os.path.basename(path)] = getter()
    return counts


def _report_openblas_threads(cell) -> SearchResult:
    """A cell that reports its worker's OpenBLAS thread counts."""
    counts = json.dumps(_openblas_thread_counts())
    return dataclasses.replace(_result("probe"), optimizer=counts)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
class TestOpenblasPin:
    def test_every_loaded_openblas_reports_one_thread(self):
        # A fresh interpreter, so this process's BLAS is left alone; two
        # threads requested at load, so the pin has something to undo.
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env["OPENBLAS_NUM_THREADS"] = "2"
        code = (
            "import json, numpy, scipy.linalg\n"
            "from repro.parallel.queue import _pin_openblas_to_one_thread\n"
            "from tests.test_parallel_queue import _openblas_thread_counts\n"
            "before = _openblas_thread_counts()\n"
            "_pin_openblas_to_one_thread()\n"
            "print(json.dumps([before, _openblas_thread_counts()]))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        before, after = json.loads(completed.stdout)
        if not after:
            pytest.skip("no OpenBLAS loaded")
        # numpy's and scipy's wheels each bundle one.
        assert after.keys() == before.keys()
        assert set(after.values()) == {1}
        if (os.cpu_count() or 1) > 1:
            assert max(before.values()) == 2

    @needs_fork
    def test_local_workers_run_on_one_blas_thread(self, tmp_path):
        pytest.importorskip("scipy.linalg")
        path = tmp_path / "g.queue"
        with WorkQueue(path, "key") as queue:
            queue.enqueue([(("probe", 0), 1)])
            ctx = multiprocessing.get_context("fork")
            worker = ctx.Process(
                target=queue_module._local_worker_main,
                args=(
                    str(path),
                    _report_openblas_threads,
                    "w",
                    0.01,
                ),
            )
            worker.start()
            worker.join(timeout=60.0)
            assert worker.exitcode == 0
            [(_cell, state, payload, *_)] = queue.terminal_cells()
        assert state == "done"
        counts = json.loads(payload["optimizer"])
        assert counts and set(counts.values()) == {1}


class TestQueueExecutor:
    def _executor(self, tmp_path, on_event=None, **kwargs):
        kwargs.setdefault("workers", 0)
        kwargs.setdefault("stall_timeout_s", None)
        return QueueExecutor(
            QueueConfig(
                path=tmp_path / "g.queue", cache_key="key", poll_tick_s=0.01, **kwargs
            ),
            lambda cell: _result(cell[0]),
            Objective.TIME,
            lambda workload_id, repeat: repeat,
            on_event=on_event,
        )

    def test_external_worker_feeds_ok_outcomes(self, tmp_path):
        events = []
        executor = self._executor(tmp_path, on_event=events.append)
        try:
            executor.submit([("a", 0), ("b", 1)])

            def serve():
                queue = WorkQueue.attach(tmp_path / "g.queue")
                try:
                    queue_worker_loop(
                        queue,
                        lambda lease: _result(lease.workload_id),
                        owner="external",
                    )
                finally:
                    queue.close()

            worker = threading.Thread(target=serve, daemon=True)
            worker.start()
            outcomes = []
            deadline = time.monotonic() + 30.0
            while len(outcomes) < 2 and time.monotonic() < deadline:
                outcomes.extend(executor.poll(0.2))
            worker.join(timeout=10.0)
            by_cell = {o.cell: o for o in outcomes}
            assert by_cell[("a", 0)].result == _result("a")
            assert by_cell[("b", 1)].result == _result("b")
            assert "lease_claimed" in [e.kind for e in events]
            # A finished cell is no longer running.
            assert executor.started_at(("a", 0)) is None
        finally:
            executor.shutdown()

    def test_stall_takeover_reports_remaining_cells_as_crashed(self, tmp_path):
        events = []
        executor = self._executor(
            tmp_path, stall_timeout_s=0.2, on_event=events.append
        )
        try:
            executor.submit([("a", 0), ("b", 0)])
            outcomes = executor.poll(10.0)
            assert sorted(o.cell for o in outcomes) == [("a", 0), ("b", 0)]
            assert all(o.crashed for o in outcomes)
            assert [e.kind for e in events].count("queue_stalled") == 1
            assert executor.poll(0) == []  # takeover happens once
        finally:
            executor.shutdown()

    def test_resolve_serial_persists_coordinator_results(self, tmp_path):
        executor = self._executor(tmp_path)
        try:
            executor.submit([("a", 0)])
            executor.resolve_serial(("a", 0), _result("a"))
            [(cell, state, payload, _e, _a)] = executor.queue.terminal_cells()
            assert (cell, state) == (("a", 0), "done")
            assert payload == result_to_payload(_result("a"))
            assert executor.queue.drained()
        finally:
            executor.shutdown()

    def test_cancel_withdraws_pending_not_leased(self, tmp_path):
        """A pending row can be withdrawn; a row an external worker
        leased cannot — no database write interrupts that process."""
        executor = self._executor(tmp_path)
        try:
            executor.submit([("a", 0), ("b", 0)])
            with WorkQueue.attach(tmp_path / "g.queue") as worker:
                assert worker.claim("external").cell == ("a", 0)
                assert not executor.cancel(("a", 0))
                assert worker.lease_owner(("a", 0)) == "external"
            assert executor.cancel(("b", 0))
            assert not executor.cancel(("b", 0))
        finally:
            executor.shutdown()

    @staticmethod
    def _finish(path, count):
        """Claim and complete the ``count`` oldest pending cells from a
        second connection, as an external worker would."""
        worker = WorkQueue.attach(path)
        try:
            for _ in range(count):
                lease = worker.claim("external")
                payload = result_to_payload(_result(lease.workload_id))
                assert worker.complete(lease.cell, "external", payload)
        finally:
            worker.close()

    def test_poll_decodes_each_payload_once_per_delivery(self, tmp_path, monkeypatch):
        import repro.analysis.runner as runner_module

        decodes: list[str] = []
        builds: list[str] = []
        real_loads = json.loads
        real_from_payload = runner_module.result_from_payload

        def counting_loads(text, *args, **kwargs):
            decodes.append(text)
            return real_loads(text, *args, **kwargs)

        def counting_from_payload(payload, objective, workload_id):
            builds.append(workload_id)
            return real_from_payload(payload, objective, workload_id)

        executor = self._executor(tmp_path)
        try:
            cells = [(f"w{index}", 0) for index in range(6)]
            executor.submit(cells)
            monkeypatch.setattr(json, "loads", counting_loads)
            monkeypatch.setattr(
                runner_module, "result_from_payload", counting_from_payload
            )
            assert executor.poll(0) == []
            assert decodes == []

            self._finish(tmp_path / "g.queue", 4)
            outcomes = executor.poll(0)
            assert [o.cell for o in outcomes] == cells[:4]
            assert all(o.ok for o in outcomes)
            assert (len(decodes), len(builds)) == (4, 4)

            # Two cells are still pending: polls with no new terminal
            # row decode nothing.
            for _ in range(3):
                assert executor.poll(0) == []
            assert (len(decodes), len(builds)) == (4, 4)

            self._finish(tmp_path / "g.queue", 2)
            assert [o.cell for o in executor.poll(0)] == cells[4:]
            assert (len(decodes), len(builds)) == (6, 6)

            # A resubmitted cell is a new delivery: its stored result is
            # decoded once more, and only once.
            executor.submit(cells[:1])
            [again] = executor.poll(0)
            assert again.cell == cells[0] and again.result == _result("w0")
            assert executor.poll(0) == []
            assert (len(decodes), len(builds)) == (7, 7)
        finally:
            executor.shutdown()

    def test_fresh_submit_reads_no_row_before_a_worker_finishes(
        self, tmp_path, monkeypatch
    ):
        """Only a row already done at submit is read unprompted: a fresh
        grid's pending rows wait for their terminal events."""
        executor = self._executor(tmp_path)
        reads: list = []
        real_terminal_row = executor.queue.terminal_row
        monkeypatch.setattr(
            executor.queue, "terminal_row",
            lambda cell: reads.append(cell) or real_terminal_row(cell),
        )
        try:
            cells = [(f"w{index}", 0) for index in range(6)]
            executor.submit(cells)
            for _ in range(3):
                assert executor.poll(0) == []
            assert reads == []
            self._finish(tmp_path / "g.queue", 1)
            assert [o.cell for o in executor.poll(0)] == cells[:1]
            assert reads == cells[:1]
        finally:
            executor.shutdown()

    def test_outcomes_follow_submission_order(self, tmp_path):
        executor = self._executor(tmp_path)
        try:
            executor.submit([("c", 0), ("a", 0), ("b", 0)])
            executor.submit([("c", 0)])  # a repeat keeps its first position
            # Complete in claim order (c was revived to the back: a, b, c).
            self._finish(tmp_path / "g.queue", 3)
            assert [o.cell for o in executor.poll(0)] == [("c", 0), ("a", 0), ("b", 0)]
        finally:
            executor.shutdown()

    def test_row_done_at_submit_is_delivered_without_recomputation(self, tmp_path):
        with WorkQueue(tmp_path / "g.queue", "key") as earlier:
            earlier.record_external(
                ("a", 0), result_to_payload(_result("a")), "earlier coordinator"
            )

        def never_run(cell):
            raise AssertionError(f"{cell} recomputed")

        executor = QueueExecutor(
            QueueConfig(
                path=tmp_path / "g.queue", cache_key="key", workers=0,
                stall_timeout_s=None, poll_tick_s=0.01,
            ),
            never_run, Objective.TIME, lambda workload_id, repeat: repeat,
        )
        try:
            executor.submit([("a", 0)])
            [outcome] = executor.poll(0)
            assert outcome.cell == ("a", 0) and outcome.result == _result("a")
            assert "lease_claimed" not in _event_kinds(executor.queue)
            assert executor.poll(0) == []
        finally:
            executor.shutdown()

    def test_corrupt_stored_payloads_give_one_error_each(self, tmp_path):
        executor = self._executor(tmp_path)
        try:
            executor.submit([("garbled", 0), ("misshapen", 0)])
            self._finish(tmp_path / "g.queue", 2)
            executor.queue._con.execute(
                "UPDATE cells SET result='{not json' WHERE workload='garbled'"
            )
            executor.queue._con.execute(
                "UPDATE cells SET result='{}' WHERE workload='misshapen'"
            )
            outcomes = executor.poll(0)
            assert [o.cell for o in outcomes] == [("garbled", 0), ("misshapen", 0)]
            assert all(o.error.startswith("QueuePayloadError: ") for o in outcomes)
            assert not any(o.crashed for o in outcomes)
            assert executor.poll(0) == []
        finally:
            executor.shutdown()

    def test_done_row_without_payload_gives_one_error(self, tmp_path):
        executor = self._executor(tmp_path)
        try:
            executor.submit([("a", 0)])
            executor.queue.record_external(("a", 0), None, "no result kept")
            [outcome] = executor.poll(0)
            assert outcome.cell == ("a", 0)
            assert outcome.error == "QueuePayloadError: done row without a payload"
            assert executor.poll(0) == []
        finally:
            executor.shutdown()

    def test_cancelled_pending_cell_is_delivered_as_failed(self, tmp_path):
        executor = self._executor(tmp_path)
        try:
            executor.submit([("a", 0), ("b", 0)])
            assert executor.poll(0) == []
            assert executor.cancel(("a", 0))
            [outcome] = executor.poll(0)
            assert outcome.cell == ("a", 0)
            assert outcome.error == "cancelled by coordinator"
            assert executor.poll(0) == []
        finally:
            executor.shutdown()

    @needs_fork
    def test_local_workers_drain_the_grid(self, tmp_path):
        executor = self._executor(tmp_path, workers=2, stall_timeout_s=30.0)
        try:
            cells = [("w", index) for index in range(6)]
            executor.submit(cells)
            outcomes = []
            deadline = time.monotonic() + 60.0
            while len(outcomes) < 6 and time.monotonic() < deadline:
                outcomes.extend(executor.poll(0.2))
            assert sorted(o.cell for o in outcomes) == cells
            assert all(o.ok for o in outcomes)
        finally:
            executor.shutdown()


WORKLOADS = ("kmeans/Spark 2.1/small", "lr/Spark 1.5/medium")


def random_factory(environment, objective, seed):
    return RandomSearch(
        environment, objective=objective, seed=seed, max_measurements=6
    )


def _grid(key: str) -> RunGrid:
    return RunGrid(
        key=key,
        factory=random_factory,
        objective=Objective.TIME,
        workload_ids=WORKLOADS,
        repeats=3,
    )


@needs_fork
class TestRunnerIntegration:
    def test_queue_cache_byte_identical_to_serial(self, trace, tmp_path):
        serial = ExperimentRunner(trace, cache_dir=tmp_path / "serial")
        serial.run(_grid("queue-parity"))
        queued = ExperimentRunner(trace, cache_dir=tmp_path / "queued")
        events = []
        queued.run(
            _grid("queue-parity"),
            workers=2,
            executor="queue",
            on_event=events.append,
            queue_lease_s=15.0,
        )
        serial_bytes = (tmp_path / "serial" / "queue-parity__time.json").read_bytes()
        queued_bytes = (tmp_path / "queued" / "queue-parity__time.json").read_bytes()
        assert serial_bytes == queued_bytes
        kinds = [event.kind for event in events]
        assert kinds.count("lease_claimed") == 6
        assert kinds.count("cell_finished") == 6
        # The queue database survives the clean run as the persisted
        # robustness record.
        queue_path = tmp_path / "queued" / "queue-parity__time.queue"
        assert queue_path.exists()
        with WorkQueue.attach(queue_path) as queue:
            assert queue.counts()["done"] == 6

    def test_resume_reconciles_queue_against_cache(self, trace, tmp_path):
        runner = ExperimentRunner(trace, cache_dir=tmp_path / "cache")
        runner.run(_grid("queue-rec"), executor="queue", workers=1)
        queue_path = tmp_path / "cache" / "queue-rec__time.queue"
        # Simulate an interrupted run's leftovers: rows knocked back to
        # pending/leased even though the cache holds every result.
        con = sqlite3.connect(queue_path)
        con.execute(
            "UPDATE cells SET state='pending', result=NULL, attempts=2"
        )
        con.commit()
        con.close()
        events = []
        runner.run(
            _grid("queue-rec"),
            executor="queue",
            resume=True,
            on_event=events.append,
        )
        kinds = [event.kind for event in events]
        assert kinds.count("cell_cached") == 6  # nothing recomputed
        assert "lease_claimed" not in kinds  # nothing re-leased
        with WorkQueue.attach(queue_path) as queue:
            assert queue.counts()["done"] == 6

    def test_fresh_run_discards_stale_queue(self, trace, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        queue_path = cache_dir / "queue-fresh__time.queue"
        with WorkQueue(queue_path, "queue-fresh__time") as stale:
            stale.enqueue([(("bogus", 99), 1)])
        runner = ExperimentRunner(trace, cache_dir=cache_dir)
        runner.run(_grid("queue-fresh"), executor="queue", workers=1)
        with WorkQueue.attach(queue_path) as queue:
            counts = queue.counts()
            assert counts["done"] == 6
            assert counts["pending"] == 0  # the bogus row is gone

    def test_foreign_queue_is_replaced_on_resume(self, trace, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        queue_path = cache_dir / "queue-foreign__time.queue"
        WorkQueue(queue_path, "some-other-grid").close()
        runner = ExperimentRunner(trace, cache_dir=cache_dir)
        runner.run(_grid("queue-foreign"), executor="queue", workers=1, resume=True)
        with WorkQueue.attach(queue_path) as queue:
            assert queue.cache_key == "queue-foreign__time"
            assert queue.counts()["done"] == 6

    def test_queue_requires_cache_dir(self, trace):
        runner = ExperimentRunner(trace, cache_dir=None)
        with pytest.raises(ValueError, match="cache_dir"):
            runner.run(_grid("queue-nocache"), executor="queue")

    def test_unknown_executor_rejected(self, trace, tmp_path):
        runner = ExperimentRunner(trace, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="executor"):
            runner.run(_grid("queue-bad"), executor="carrier-pigeon")
