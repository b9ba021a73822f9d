"""Grid checkpoint over the work-queue file: durability, damage, signals."""

from __future__ import annotations

import json
import os
import signal
import sqlite3

import pytest

from repro.analysis.runner import ExperimentRunner, RunGrid
from repro.core.baselines import RandomSearch
from repro.core.objectives import Objective
from repro.parallel.checkpoint import GridCheckpoint, flush_on_signal
from repro.parallel.events import CellEvent
from repro.parallel.queue import WorkQueue

PAYLOAD_A = {"optimizer": "x", "stopped_by": "budget", "steps": [["vm", 1.0, 1]]}
PAYLOAD_B = {"optimizer": "y", "stopped_by": "budget", "steps": [["vm", 2.0, 1]]}
CELLS = [("w1", 0), ("w1", 1)]


def _sidecars(path):
    return [path.with_name(path.name + suffix) for suffix in ("-wal", "-shm")]


class TestGridCheckpoint:
    def test_record_load_roundtrip(self, tmp_path):
        checkpoint = GridCheckpoint(tmp_path / "grid.queue", cache_key="g__time")
        checkpoint.record(("w1", 0), PAYLOAD_A)
        checkpoint.record(("w1", 1), PAYLOAD_B)
        checkpoint.close()
        with GridCheckpoint(tmp_path / "grid.queue", cache_key="g__time") as reader:
            loaded = reader.resume(CELLS, held=[])
        assert loaded == {("w1", 0): PAYLOAD_A, ("w1", 1): PAYLOAD_B}

    def test_for_cache_names_the_queue_file(self, tmp_path):
        checkpoint = GridCheckpoint.for_cache(tmp_path / "grid__time.json")
        assert checkpoint.path == tmp_path / "grid__time.queue"
        assert checkpoint.cache_key == "grid__time"

    def test_load_missing_journal_is_empty(self, tmp_path):
        """Resuming over no file recovers nothing and creates nothing."""
        path = tmp_path / "none.queue"
        with GridCheckpoint(path, cache_key="g") as checkpoint:
            assert checkpoint.resume(CELLS, held=CELLS) == {}
        assert not path.exists()

    def test_no_file_until_first_record(self, tmp_path):
        path = tmp_path / "grid.queue"
        checkpoint = GridCheckpoint(path, cache_key="g")
        assert not path.exists()
        checkpoint.record(("w1", 0), PAYLOAD_A)
        assert path.exists()
        checkpoint.close()

    def test_only_lacking_cells_are_recovered(self, tmp_path):
        path = tmp_path / "grid.queue"
        with GridCheckpoint(path, cache_key="g") as checkpoint:
            checkpoint.record(("w1", 0), PAYLOAD_A)
            checkpoint.record(("w1", 1), PAYLOAD_B)
        with GridCheckpoint(path, cache_key="g") as checkpoint:
            assert checkpoint.resume([("w1", 1)], held=[("w1", 0)]) == {
                ("w1", 1): PAYLOAD_B
            }

    def test_held_cells_are_reconciled_done(self, tmp_path):
        path = tmp_path / "grid.queue"
        with WorkQueue(path, "g") as queue:
            queue.enqueue([(("w1", 0), 1), (("w1", 1), 2)])
        with GridCheckpoint(path, cache_key="g") as checkpoint:
            assert checkpoint.resume([("w1", 1)], held=[("w1", 0)]) == {}
        with WorkQueue.attach(path) as queue:
            assert queue.counts()["done"] == 1
            assert queue.counts()["pending"] == 1

    def test_truncated_tail_is_skipped(self, tmp_path):
        """A damaged file is removed on resume instead of crashing it."""
        path = tmp_path / "grid.queue"
        with GridCheckpoint(path, cache_key="g") as checkpoint:
            checkpoint.record(("w1", 0), PAYLOAD_A)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with GridCheckpoint(path, cache_key="g") as checkpoint:
            assert checkpoint.resume(CELLS, held=[]) == {}
        assert not path.exists()

    def test_foreign_cache_key_contributes_nothing(self, tmp_path):
        path = tmp_path / "grid.queue"
        with GridCheckpoint(path, cache_key="grid-a__time") as checkpoint:
            checkpoint.record(("w1", 0), PAYLOAD_A)
        with GridCheckpoint(path, cache_key="grid-b__time") as checkpoint:
            assert checkpoint.resume(CELLS, held=[]) == {}
        # Removed, not merely ignored: it must not serve this grid later.
        assert not path.exists()

    def test_malformed_records_are_skipped(self, tmp_path):
        """A stored result that is not JSON is left out, not fatal."""
        path = tmp_path / "grid.queue"
        with GridCheckpoint(path, cache_key="g") as checkpoint:
            checkpoint.record(("w1", 0), PAYLOAD_A)
            checkpoint.record(("w1", 1), PAYLOAD_B)
        con = sqlite3.connect(path)
        con.execute("UPDATE cells SET result='{not json' WHERE repeat=1")
        con.commit()
        con.close()
        with GridCheckpoint(path, cache_key="g") as checkpoint:
            assert checkpoint.resume(CELLS, held=[]) == {("w1", 0): PAYLOAD_A}

    def test_clear_removes_the_file(self, tmp_path):
        path = tmp_path / "grid.queue"
        checkpoint = GridCheckpoint(path, cache_key="g")
        checkpoint.record(("w1", 0), PAYLOAD_A)
        assert any(sidecar.exists() for sidecar in _sidecars(path))
        checkpoint.clear()
        assert not path.exists()
        assert not any(sidecar.exists() for sidecar in _sidecars(path))
        checkpoint.clear()  # idempotent

    def test_records_survive_without_close(self, tmp_path):
        """Every record is committed: a second connection reads it
        before the writer closes."""
        path = tmp_path / "grid.queue"
        checkpoint = GridCheckpoint(path, cache_key="g")
        checkpoint.record(("w1", 0), PAYLOAD_A)
        with WorkQueue.attach(path, readonly=True) as reader:
            stored = dict(reader.stored_results(CELLS))
        assert {cell: json.loads(text) for cell, text in stored.items()} == {
            ("w1", 0): PAYLOAD_A
        }
        checkpoint.close()

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "grid.queue"
        with GridCheckpoint(path, cache_key="g") as checkpoint:
            checkpoint.record(("w1", 0), PAYLOAD_A)
        assert checkpoint._queue is None


WORKLOADS = ("kmeans/Spark 2.1/small", "lr/Spark 1.5/medium")


def _random_factory(environment, objective, seed):
    return RandomSearch(environment, objective=objective, seed=seed, max_measurements=6)


def _grid(key):
    return RunGrid(key, _random_factory, Objective.TIME, WORKLOADS, 2)


class TestRunnerRecord:
    def test_invalid_payload_row_is_recomputed_by_the_queue(self, trace, tmp_path):
        """A stored row that fails the cache's schema check loses its
        result at resume, so the queue re-leases the cell instead of
        serving the bad row (TestResume covers the serial executor)."""
        grid = _grid("rec-invalid")
        reference = ExperimentRunner(trace, cache_dir=tmp_path / "ref").run(grid)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        with GridCheckpoint.for_cache(cache_dir / "rec-invalid__time.json") as record:
            record.record((WORKLOADS[0], 0), {"optimizer": "x"})  # invalid shape
        events: list[CellEvent] = []
        runner = ExperimentRunner(trace, cache_dir=cache_dir)
        resumed = runner.run(
            grid, resume=True, executor="queue", workers=1, on_event=events.append
        )
        assert resumed == reference
        assert "cell_resumed" not in {event.kind for event in events}
        assert (cache_dir / "rec-invalid__time.json").read_bytes() == (
            tmp_path / "ref" / "rec-invalid__time.json"
        ).read_bytes()

    @pytest.mark.parametrize("executor", ["serial", "queue"])
    def test_garbage_queue_file_is_replaced_on_resume(self, trace, tmp_path, executor):
        grid = _grid("rec-garbage")
        ExperimentRunner(trace, cache_dir=tmp_path / "ref").run(grid)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "rec-garbage__time.queue").write_bytes(os.urandom(4096))
        runner = ExperimentRunner(trace, cache_dir=cache_dir)
        runner.run(grid, resume=True, executor=executor, workers=1)
        assert (cache_dir / "rec-garbage__time.json").read_bytes() == (
            tmp_path / "ref" / "rec-garbage__time.json"
        ).read_bytes()

    def test_fully_cached_run_creates_no_file(self, trace, tmp_path):
        runner = ExperimentRunner(trace, cache_dir=tmp_path)
        runner.run(_grid("rec-cached"))
        assert not (tmp_path / "rec-cached__time.queue").exists()
        runner.run(_grid("rec-cached"), resume=True)
        assert not (tmp_path / "rec-cached__time.queue").exists()

    def test_runs_write_no_journal(self, trace, tmp_path):
        runner = ExperimentRunner(trace, cache_dir=tmp_path)
        for executor in ("serial", "vector", "queue"):
            runner.run(_grid(f"rec-{executor}"), executor=executor, workers=1)
        assert not list(tmp_path.glob("*.journal"))
        # Only the queue run keeps its file: its events are the record.
        assert sorted(p.name for p in tmp_path.glob("*.queue")) == [
            "rec-queue__time.queue"
        ]


class TestFlushOnSignal:
    def test_sigterm_flushes_then_exits(self):
        flushed = []
        with pytest.raises(SystemExit) as excinfo:
            with flush_on_signal(lambda: flushed.append("yes")):
                os.kill(os.getpid(), signal.SIGTERM)
        assert flushed == ["yes"]
        assert excinfo.value.code == 128 + signal.SIGTERM

    def test_sigint_flushes_then_keyboard_interrupts(self):
        flushed = []
        with pytest.raises(KeyboardInterrupt):
            with flush_on_signal(lambda: flushed.append("yes")):
                os.kill(os.getpid(), signal.SIGINT)
        assert flushed == ["yes"]

    def test_handlers_restored_after_block(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with flush_on_signal(lambda: None):
            assert signal.getsignal(signal.SIGINT) is not before_int
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term

    def test_no_signal_means_no_flush(self):
        flushed = []
        with flush_on_signal(lambda: flushed.append("yes")):
            pass
        assert flushed == []

    def test_worker_threads_run_unprotected(self):
        import threading

        outcome = {}

        def body():
            with flush_on_signal(lambda: None):
                outcome["ran"] = True

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome == {"ran": True}
