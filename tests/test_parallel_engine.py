"""Parallel experiment engine: determinism, caching, and degradation."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.analysis.runner import ExperimentRunner, RunGrid, run_seed
from repro.core.baselines import RandomSearch
from repro.core.objectives import Objective
from repro.faults import FaultInjector, parse_fault_plan, RetryPolicy
from repro.parallel import (
    CellEvent,
    GridCheckpoint,
    QueueConfig,
    WorkQueue,
    plan_workers,
    run_cells,
)
from repro.parallel import engine
from repro.parallel.engine import POOL_MIN_CELLS, _fork_available

WORKLOADS = (
    "kmeans/Spark 2.1/small",
    "lr/Spark 1.5/medium",
    "pagerank/Hadoop 2.7/small",
)


def random_factory(environment, objective, seed):
    return RandomSearch(
        environment, objective=objective, seed=seed, max_measurements=6
    )


def faulty_factory(environment, objective, seed):
    plan = parse_fault_plan("transient:rate=0.3", seed=seed)
    return RandomSearch(
        FaultInjector(environment, plan),
        objective=objective,
        seed=seed,
        max_measurements=8,
        retry_policy=RetryPolicy(max_attempts=3),
    )


@pytest.fixture()
def literal_workers(monkeypatch):
    """Take the worker request literally, so workers fork on any host."""
    monkeypatch.setattr(engine, "plan_workers", lambda workers, n_cells: workers)


def _grid(key, factory, repeats=2):
    return RunGrid(
        key=key,
        factory=factory,
        objective=Objective.TIME,
        workload_ids=WORKLOADS,
        repeats=repeats,
    )


def _run(trace, tmp_path, grid, workers, on_event=None):
    runner = ExperimentRunner(trace, cache_dir=tmp_path / f"w{workers}")
    return runner.run(grid, workers=workers, on_event=on_event)


class TestDeterminism:
    def test_workers_do_not_change_results(self, trace, tmp_path):
        serial = _run(trace, tmp_path, _grid("par-det", random_factory), workers=1)
        parallel = _run(trace, tmp_path, _grid("par-det", random_factory), workers=4)
        assert serial == parallel

    def test_results_include_event_streams(self, trace, tmp_path):
        results = _run(trace, tmp_path, _grid("par-ev", random_factory), workers=4)
        for runs in results.values():
            for result in runs:
                assert result.events
                kinds = {event.kind for event in result.events}
                assert "measurement_finished" in kinds

    def test_identical_under_fault_plan(self, trace, tmp_path):
        grid = _grid("par-faulty", faulty_factory)
        serial = _run(trace, tmp_path, grid, workers=1)
        parallel = _run(trace, tmp_path, grid, workers=4)
        assert serial == parallel
        # The fault plan actually fired somewhere, so the equality above
        # covers failure events too.
        assert any(
            result.failure_events
            for runs in serial.values()
            for result in runs
        )

    def test_cache_files_byte_identical(self, trace, tmp_path):
        grid = _grid("par-bytes", random_factory)
        _run(trace, tmp_path, grid, workers=1)
        _run(trace, tmp_path, grid, workers=4)
        serial_bytes = (tmp_path / "w1" / "par-bytes__time.json").read_bytes()
        parallel_bytes = (tmp_path / "w4" / "par-bytes__time.json").read_bytes()
        assert serial_bytes == parallel_bytes

    def test_cache_hits_skip_the_engine(self, trace, tmp_path):
        grid = _grid("par-hit", random_factory)
        runner = ExperimentRunner(trace, cache_dir=tmp_path)
        first = runner.run(grid, workers=4)
        events: list[CellEvent] = []
        second = runner.run(grid, workers=4, on_event=events.append)
        assert first == second
        assert {event.kind for event in events} == {"cell_cached"}


class TestEngine:
    def test_yields_in_submission_order(self, trace):
        cells = [(workload, repeat) for workload in WORKLOADS for repeat in (0, 1)]
        yielded = [
            cell
            for cell, _ in run_cells(
                trace=trace,
                factory=random_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=4,
            )
        ]
        assert yielded == cells

    def test_event_stream_covers_every_cell(self, trace):
        cells = [(workload, 0) for workload in WORKLOADS]
        events: list[CellEvent] = []
        list(
            run_cells(
                trace=trace,
                factory=random_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=2,
                on_event=events.append,
            )
        )
        scheduled = [e for e in events if e.kind == "cell_scheduled"]
        finished = [e for e in events if e.kind == "cell_finished"]
        assert {(e.workload_id, e.repeat) for e in scheduled} == set(cells)
        assert {(e.workload_id, e.repeat) for e in finished} == set(cells)

    @pytest.mark.parametrize("executor", ["serial", "auto"])
    def test_serial_event_stream_is_pinned(self, trace, executor):
        """The in-process loop's exact stream: ``pool_planned``, one
        ``cell_scheduled`` per cell in submission order, then one
        ``cell_finished`` per cell just before it is yielded; a raising
        factory propagates out of the loop unchanged."""
        cells = [(WORKLOADS[0], 0), (WORKLOADS[1], 0), (WORKLOADS[0], 1)]
        stream: list[tuple] = []

        def record(event):
            stream.append((event.kind, event.workload_id, event.repeat))

        for cell, _ in run_cells(
            trace=trace,
            factory=random_factory,
            objective=Objective.TIME,
            cells=cells,
            workers=1,
            on_event=record,
            executor=executor,
        ):
            stream.append(("yielded", *cell))
        assert stream == (
            [("pool_planned", None, None)]
            + [("cell_scheduled", *cell) for cell in cells]
            + [entry for cell in cells
               for entry in (("cell_finished", *cell), ("yielded", *cell))]
        )

        def doomed_factory(environment, objective, seed):
            raise RuntimeError("deterministic failure")

        kinds: list[str] = []
        with pytest.raises(RuntimeError, match="deterministic failure"):
            list(
                run_cells(
                    trace=trace,
                    factory=doomed_factory,
                    objective=Objective.TIME,
                    cells=cells,
                    workers=1,
                    on_event=lambda event: kinds.append(event.kind),
                    executor=executor,
                )
            )
        assert kinds == ["pool_planned"] + ["cell_scheduled"] * len(cells)

    @pytest.mark.parametrize("executor", ["auto", "serial", "queue", "vector"])
    def test_rejects_bad_cell_timeout(self, trace, tmp_path, executor):
        """Every executor refuses a deadline that is not positive before
        running anything — not only the ones that enforce it (the NaN
        and zero cases are in ``test_parallel_supervisor.py``)."""
        built: list[int] = []

        def counting_factory(environment, objective, seed):
            built.append(seed)
            return random_factory(environment, objective, seed)

        with pytest.raises(ValueError, match="cell_timeout"):
            list(
                run_cells(
                    trace=trace,
                    factory=counting_factory,
                    objective=Objective.TIME,
                    cells=[(WORKLOADS[0], 0), (WORKLOADS[1], 0)],
                    cell_timeout=-5.0,
                    executor=executor,
                    queue=QueueConfig(path=tmp_path / "g.queue"),
                )
            )
        assert built == []
        assert list(tmp_path.iterdir()) == []

    def test_rejects_bad_worker_count(self, trace):
        with pytest.raises(ValueError, match="workers"):
            list(
                run_cells(
                    trace=trace,
                    factory=random_factory,
                    objective=Objective.TIME,
                    cells=[(WORKLOADS[0], 0)],
                    workers=0,
                )
            )

    def test_custom_seed_fn(self, trace):
        cells = [(WORKLOADS[0], repeat) for repeat in range(3)]
        seeds: list[int] = []

        def recording_factory(environment, objective, seed):
            seeds.append(seed)
            return random_factory(environment, objective, seed)

        list(
            run_cells(
                trace=trace,
                factory=recording_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=1,
                seed_fn=lambda _workload, repeat: repeat,
            )
        )
        assert seeds == [0, 1, 2]

    @pytest.mark.parametrize("executor", ["auto"])
    def test_grid_planned_serial_builds_each_optimiser_once(self, trace, executor):
        """A grid the planner serialises forks nothing, so no optimiser
        is built beforehand to prime a fork: one build per cell."""
        cells = [(WORKLOADS[0], 0), (WORKLOADS[1], 0)]
        built: list[int] = []

        def counting_factory(environment, objective, seed):
            built.append(seed)
            return random_factory(environment, objective, seed)

        events: list[CellEvent] = []
        list(
            run_cells(
                trace=trace,
                factory=counting_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=2,
                on_event=events.append,
                executor=executor,
            )
        )
        planned = [e for e in events if e.kind == "pool_planned"]
        assert "effective=1" in planned[0].detail
        assert len(built) == len(cells)

    @pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
    @pytest.mark.usefixtures("literal_workers")
    def test_auto_without_cache_dir_leaves_no_file(self, trace, tmp_path, monkeypatch):
        """With no cache to sit next to, ``auto``'s queue lives in a
        temporary directory that the engine removes afterwards."""
        monkeypatch.setattr(engine, "_scratch_root", lambda: str(tmp_path))
        cells = [(workload, repeat) for workload in WORKLOADS for repeat in (0, 1)]
        events: list[CellEvent] = []
        results = list(
            run_cells(
                trace=trace,
                factory=random_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=2,
                on_event=events.append,
            )
        )
        assert [cell for cell, _ in results] == cells
        # The grid ran on local queue workers ...
        assert any(event.kind == "lease_claimed" for event in events)
        # ... and left nothing behind.
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
    @pytest.mark.usefixtures("literal_workers")
    def test_initial_submit_is_one_enqueue_transaction(self, trace, monkeypatch):
        enqueued: list[tuple[int, int]] = []
        real_enqueue = WorkQueue.enqueue

        def traced_enqueue(self, items):
            items = list(items)
            statements: list[str] = []
            self._con.set_trace_callback(statements.append)
            try:
                return real_enqueue(self, items)
            finally:
                self._con.set_trace_callback(None)
                begins = sum(s.startswith("BEGIN") for s in statements)
                enqueued.append((len(items), begins))

        monkeypatch.setattr(WorkQueue, "enqueue", traced_enqueue)
        cells = [(workload, repeat) for workload in WORKLOADS for repeat in (0, 1)]
        results = list(
            run_cells(
                trace=trace,
                factory=random_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=2,
            )
        )
        assert len(results) == len(cells)
        assert enqueued == [(len(cells), 1)]


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
@pytest.mark.usefixtures("literal_workers")
class TestDegradation:
    def test_app_error_in_worker_is_retried_serially(self, trace):
        """A cell whose worker attempts raise succeeds on the parent's
        serial retry — quarantine the cell, not the run."""
        main_pid = os.getpid()

        def flaky_factory(environment, objective, seed):
            if os.getpid() != main_pid:
                raise RuntimeError("worker-side failure")
            return random_factory(environment, objective, seed)

        cells = [(workload, 0) for workload in WORKLOADS]
        events: list[CellEvent] = []
        results = list(
            run_cells(
                trace=trace,
                factory=flaky_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=2,
                on_event=events.append,
            )
        )
        assert [cell for cell, _ in results] == cells
        failed = [e for e in events if e.kind == "cell_failed"]
        assert failed and all("worker-side failure" in e.detail for e in failed)

    def test_pool_death_degrades_to_serial(self, trace):
        """Every worker dies mid-cell: the queue requeues each cell until
        its attempts are spent and parks it ``poisoned``, and the engine
        completes it serially in the parent."""
        main_pid = os.getpid()

        def lethal_factory(environment, objective, seed):
            if os.getpid() != main_pid:
                os._exit(1)
            return random_factory(environment, objective, seed)

        cells = [(workload, repeat) for workload in WORKLOADS for repeat in (0, 1)]
        events: list[CellEvent] = []
        results = list(
            run_cells(
                trace=trace,
                factory=lethal_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=2,
                on_event=events.append,
            )
        )
        assert [cell for cell, _ in results] == cells
        pinned = [e.cell for e in events if e.kind == "cell_pinned"]
        assert sorted(pinned) == sorted(cells)

    def test_deterministic_failure_propagates(self, trace):
        """A cell that fails in the worker *and* on the serial retry
        raises, exactly as the serial path would."""

        def doomed_factory(environment, objective, seed):
            raise RuntimeError("deterministic failure")

        with pytest.raises(RuntimeError, match="deterministic failure"):
            list(
                run_cells(
                    trace=trace,
                    factory=doomed_factory,
                    objective=Objective.TIME,
                    cells=[(workload, 0) for workload in WORKLOADS],
                    workers=2,
                )
            )


class TestRunnerWorkers:
    def test_constructor_default(self, trace, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            ExperimentRunner(trace, workers=0)
        runner = ExperimentRunner(trace, cache_dir=tmp_path, workers=2)
        grid = _grid("par-ctor", random_factory, repeats=1)
        results = runner.run(grid)  # uses the constructor default
        assert set(results) == set(WORKLOADS)


class TestPlanWorkers:
    """Worker clamping, and its interaction with the POOL_MIN_CELLS boundary."""

    @pytest.mark.parametrize(
        "n_cells, expected",
        [
            (POOL_MIN_CELLS - 1, 1),  # 3 cells: pool never pays off
            (POOL_MIN_CELLS, 4),  # 4 cells: pool, capped by the work
            (POOL_MIN_CELLS + 1, 5),  # 5 cells: pool, capped by the work
        ],
    )
    def test_boundary_grids(self, n_cells, expected):
        assert plan_workers(8, n_cells, cpu_count=8) == expected

    def test_clamps_to_cpu_count(self):
        assert plan_workers(8, 6, cpu_count=2) == 2

    def test_clamps_large_grid_to_cpu_count(self):
        assert plan_workers(8, 20, cpu_count=2) == 2

    def test_clamps_to_cells_not_request(self):
        assert plan_workers(16, 6, cpu_count=32) == 6

    def test_clamps_to_cell_count(self):
        assert plan_workers(8, 5, cpu_count=16) == 5

    def test_request_is_a_ceiling(self):
        assert plan_workers(3, 20, cpu_count=16) == 3

    def test_tiny_grids_run_serially(self):
        assert POOL_MIN_CELLS > 1
        for n_cells in range(POOL_MIN_CELLS):
            assert plan_workers(8, n_cells, cpu_count=16) == 1

    def test_at_threshold_pools(self):
        assert plan_workers(8, POOL_MIN_CELLS, cpu_count=16) == POOL_MIN_CELLS

    def test_uses_host_cpu_count_by_default(self):
        cores = os.cpu_count() or 1
        assert plan_workers(10_000, 10_000) == min(10_000, cores)

    def test_single_validation_site_rejects_zero(self):
        with pytest.raises(ValueError, match="workers"):
            plan_workers(0, 10)

    def test_rejects_bad_request(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                plan_workers(bad, 10)

    @pytest.mark.parametrize("n_cells", [3, 4, 5])
    def test_pool_planned_event_reports_the_decision(self, trace, n_cells):
        cells = [(WORKLOADS[index % len(WORKLOADS)], index) for index in range(n_cells)]
        events: list[CellEvent] = []
        list(
            run_cells(
                trace=trace,
                factory=random_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=4,
                on_event=events.append,
            )
        )
        planned = [e for e in events if e.kind == "pool_planned"]
        assert len(planned) == 1
        assert planned[0].workload_id is None  # grid-scoped, not cell-scoped
        expected = plan_workers(4, n_cells)
        assert f"effective={expected}" in planned[0].detail


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
class TestSelfHealing:
    """Real local-worker supervision: respawns, poison pinning,
    deadlines, chaos."""

    @pytest.mark.usefixtures("literal_workers")
    def test_worker_death_restarts_pool_before_degrading(self, trace):
        """One poison cell costs its worker attempts and a pin: each
        death requeues it to a respawned worker until the queue parks
        it, and every other cell still finishes on the workers."""
        main_pid = os.getpid()
        target = run_seed(WORKLOADS[0], 0)

        def one_lethal_factory(environment, objective, seed):
            if seed == target and os.getpid() != main_pid:
                os._exit(1)
            return random_factory(environment, objective, seed)

        cells = [(workload, repeat) for workload in WORKLOADS for repeat in (0, 1)]
        events: list[CellEvent] = []
        results = list(
            run_cells(
                trace=trace,
                factory=one_lethal_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=2,
                on_event=events.append,
            )
        )
        assert [cell for cell, _ in results] == cells
        poison = (WORKLOADS[0], 0)
        assert [e.cell for e in events if e.kind == "cell_pinned"] == [poison]
        lost = [e.cell for e in events if e.kind == "worker_lost"]
        assert lost == [poison] * 3  # the queue's default max_attempts
        assert [e.cell for e in events if e.kind == "cell_requeued"] == [poison] * 2

    @pytest.mark.usefixtures("literal_workers")
    def test_straggler_cancelled_without_stalling_the_grid(self, trace):
        main_pid = os.getpid()
        target = run_seed(WORKLOADS[0], 0)

        def straggler_factory(environment, objective, seed):
            if seed == target and os.getpid() != main_pid:
                time.sleep(60.0)
            return random_factory(environment, objective, seed)

        cells = [(workload, repeat) for workload in WORKLOADS for repeat in (0, 1)]
        events: list[CellEvent] = []
        start = time.monotonic()
        results = list(
            run_cells(
                trace=trace,
                factory=straggler_factory,
                objective=Objective.TIME,
                cells=cells,
                workers=2,
                on_event=events.append,
                cell_timeout=1.0,
            )
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # nowhere near the 60 s straggler sleep
        assert [cell for cell, _ in results] == cells
        timeouts = [e for e in events if e.kind == "cell_timeout"]
        assert [(e.workload_id, e.repeat) for e in timeouts] == [(WORKLOADS[0], 0)]

    def test_timed_out_local_worker_is_terminated_and_its_cell_completed_once(
        self, trace, tmp_path, monkeypatch
    ):
        """A local worker stuck past ``cell_timeout`` loses its lease:
        the row is withdrawn, the worker terminated, and the coordinator
        writes the cell's only result — the serial bytes."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        main_pid = os.getpid()
        target = run_seed(WORKLOADS[0], 0)

        def straggler_factory(environment, objective, seed):
            if os.getpid() != main_pid:
                # Paced, so cells are still pending when the deadline
                # cancels the first one.
                time.sleep(60.0 if seed == target else 0.3)
            return random_factory(environment, objective, seed)

        ExperimentRunner(trace, cache_dir=tmp_path / "serial").run(
            _grid("par-deadline", random_factory), workers=1
        )
        events: list[CellEvent] = []
        start = time.monotonic()
        ExperimentRunner(trace, cache_dir=tmp_path / "queue").run(
            _grid("par-deadline", straggler_factory),
            workers=2,
            executor="queue",
            cell_timeout=1.0,
            on_event=events.append,
        )
        assert time.monotonic() - start < 30.0  # the 60 s sleep was cut
        straggler = (WORKLOADS[0], 0)
        assert [e.cell for e in events if e.kind == "cell_timeout"] == [straggler]
        with WorkQueue.attach(
            tmp_path / "queue" / "par-deadline__time.queue", readonly=True
        ) as queue:
            log = queue.events_since(0)
            assert queue.counts()["done"] == 6
        history = [(kind, detail) for _id, kind, cell, detail in log if cell == straggler]
        [claim] = [d for k, d in history if k == "lease_claimed"]
        # The terminated worker never claims again (SIGTERM kills it even
        # under the runner's inherited flush-on-signal handler).
        owner = claim.split()[0]
        cancelled = next(i for i, k, c, d in log if k == "cell_failed" and c == straggler)
        assert not [
            d for i, k, _c, d in log
            if i > cancelled and k == "lease_claimed" and d.split()[0] == owner
        ]
        assert ("cell_failed", "cancelled by coordinator") in history
        assert [d for k, d in history if k == "cell_done"] == ["coordinator-serial"]
        serial_bytes = (tmp_path / "serial" / "par-deadline__time.json").read_bytes()
        queue_bytes = (tmp_path / "queue" / "par-deadline__time.json").read_bytes()
        assert queue_bytes == serial_bytes

    def test_chaos_cache_byte_identical_to_clean_serial_run(
        self, trace, tmp_path, monkeypatch
    ):
        """Killing a worker mid-cell must not leave a trace in the cache:
        the healed/pinned run writes the same bytes as a clean serial one."""
        # The runner path auto-clamps to the machine; pretend we have
        # cores so a single-CPU CI box still forks workers.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        main_pid = os.getpid()
        target = run_seed(WORKLOADS[1], 1)

        def chaos_factory(environment, objective, seed):
            if seed == target and os.getpid() != main_pid:
                os._exit(1)
            return random_factory(environment, objective, seed)

        grid_clean = _grid("par-chaos", random_factory)
        grid_chaos = _grid("par-chaos", chaos_factory)
        clean = ExperimentRunner(trace, cache_dir=tmp_path / "clean")
        chaos = ExperimentRunner(trace, cache_dir=tmp_path / "chaos")
        assert clean.run(grid_clean, workers=1) == chaos.run(grid_chaos, workers=2)
        clean_bytes = (tmp_path / "clean" / "par-chaos__time.json").read_bytes()
        chaos_bytes = (tmp_path / "chaos" / "par-chaos__time.json").read_bytes()
        assert clean_bytes == chaos_bytes

    def test_cell_retried_mirror_round_trips_through_cache(
        self, trace, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        main_pid = os.getpid()

        def flaky_factory(environment, objective, seed):
            if os.getpid() != main_pid:
                raise RuntimeError("worker-side failure")
            return random_factory(environment, objective, seed)

        runner = ExperimentRunner(trace, cache_dir=tmp_path)
        grid = _grid("par-mirror", flaky_factory)
        first = runner.run(grid, workers=2)
        result = first[WORKLOADS[0]][0]
        mirror = [e for e in result.events if e.kind == "cell_retried"]
        # The queue's worker attempts are spent, then the serial
        # fallback: one mirror, ahead of the search's own events.
        assert len(mirror) == 1 and result.events[0] == mirror[0]
        assert mirror[0].detail == (
            "serial fallback after RuntimeError: worker-side failure"
        )
        # The cache round-trips them: a second run loads, not recomputes.
        events: list[CellEvent] = []
        second = runner.run(grid, workers=2, on_event=events.append)
        assert {event.kind for event in events} == {"cell_cached"}
        assert first == second


class _InterruptAfter:
    """Event sink that simulates dying after N completed cells."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.finished = 0

    def __call__(self, event: CellEvent) -> None:
        if event.kind == "cell_finished":
            self.finished += 1
            if self.finished >= self.after:
                raise KeyboardInterrupt


class TestResume:
    def test_interrupted_grid_resumes_from_journal(self, trace, tmp_path):
        """Only the cells the interrupted run never recorded in its queue
        file are recomputed, and the final cache is byte-identical to an
        uninterrupted run's."""
        grid = _grid("par-resume", random_factory)
        clean = ExperimentRunner(trace, cache_dir=tmp_path / "clean")
        clean.run(grid, workers=1)

        runner = ExperimentRunner(trace, cache_dir=tmp_path / "bumpy")
        with pytest.raises(KeyboardInterrupt):
            runner.run(grid, workers=1, on_event=_InterruptAfter(3))
        queue_path = tmp_path / "bumpy" / "par-resume__time.queue"
        # The interrupting cell was never yielded back, so it is not
        # recorded; the two before it are durable.
        assert _recorded(queue_path) == 2
        assert not list((tmp_path / "bumpy").glob("*.journal"))

        events: list[CellEvent] = []
        resumed = runner.run(grid, workers=1, resume=True, on_event=events.append)
        kinds = [event.kind for event in events]
        assert kinds.count("cell_resumed") == 2
        assert kinds.count("cell_scheduled") == 6 - 2
        assert resumed == clean.run(grid, workers=1)
        clean_bytes = (tmp_path / "clean" / "par-resume__time.json").read_bytes()
        bumpy_bytes = (tmp_path / "bumpy" / "par-resume__time.json").read_bytes()
        assert clean_bytes == bumpy_bytes
        # A clean completion retires its record.
        assert not queue_path.exists()

    def test_resume_false_discards_stale_journal(self, trace, tmp_path):
        grid = _grid("par-noresume", random_factory)
        runner = ExperimentRunner(trace, cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            runner.run(grid, workers=1, on_event=_InterruptAfter(3))
        events: list[CellEvent] = []
        runner.run(grid, workers=1, on_event=events.append)
        kinds = [event.kind for event in events]
        assert "cell_resumed" not in kinds
        assert kinds.count("cell_scheduled") == 6  # everything recomputed

    def test_fully_journaled_grid_recomputes_nothing(self, trace, tmp_path):
        grid = _grid("par-full", random_factory)
        runner = ExperimentRunner(trace, cache_dir=tmp_path)
        reference = runner.run(grid, workers=1)
        cache_path = tmp_path / "par-full__time.json"
        # Rebuild the record from the consolidated cache, then delete
        # the cache: the state of a run killed right before its final
        # consolidation.
        import json

        cached = json.loads(cache_path.read_text())["results"]
        with GridCheckpoint.for_cache(cache_path) as record:
            for workload_id, per_workload in cached.items():
                for seed_key, payload in per_workload.items():
                    record.record((workload_id, int(seed_key)), payload)
        cache_path.unlink()

        events: list[CellEvent] = []
        resumed = runner.run(grid, workers=1, resume=True, on_event=events.append)
        assert resumed == reference
        assert {event.kind for event in events} == {"cell_resumed"}
        # The consolidated cache was rebuilt and the record retired.
        assert cache_path.exists()
        assert not (tmp_path / "par-full__time.queue").exists()

    def test_out_of_order_record_resumes_to_clean_bytes(self, trace, tmp_path):
        """Queue workers finish cells out of order, so an interrupted
        run can record a later repeat without an earlier one; the
        resumed cache still lists repeats in order, byte for byte."""
        grid = _grid("par-holes", random_factory)
        runner = ExperimentRunner(trace, cache_dir=tmp_path)
        runner.run(grid, workers=1)
        cache_path = tmp_path / "par-holes__time.json"
        clean_bytes = cache_path.read_bytes()
        import json

        cached = json.loads(clean_bytes)["results"]
        with GridCheckpoint.for_cache(cache_path) as record:
            for workload_id in WORKLOADS:
                record.record((workload_id, 1), cached[workload_id]["1"])
        cache_path.unlink()

        events: list[CellEvent] = []
        runner.run(grid, workers=1, resume=True, on_event=events.append)
        kinds = [event.kind for event in events]
        assert kinds.count("cell_resumed") == len(WORKLOADS)
        assert cache_path.read_bytes() == clean_bytes

    def test_journal_payloads_tolerate_damage(self, trace, tmp_path):
        """A malformed stored payload is dropped and its cell recomputed."""
        grid = _grid("par-damage", random_factory, repeats=1)
        runner = ExperimentRunner(trace, cache_dir=tmp_path)
        reference = runner.run(grid, workers=1)
        cache_path = tmp_path / "par-damage__time.json"
        cache_path.unlink()
        with GridCheckpoint.for_cache(cache_path) as record:
            record.record((WORKLOADS[0], 0), {"optimizer": "x"})  # invalid shape
        events: list[CellEvent] = []
        resumed = runner.run(grid, workers=1, resume=True, on_event=events.append)
        assert resumed == reference
        kinds = [event.kind for event in events]
        assert "cell_resumed" not in kinds
        assert kinds.count("cell_scheduled") == 3

    @pytest.mark.parametrize(
        ("first", "then"),
        [("serial", "vector"), ("vector", "queue"), ("queue", "serial")],
    )
    def test_resume_under_a_different_executor(
        self, trace, tmp_path, monkeypatch, first, then
    ):
        """One record for every executor: cells recorded under one
        resume under another, and the cache matches a clean serial run."""
        grid = _grid("par-cross", random_factory)
        clean = ExperimentRunner(trace, cache_dir=tmp_path / "clean")
        clean.run(grid, executor="serial")

        runner = ExperimentRunner(trace, cache_dir=tmp_path / "bumpy")
        on_event = None
        if first == "queue":
            # Queue workers record cells themselves; stop the coordinator.
            on_event = _InterruptAfter(3)
        else:
            # The vector driver yields only once every search is done, so
            # interrupt on the runner's third record instead.
            record = GridCheckpoint.record
            recorded_calls = []

            def record_then_die(self, cell, payload):
                record(self, cell, payload)
                recorded_calls.append(cell)
                if len(recorded_calls) == 3:
                    raise KeyboardInterrupt

            monkeypatch.setattr(GridCheckpoint, "record", record_then_die)
        with pytest.raises(KeyboardInterrupt):
            runner.run(grid, executor=first, workers=1, on_event=on_event)
        monkeypatch.undo()
        queue_path = tmp_path / "bumpy" / "par-cross__time.queue"
        recorded = _recorded(queue_path)
        assert recorded >= 3

        events: list[CellEvent] = []
        runner.run(
            grid, executor=then, workers=1, resume=True, on_event=events.append
        )
        kinds = [event.kind for event in events]
        assert kinds.count("cell_resumed") == recorded
        assert kinds.count("cell_scheduled") == 6 - recorded
        clean_bytes = (tmp_path / "clean" / "par-cross__time.json").read_bytes()
        bumpy_bytes = (tmp_path / "bumpy" / "par-cross__time.json").read_bytes()
        assert clean_bytes == bumpy_bytes
        assert queue_path.exists() == (then == "queue")


    @pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
    def test_interrupted_auto_pool_resumes_serially(self, trace, tmp_path, monkeypatch):
        """``auto``'s local queue workers write each result to the grid's
        queue file, so an interrupted parallel run resumes under the
        serial executor with every written cell recovered."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        grid = _grid("par-auto-resume", random_factory)
        clean = ExperimentRunner(trace, cache_dir=tmp_path / "clean")
        clean.run(grid, workers=1)

        runner = ExperimentRunner(trace, cache_dir=tmp_path / "bumpy")
        with pytest.raises(KeyboardInterrupt):
            runner.run(grid, workers=2, on_event=_InterruptAfter(3))
        queue_path = tmp_path / "bumpy" / "par-auto-resume__time.queue"
        recorded = _recorded(queue_path)
        assert recorded >= 3

        events: list[CellEvent] = []
        runner.run(grid, workers=1, resume=True, on_event=events.append)
        kinds = [event.kind for event in events]
        assert kinds.count("cell_resumed") == recorded
        assert kinds.count("cell_scheduled") == 6 - recorded
        clean_bytes = (tmp_path / "clean" / "par-auto-resume__time.json").read_bytes()
        bumpy_bytes = (tmp_path / "bumpy" / "par-auto-resume__time.json").read_bytes()
        assert clean_bytes == bumpy_bytes
        assert not queue_path.exists()


def _recorded(queue_path: Path) -> int:
    """Cells an interrupted run left ``done`` in its queue file."""
    with WorkQueue.attach(queue_path, readonly=True) as queue:
        return queue.counts()["done"]
