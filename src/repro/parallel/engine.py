"""Supervised execution of experiment grid cells.

The engine runs ``(workload, repeat)`` cells of a
:class:`~repro.analysis.runner.RunGrid` one of three ways: a plain
in-process loop, the durable work queue — a
:class:`~repro.parallel.queue.QueueExecutor` across forked local
pull-workers (and any external ones), driven by
:func:`~repro.parallel.queue.supervise`, which completes every cell
that does not come back cleanly serially in the parent — or the
lock-step :class:`~repro.parallel.vector.VectorizedGridDriver`.

Properties that make this a drop-in for the serial loop:

* **Determinism** — each cell's optimiser is built from a deterministic
  seed (``seed_fn(workload_id, repeat)``, by default
  :func:`~repro.analysis.runner.run_seed`), so a cell's result does not
  depend on which worker ran it, in what order, or how many times it
  had to be re-run.  Results are yielded as their cells finish, as one
  list per batch of cells that finished together (one cell at a time
  serially and on the work queue, one lock-step round under the vector
  driver), so a caller can record each batch at once; the runner
  writes every workload's repeats in order, so the cache it assembles
  is byte-identical to the serial path's whatever the yield order.
* **Fork-based context sharing** — optimiser factories are arbitrary
  closures and therefore not picklable.  The engine stores the cell
  context (trace, factory, objective, seed function) in a module global
  *before* any worker forks; workers inherit it through copy-on-write
  memory, and only ``(workload_id, repeat)`` rows and the canonical
  JSON payloads of :class:`~repro.core.result.SearchResult` objects
  ever cross the process boundary (through the queue file).  The
  trace's numpy buffers are never written, so the inherited pages stay
  shared.  When fork is unavailable (or ``workers <= 1``, or the grid
  is small) the engine runs serially in-process — same code path per
  cell, no workers.
* **One process backend** — ``executor="auto"`` runs a grid the planner
  gives more than one worker on a :class:`~repro.parallel.queue.
  QueueExecutor` with that many local workers: in the runner's
  ``<cache>.queue`` file when there is a cache, in a temporary
  directory (removed afterwards) when there is not.
* **Worker clamping** — a requested worker count is only a ceiling: the
  engine clamps it to ``min(workers, os.cpu_count(), n_cells)`` and
  skips the workers entirely for grids under :data:`POOL_MIN_CELLS`
  cells (:func:`plan_workers`), where fork + warm-up overhead exceeds
  the work.  The decision is observable as a ``pool_planned`` event.
* **Crash containment** — a worker that raises or dies costs only its
  cell's attempt: the queue requeues the cell and respawns the worker,
  up to its ``max_attempts``.  A cell the queue parks (``failed`` after
  application errors, ``poisoned`` after worker deaths) is completed
  serially in the parent, so a deterministic failure surfaces exactly
  as it would have serially.  A cell exceeding ``cell_timeout`` seconds
  of execution is cancelled (the local worker holding its lease alone
  is terminated) and completed serially, so one straggler never stalls
  the grid.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import tempfile
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from repro.analysis.runner import OptimizerFactory, run_seed
from repro.core.objectives import Objective
from repro.core.result import SearchResult
from repro.parallel.events import CellEvent
from repro.parallel.queue import (
    QUEUE_SUFFIX,
    Cell,
    QueueConfig,
    QueueExecutor,
    supervise,
)
from repro.trace.dataset import BenchmarkTrace

#: Executor backends selectable by name: ``auto`` runs serially or on
#: the work queue's local workers, from the planned worker count;
#: ``queue`` always dispatches through the durable work queue
#: (:mod:`repro.parallel.queue`) and keeps its file; ``vector`` advances
#: every cell's search in lock-step, batching per-round surrogate linear
#: algebra across searches (:mod:`repro.parallel.vector`) — in-process,
#: one worker, bit-identical results.
EXECUTOR_CHOICES: tuple[str, ...] = ("auto", "serial", "queue", "vector")

#: Maps a cell to its optimiser seed.
SeedFn = Callable[[str, int], int]

#: Optional progress-event sink.
EventSink = Callable[[CellEvent], None] | None

#: Below this many cells workers never pay for themselves: per-worker
#: fork + interpreter warm-up costs hundreds of milliseconds, while a
#: grid this small finishes in about that time serially.
POOL_MIN_CELLS = 4


def plan_workers(
    workers: int, n_cells: int, cpu_count: int | None = None
) -> int:
    """Effective worker count for a grid of ``n_cells`` cells.

    Clamps the request to the machine (``os.cpu_count()``) and to the
    work available (``n_cells`` — extra workers would only idle), and
    degrades to serial (1) for grids under :data:`POOL_MIN_CELLS`,
    where worker spin-up exceeds the work itself.

    This is also the single validation site for worker counts: every
    entry point (:func:`run_cells`, the runner, the CLI) funnels
    through it, by way of :func:`check_run_options`.

    Raises:
        ValueError: if ``workers`` is less than 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if n_cells < POOL_MIN_CELLS:
        return 1
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return max(1, min(workers, cores, n_cells))


class _CellContext:
    """Everything a worker needs to execute one cell."""

    __slots__ = ("trace", "factory", "objective", "seed_fn")

    def __init__(
        self,
        trace: BenchmarkTrace,
        factory: OptimizerFactory,
        objective: Objective,
        seed_fn: SeedFn,
    ) -> None:
        self.trace = trace
        self.factory = factory
        self.objective = objective
        self.seed_fn = seed_fn


# Set in the parent before any worker forks; workers inherit it.  This
# is the only channel for the (unpicklable) factory and trace.
_CELL_CONTEXT: _CellContext | None = None


def _execute_cell(cell: Cell) -> SearchResult:
    """Run one cell's search using the process-inherited context."""
    context = _CELL_CONTEXT
    if context is None:
        raise RuntimeError("cell context is not initialised in this process")
    workload_id, repeat = cell
    environment = context.trace.environment(workload_id)
    optimizer = context.factory(
        environment, context.objective, context.seed_fn(workload_id, repeat)
    )
    return optimizer.run()


def _prime_before_fork(context: _CellContext, cell: Cell) -> None:
    """Build ``cell``'s optimiser once in the parent, before any fork.

    Whatever the build imports (scipy for GP methods, nothing for
    AugmentedBO) is then inherited by every forked worker instead of
    being imported by each of them.  A build that raises is ignored
    here: the cell's own attempt raises again and is supervised as
    usual.
    """
    workload_id, repeat = cell
    try:
        context.factory(
            context.trace.environment(workload_id),
            context.objective,
            context.seed_fn(workload_id, repeat),
        )
    except Exception:  # noqa: BLE001 - reported by the cell's own attempt
        pass


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _scratch_root() -> str | None:
    """Where a grid without a cache keeps its throwaway queue: the
    memory-backed ``/dev/shm`` when the host has one, so the queue's
    commits sync no disk (nothing in the file outlives the grid);
    otherwise the default temporary directory."""
    shm = "/dev/shm"
    return shm if os.path.isdir(shm) and os.access(shm, os.W_OK) else None


def queue_backed(executor: str, workers: int, n_cells: int) -> bool:
    """Whether :func:`run_cells` runs a grid of ``n_cells`` cells on the
    work queue: always under ``"queue"``, and under ``"auto"`` when
    :func:`plan_workers` gives it more than one worker and the platform
    can fork them.  The runner asks too, because queue workers record
    each result in the file themselves."""
    if executor == "queue":
        return True
    return (
        executor == "auto"
        and plan_workers(workers, n_cells) > 1
        and _fork_available()
    )


def check_run_options(
    executor: str, workers: int, cell_timeout: float | None
) -> None:
    """Reject an unknown ``executor``, ``workers`` below 1, or a set but
    non-positive ``cell_timeout``.

    :func:`run_cells` and the runner both call it first, so a fully
    cached grid refuses the options a grid with work to do refuses.
    """
    if executor not in EXECUTOR_CHOICES:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {EXECUTOR_CHOICES}"
        )
    plan_workers(workers, 0)  # raises on a count below 1
    if cell_timeout is not None and not cell_timeout > 0:
        raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")


def run_cells(
    trace: BenchmarkTrace,
    factory: OptimizerFactory,
    objective: Objective,
    cells: Iterable[Cell],
    workers: int = 1,
    on_event: EventSink = None,
    seed_fn: SeedFn = run_seed,
    cell_timeout: float | None = None,
    executor: str = "auto",
    queue: QueueConfig | None = None,
) -> Iterator[list[tuple[Cell, SearchResult]]]:
    """Execute grid cells, yielding the ``(cell, result)`` pairs that
    finished together as one list.

    The serial loop and the work queue yield one-cell lists, the serial
    loop in submission order and the queue in whatever order its cells
    settle; the vector driver yields one list per lock-step round that
    finished any search.  No list is empty.

    Args:
        trace: the ground-truth trace to replay against.
        factory: builds the optimiser for each cell.
        objective: what to minimise.
        cells: the ``(workload_id, repeat)`` pairs to run.
        workers: requested worker count, reduced to what can help —
            ``min(workers, cpu_count, n_cells)``, serial for tiny grids
            (:func:`plan_workers`); the decision is reported via a
            ``pool_planned`` event.  ``<= 1`` runs serially in-process.
        on_event: optional sink for :class:`~repro.parallel.events.CellEvent`
            progress events.
        seed_fn: maps a cell to its optimiser seed (default
            :func:`~repro.analysis.runner.run_seed`).
        cell_timeout: wall-clock deadline in seconds per cell execution
            on local queue workers; a straggler past it is cancelled and
            completed serially.  ``None`` (default) disables deadlines.
            Validated for every executor; only the work queue enforces
            it.
        executor: backend selection (:data:`EXECUTOR_CHOICES`).
            ``"auto"`` (default) runs serially, or on the work queue's
            local workers when :func:`queue_backed` says so;
            ``"serial"`` forces in-process execution; ``"queue"``
            dispatches through the durable :class:`~repro.parallel.queue.WorkQueue`
            (crash-surviving, external workers welcome) and requires
            ``queue``; ``"vector"`` runs every cell in-process via the
            lock-step :class:`~repro.parallel.vector.VectorizedGridDriver`,
            batching surrogate rounds across searches with results
            bit-identical to ``"serial"`` (worker knobs are ignored —
            there is exactly one worker).
        queue: the :class:`~repro.parallel.queue.QueueConfig` of the
            grid's queue file — required, with an explicit ``path``, by
            ``executor="queue"``.  An ``"auto"`` grid on the queue uses
            its ``path``, ``cache_key`` and timings (never its
            ``workers``: the planned count is), or a temporary file when
            there is none.  Ignored by the other backends.

    Raises:
        ValueError: if ``workers`` is less than 1, if ``cell_timeout``
            is not a positive number, if ``executor`` is unknown, or if
            ``executor="queue"`` lacks a usable ``queue`` config.
    """
    check_run_options(executor, workers, cell_timeout)
    if executor == "queue" and (queue is None or queue.path is None):
        raise ValueError('executor="queue" requires a QueueConfig with a path')
    cells = list(cells)
    if executor == "vector":
        # The vectorized driver is its own execution plane: in-process,
        # single-worker, unsupervised (an application error propagates
        # exactly as the serial path's final attempt would).
        from repro.parallel.vector import VectorizedGridDriver

        driver = VectorizedGridDriver(
            trace, factory, objective, cells, seed_fn=seed_fn, on_event=on_event
        )
        yield from driver.run()
        return
    effective = plan_workers(workers, len(cells))
    if on_event is not None:
        on_event(
            CellEvent.for_grid(
                "pool_planned",
                f"workers requested={workers} effective={effective} "
                f"cells={len(cells)} cpus={os.cpu_count() or 1}",
            )
        )
    on_queue = queue_backed(executor, workers, len(cells))
    local_workers = 0
    scratch: str | None = None
    if on_queue:
        if executor == "auto":
            local_workers = effective
            if queue is None or queue.path is None:
                # No cache to sit next to: the queue lives only as long
                # as the grid.
                scratch = tempfile.mkdtemp(prefix="arrow-grid-", dir=_scratch_root())
                queue = dataclasses.replace(
                    queue if queue is not None else QueueConfig(),
                    path=Path(scratch) / f"grid{QUEUE_SUFFIX}",
                )
        elif _fork_available():
            local_workers = queue.workers if queue.workers is not None else effective
        # else: an external fleet (or the stall takeover) does the work.

    global _CELL_CONTEXT
    previous = _CELL_CONTEXT
    _CELL_CONTEXT = _CellContext(
        trace=trace,
        factory=factory,
        objective=objective,
        seed_fn=seed_fn,
    )
    try:
        if on_queue:
            backend = QueueExecutor(
                dataclasses.replace(queue, workers=local_workers),
                _execute_cell,
                objective,
                seed_fn,
                on_event=on_event,
            )
            # Local workers fork lazily, on the first poll, so priming
            # here still precedes every fork.
            if local_workers > 0 and cells:
                _prime_before_fork(_CELL_CONTEXT, cells[0])
            yield from supervise(backend, cells, cell_timeout, on_event)
        else:
            # In-process: nothing can crash or straggle, and a cell's
            # exception propagates unchanged.
            if on_event is not None:
                for cell in cells:
                    on_event(CellEvent.for_cell("cell_scheduled", cell))
            for cell in cells:
                result = _execute_cell(cell)
                if on_event is not None:
                    on_event(CellEvent.for_cell("cell_finished", cell))
                yield [(cell, result)]
    finally:
        _CELL_CONTEXT = previous
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
