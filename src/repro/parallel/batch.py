"""Within-search measurement fan-out for batched suggestions.

:class:`MeasurementFanout` implements the
:data:`~repro.core.smbo.BatchFanout` callable a q>1 search round
accepts: it takes one round's measurement cells (``(iteration, catalog
index)`` tuples) plus the optimiser's attempt ladder,
:meth:`~repro.core.smbo.SequentialOptimizer.batch_measure_task`, which
batch rounds call without a live guard, and returns every outcome.
Correctness never depends on the backend: an unguarded task derives its
random streams from its spawn key and records its attempts
task-locally, and the optimiser replays them through its commit
functions in catalog-index order, so serial and pool runs are
bit-identical.

The ``"pool"`` backend reuses the execution plane's
:class:`~repro.parallel.executors.ForkPoolExecutor` — per-worker pipes,
contained crashes — with the optimiser's bound task as the worker's
``run_cell``.  Workers see the optimiser through fork-inherited memory;
their copies of its environment go stale as the parent commits rounds,
which is harmless because every task re-arms the environment's streams
from its spawn key before measuring.  The pool is forked lazily on the
first fan-out and persists across rounds (and searches, while the task
callable compares equal); a cell whose worker crashed or errored is
deterministically re-run inline in the parent, so a lost worker costs
capacity, never a measurement.

This module sits above :mod:`repro.core` (the optimiser only sees the
injected callable), keeping the core loop import-free of the execution
plane.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.parallel.executors import ForkPoolExecutor

#: Fan-out backends: ``"serial"`` runs tasks inline in pick order,
#: ``"pool"`` spreads them over a persistent fork pool.
BATCH_BACKENDS = ("serial", "pool")


class MeasurementFanout:
    """Runs one batch's measurement tasks on a pluggable backend.

    Args:
        backend: one of :data:`BATCH_BACKENDS`.
        workers: pool capacity for the ``"pool"`` backend (a value of 1
            short-circuits to the inline path — a one-worker pool is
            pure overhead).
    """

    def __init__(self, backend: str = "serial", workers: int = 1) -> None:
        if backend not in BATCH_BACKENDS:
            raise ValueError(
                f"unknown batch backend {backend!r}; known: {BATCH_BACKENDS}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.backend = backend
        self.workers = workers
        self._executor: ForkPoolExecutor | None = None
        self._run_task: Callable[[Any], Any] | None = None

    def __call__(
        self, cells: list[Any], run_task: Callable[[Any], Any]
    ) -> list[Any]:
        if self.backend == "serial" or self.workers == 1 or len(cells) <= 1:
            return [run_task(cell) for cell in cells]
        executor = self._ensure_executor(run_task)
        for cell in cells:
            executor.submit(cell)
        pending = set(cells)
        outcomes: list[Any] = []
        failed: list[Any] = []
        while pending:
            for outcome in executor.poll():
                pending.discard(outcome.cell)
                if outcome.ok:
                    outcomes.append(outcome.result)
                else:
                    failed.append(outcome.cell)
        # Worker-side crash or error: the task is self-seeded, so an
        # inline re-run in the parent reproduces exactly what the worker
        # would have returned.
        for cell in sorted(failed):
            outcomes.append(run_task(cell))
        return outcomes

    def _ensure_executor(self, run_task: Callable[[Any], Any]) -> ForkPoolExecutor:
        # Bound methods compare equal across property accesses on the
        # same instance, so one optimiser keeps one pool across rounds;
        # a different task (another search's optimiser) rebuilds it.
        if self._executor is not None and self._run_task == run_task:
            return self._executor
        self.close()
        self._executor = ForkPoolExecutor(self.workers, run_task)
        self._run_task = run_task
        return self._executor

    def close(self) -> None:
        """Shut the pool down (it re-forks lazily on the next fan-out)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._run_task = None

    def __enter__(self) -> MeasurementFanout:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
