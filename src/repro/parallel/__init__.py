"""Supervised parallel experiment engine.

Shards :class:`~repro.analysis.runner.RunGrid` cells across worker
processes with deterministic per-cell seeding, so grid results are
identical (bit for bit, caches included) no matter how many workers ran
them.  :func:`~repro.parallel.engine.run_cells` runs a grid as a plain
in-process loop or on the durable work queue, where
:func:`~repro.parallel.queue.supervise` completes every crashed, failed
or timed-out cell serially in the parent.  Worker counts are clamped
to what the machine and grid can use
(:func:`~repro.parallel.engine.plan_workers`).

There is one process backend: the durable work queue
(:mod:`repro.parallel.queue`), one SQLite file next to the cache.
``executor="auto"`` runs a grid the planner gives more than one worker
on its fork-local pull-workers, and ``executor="queue"`` also admits an
external fleet via ``arrow queue-worker``: leased cells, heartbeats,
at-least-once requeue of cells whose worker died, lease-based
deadlines (:class:`~repro.parallel.queue.QueueExecutor`).  Forked workers read
the trace they inherit from the parent.  The same file is the grid's
one durable per-cell record for every executor
(:class:`~repro.parallel.checkpoint.GridCheckpoint`), so interrupted
grids resume, under any executor, instead of recomputing.

On the other axis entirely, ``executor="vector"``
(:class:`~repro.parallel.vector.VectorizedGridDriver`) trades process
parallelism for batched linear algebra: every cell's search advances in
lock-step and the per-round surrogate work — ensemble growth, packed
tree traversal, GP conditioning, EI — is computed once across all live
searches, bit-identical per search to the serial loop.
"""

from repro.parallel.checkpoint import GridCheckpoint, flush_on_signal
from repro.parallel.engine import (
    EXECUTOR_CHOICES,
    POOL_MIN_CELLS,
    plan_workers,
    run_cells,
)
from repro.parallel.events import CELL_EVENT_KINDS, GRID_EVENT_KINDS, CellEvent
from repro.parallel.queue import (
    Lease,
    QueueConfig,
    QueueExecutor,
    WorkQueue,
    queue_worker_loop,
    supervise,
)
from repro.parallel.vector import VectorizedGridDriver

__all__ = [
    "CELL_EVENT_KINDS",
    "CellEvent",
    "EXECUTOR_CHOICES",
    "GRID_EVENT_KINDS",
    "GridCheckpoint",
    "Lease",
    "POOL_MIN_CELLS",
    "QueueConfig",
    "QueueExecutor",
    "VectorizedGridDriver",
    "WorkQueue",
    "flush_on_signal",
    "plan_workers",
    "queue_worker_loop",
    "run_cells",
    "supervise",
]
