"""Supervised parallel experiment engine.

Shards :class:`~repro.analysis.runner.RunGrid` cells across a process
pool with deterministic per-cell seeding, so grid results are identical
(bit for bit, caches included) no matter how many workers ran them.
Cells are dispatched through the pluggable
:class:`~repro.parallel.executors.CellExecutor` protocol
(``submit/poll/cancel/shutdown``) and supervised by
:class:`~repro.parallel.supervisor.Supervisor` — per-cell deadlines,
bounded retries, pool self-healing with a restart budget, poison-cell
quarantine.  Worker counts are clamped to what the machine and grid can
use (:func:`~repro.parallel.engine.plan_workers`), forked workers read
the trace they inherit from the parent, and completed cells are
recorded crash-safely by
:class:`~repro.parallel.checkpoint.GridCheckpoint` in the grid's
work-queue file — one durable record for every executor — so
interrupted grids resume, under any executor, instead of recomputing.

For campaigns that must survive more than worker deaths, the durable
work queue (:mod:`repro.parallel.queue`) also runs the grid from that
SQLite file next to the cache: leased cells, heartbeats, at-least-once
requeue of cells whose worker died, and an external worker fleet via
``arrow queue-worker`` — all behind the same executor protocol
(:class:`~repro.parallel.queue.QueueExecutor`).

On the other axis entirely, ``executor="vector"``
(:class:`~repro.parallel.vector.VectorizedGridDriver`) trades process
parallelism for batched linear algebra: every cell's search advances in
lock-step and the per-round surrogate work — ensemble growth, packed
tree traversal, GP conditioning, EI — is computed once across all live
searches, bit-identical per search to the serial loop.
"""

from repro.parallel.checkpoint import GridCheckpoint, flush_on_signal
from repro.parallel.engine import (
    DEFAULT_POOL_RESTARTS,
    EXECUTOR_CHOICES,
    POOL_MIN_CELLS,
    build_executor,
    plan_workers,
    run_cells,
)
from repro.parallel.events import CELL_EVENT_KINDS, GRID_EVENT_KINDS, CellEvent
from repro.parallel.executors import (
    CellExecutor,
    CellOutcome,
    ForkPoolExecutor,
    SerialExecutor,
)
from repro.parallel.queue import (
    Lease,
    QueueConfig,
    QueueExecutor,
    WorkQueue,
    queue_worker_loop,
)
from repro.parallel.supervisor import SupervisionConfig, Supervisor
from repro.parallel.vector import VectorizedGridDriver

__all__ = [
    "CELL_EVENT_KINDS",
    "CellEvent",
    "CellExecutor",
    "CellOutcome",
    "DEFAULT_POOL_RESTARTS",
    "EXECUTOR_CHOICES",
    "ForkPoolExecutor",
    "GRID_EVENT_KINDS",
    "GridCheckpoint",
    "Lease",
    "POOL_MIN_CELLS",
    "QueueConfig",
    "QueueExecutor",
    "SerialExecutor",
    "SupervisionConfig",
    "Supervisor",
    "VectorizedGridDriver",
    "WorkQueue",
    "build_executor",
    "flush_on_signal",
    "plan_workers",
    "queue_worker_loop",
    "run_cells",
]
