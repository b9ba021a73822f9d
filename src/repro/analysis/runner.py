"""Experiment runner with an on-disk result cache.

The paper's evaluation repeats every (optimiser, objective, workload)
search with many different initial designs.  Each repeat is deterministic
given its seed, so results are cached as JSON keyed by
``(grid key, objective)`` and never recomputed — every figure's bench can
share one underlying grid of runs.

Seeds are derived per (workload, repeat) so repeats are decorrelated
across workloads while remaining reproducible across processes.

The cache is crash-safe: writes are atomic (tmp + rename), files carry
one schema version (:data:`CACHE_SCHEMA_VERSION`), and a file with any
other schema (or none), a truncated file — the footprint of a killed
process — or any other unreadable file is quarantined aside
(``*.corrupt``) and recomputed rather than read as it is or crashing
the runner.  Every run is deterministic given its seed, so
recomputation yields identical results.

Interrupted grids resume instead of recomputing: every completed cell is
also recorded in the grid's ``*.queue`` file next to the cache
(:class:`~repro.parallel.checkpoint.GridCheckpoint`), SIGINT/SIGTERM
flush the consolidated cache before the process dies, and
``run(grid, resume=True)`` folds recorded results back in so at most
the in-flight cells of the interrupted run are recomputed — the final
cache file is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import logging
import numbers
import os
import zlib
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core.events import EVENT_KINDS, SearchEvent
from repro.core.objectives import Objective
from repro.core.result import FailureEvent, SearchResult, SearchStep
from repro.core.smbo import SequentialOptimizer
from repro.simulator.cluster import MeasurementEnvironment
from repro.trace.dataset import BenchmarkTrace
from repro.trace.generate import default_trace

logger = logging.getLogger(__name__)

#: The one cache schema the runner reads and writes.  Bump it whenever
#: the cached payload shape changes: a file with any other schema (or
#: none) is quarantined and recomputed, which is cheap and exact because
#: runs are deterministic.
CACHE_SCHEMA_VERSION = 3

#: Builds a fresh optimiser for one run: (environment, objective, seed).
OptimizerFactory = Callable[[MeasurementEnvironment, Objective, int], SequentialOptimizer]


def run_seed(workload_id: str, repeat: int) -> int:
    """Deterministic seed for one (workload, repeat) pair."""
    return (zlib.crc32(workload_id.encode()) ^ (repeat * 0x9E3779B1)) & 0x7FFFFFFF


@dataclass(frozen=True)
class RunGrid:
    """One experiment grid: an optimiser over workloads x repeats.

    Attributes:
        key: unique cache key; must change whenever ``factory`` changes
            behaviour (e.g. ``"naive-bo"``, ``"augmented-bo[stop=1.1]"``).
        factory: builds the optimiser for each run.
        objective: what to minimise.
        workload_ids: the workloads to run on.
        repeats: number of repeats (seeds 0..repeats-1 per workload).
    """

    key: str
    factory: OptimizerFactory
    objective: Objective
    workload_ids: tuple[str, ...]
    repeats: int

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not self.workload_ids:
            raise ValueError("workload_ids must not be empty")
        if "/" in self.key:
            raise ValueError("grid key must not contain '/' (it names a file)")


# The payload codec.  Queue workers serialize results with the same
# canonical encoder the cache uses, and the coordinator decodes with the
# same decoder the cache-read path uses, so a result that crossed the
# durable queue re-encodes byte-identically: queue runs produce the same
# cache files as serial runs.
def result_to_payload(result: SearchResult) -> dict:
    # Charges are appended only when fractional (spot pricing), so
    # on-demand payloads are byte-identical to the v2 encoding.  Python's
    # repr-based JSON float round-trips exactly, so a decoded charge is
    # the float that was billed — no drift across cache or queue hops.
    payload = {
        "optimizer": result.optimizer,
        "stopped_by": result.stopped_by,
        "steps": [
            [s.vm_name, s.objective_value, s.attempts]
            if s.charge == 1.0
            else [s.vm_name, s.objective_value, s.attempts, s.charge]
            for s in result.steps
        ],
    }
    # Fault observability is recorded only when present, keeping the
    # common fault-free cache compact.
    if result.quarantined_vms:
        payload["quarantined"] = list(result.quarantined_vms)
    if result.failure_events:
        payload["failures"] = [
            [e.step, e.vm_name, e.attempt, e.error]
            if e.charge == 1.0
            else [e.step, e.vm_name, e.attempt, e.error, e.charge]
            for e in result.failure_events
        ]
    if result.retry_wait_s:
        payload["retry_wait_s"] = result.retry_wait_s
    if result.events:
        payload["events"] = [
            [e.kind, e.step, e.vm_name, e.detail] for e in result.events
        ]
    return payload


def _valid_charge(charge: object) -> bool:
    """Whether an optional trailing charge element is a usable bill."""
    return (
        isinstance(charge, numbers.Real)
        and not isinstance(charge, bool)
        and float(charge) >= 0.0
    )


def valid_payload(payload: object) -> bool:
    """Whether one cached run entry has the trusted v3 shape.

    Step and failure rows optionally carry a trailing fractional charge
    (spot pricing); rows without one are the v2 shape and stay valid.
    """
    if not isinstance(payload, Mapping):
        return False
    if not isinstance(payload.get("optimizer"), str):
        return False
    if not isinstance(payload.get("stopped_by"), str):
        return False
    steps = payload.get("steps")
    if not isinstance(steps, list) or not steps:
        return False
    for step in steps:
        if not (isinstance(step, list) and len(step) in (3, 4)):
            return False
        vm_name, value, attempts = step[:3]
        if not isinstance(vm_name, str):
            return False
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            return False
        if not isinstance(attempts, int) or attempts < 1:
            return False
        if len(step) == 4 and not _valid_charge(step[3]):
            return False
    quarantined = payload.get("quarantined", [])
    if not (isinstance(quarantined, list) and all(isinstance(q, str) for q in quarantined)):
        return False
    failures = payload.get("failures", [])
    if not isinstance(failures, list):
        return False
    for failure in failures:
        if not (isinstance(failure, list) and len(failure) in (4, 5)):
            return False
        step, vm_name, attempt, error = failure[:4]
        if not (isinstance(step, int) and isinstance(attempt, int)):
            return False
        if not (isinstance(vm_name, str) and isinstance(error, str)):
            return False
        if len(failure) == 5 and not _valid_charge(failure[4]):
            return False
    retry_wait = payload.get("retry_wait_s", 0.0)
    if not (isinstance(retry_wait, numbers.Real) and not isinstance(retry_wait, bool)):
        return False
    events = payload.get("events", [])
    if not isinstance(events, list):
        return False
    for event in events:
        if not (isinstance(event, list) and len(event) == 4):
            return False
        kind, step, vm_name, detail = event
        if kind not in EVENT_KINDS:
            return False
        if not (isinstance(step, int) and step >= 1):
            return False
        if not (vm_name is None or isinstance(vm_name, str)):
            return False
        if not isinstance(detail, str):
            return False
    return True


def _in_repeat_order(entries: dict) -> dict:
    """``entries`` with its repeat keys in ascending order — the order a
    clean run writes them — and any other key after them.  A resumed
    run can hold recovered cells ahead of the ones it computes (queue
    workers record out of order), and must still write the same bytes."""
    repeats = sorted((key for key in entries if key.isdigit()), key=int)
    return {**{key: entries[key] for key in repeats}, **entries}


def result_from_payload(
    payload: Mapping, objective: Objective, workload_id: str
) -> SearchResult:
    steps = []
    best = float("inf")
    for index, row in enumerate(payload["steps"], start=1):
        vm_name, value, attempts = row[:3]
        best = min(best, float(value))
        steps.append(
            SearchStep(
                step=index,
                vm_name=vm_name,
                objective_value=float(value),
                best_value=best,
                attempts=attempts,
                # Stored charges are read back verbatim, never recomputed:
                # resume must bill exactly what the original run billed.
                charge=float(row[3]) if len(row) == 4 else 1.0,
            )
        )
    return SearchResult(
        optimizer=payload["optimizer"],
        objective=objective,
        workload_id=workload_id,
        steps=tuple(steps),
        stopped_by=payload["stopped_by"],
        quarantined_vms=tuple(payload.get("quarantined", [])),
        failure_events=tuple(
            FailureEvent(
                step=row[0],
                vm_name=row[1],
                attempt=row[2],
                error=row[3],
                charge=float(row[4]) if len(row) == 5 else 1.0,
            )
            for row in payload.get("failures", [])
        ),
        retry_wait_s=float(payload.get("retry_wait_s", 0.0)),
        events=tuple(
            SearchEvent(kind=kind, step=step, vm_name=vm_name, detail=detail)
            for kind, step, vm_name, detail in payload.get("events", [])
        ),
    )


class ExperimentRunner:
    """Runs :class:`RunGrid` experiments against one trace, with caching.

    Args:
        trace: the ground-truth trace to replay against (defaults to the
            canonical one).
        cache_dir: directory for JSON result caches; ``None`` disables
            caching.
        workers: default worker count for :meth:`run` (1 = serial).
            Per-cell seeding makes results — cache files included —
            byte-identical regardless of the worker count.
    """

    def __init__(
        self,
        trace: BenchmarkTrace | None = None,
        cache_dir: str | Path | None = None,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.trace = trace if trace is not None else default_trace()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.workers = workers
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _cache_path(self, grid: RunGrid) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{grid.key}__{grid.objective.value}.json"

    @staticmethod
    def _quarantine(cache_path: Path, reason: str) -> None:
        """Move a broken cache file aside instead of crashing on it."""
        target = cache_path.with_suffix(".corrupt")
        suffix = 0
        while target.exists():
            suffix += 1
            target = cache_path.with_suffix(f".corrupt-{suffix}")
        cache_path.replace(target)
        logger.warning(
            "quarantined cache file %s -> %s (%s); recomputing",
            cache_path, target.name, reason,
        )

    def _load_cache(self, cache_path: Path | None) -> dict[str, dict[str, dict]]:
        """The cached result map, or empty after quarantining a bad file.

        A truncated file (killed process), non-JSON bytes, or a schema
        mismatch all lead to quarantine-and-recompute: runs are
        deterministic, so recomputation restores identical semantics.
        """
        if cache_path is None or not cache_path.exists():
            return {}
        try:
            payload = json.loads(cache_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
            self._quarantine(cache_path, f"unreadable: {error}")
            return {}
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA_VERSION
            or not isinstance(payload.get("results"), dict)
        ):
            found = payload.get("schema") if isinstance(payload, dict) else None
            self._quarantine(
                cache_path,
                f"schema {found!r} != {CACHE_SCHEMA_VERSION}",
            )
            return {}
        return payload["results"]

    def run(
        self,
        grid: RunGrid,
        workers: int | None = None,
        on_event: Callable[..., None] | None = None,
        resume: bool = False,
        cell_timeout: float | None = None,
        seed_fn: Callable[[str, int], int] | None = None,
        executor: str = "auto",
        queue_workers: int | None = None,
        queue_lease_s: float = 30.0,
        queue_max_attempts: int = 3,
        queue_stall_timeout_s: float | None = 60.0,
        queue_pricing: str = "on-demand",
    ) -> dict[str, list[SearchResult]]:
        """All results of ``grid``, computed or loaded from cache.

        Cells missing from the cache are executed by the supervised
        parallel engine (:func:`repro.parallel.run_cells`) — serially
        in-process when ``workers`` is 1 — and merged back in grid
        order, so the cache file that lands on disk is byte-identical
        for any worker count (and for any interruption/resume history).

        While computing, every completed cell is recorded crash-safely
        in the grid's ``<cache>.queue`` file (the same file for every
        executor; the cells one lock-step ``vector`` round finishes
        share one commit) and SIGINT/SIGTERM flush the consolidated
        cache before the process dies, so an interrupted grid loses at
        most its in-flight cells.

        Args:
            grid: the experiment grid to run.
            workers: worker count for this call; defaults to the
                runner's ``workers``.
            on_event: optional sink for
                :class:`~repro.parallel.events.CellEvent` progress
                events (cache hits emit ``cell_cached``; cells
                recovered from the queue file emit ``cell_resumed``).
            resume: fold results recorded by an interrupted run back
                into the cache, skip those cells, and mark every cell
                the cache holds ``done`` in the queue file.  When False
                (default) a leftover queue file is removed — a fresh run
                was asked for.  Only meaningful with a ``cache_dir``.
            cell_timeout: wall-clock deadline per cell on local queue
                workers; stragglers are cancelled and completed serially.
            seed_fn: maps ``(workload_id, repeat)`` to the optimiser
                seed (default :func:`run_seed`).  The grid ``key`` must
                change whenever this changes — seeds determine results.
            executor: backend selection (``auto`` / ``serial`` /
                ``queue`` / ``vector``).  ``"auto"`` runs serially, or on
                the work queue's local workers when the planner gives
                the grid more than one; they write each result to the
                queue file, which a clean completion removes.
                ``"vector"`` runs every missing cell in-process through
                the lock-step
                :class:`~repro.parallel.vector.VectorizedGridDriver`,
                batching per-round surrogate algebra across searches
                with results (and the cache file) byte-identical to the
                serial path.  ``"queue"`` dispatches cells
                through the durable :class:`~repro.parallel.queue.
                WorkQueue` in that same file (crash-surviving,
                at-least-once; external workers can join via ``arrow
                queue-worker``) and therefore requires a
                ``cache_dir``.  Its workers record each result, and
                the file survives a clean completion: its events table
                is the run's persisted robustness record.
            queue_workers: local pull-workers the queue coordinator
                forks (``None`` = the planned worker count; ``0`` =
                rely on an external worker fleet).
            queue_lease_s: heartbeat-free lease lifetime before a queue
                worker is presumed dead and its cell requeued.
            queue_max_attempts: attempts per cell before the queue
                parks it (``poisoned``/``failed``) for the coordinator.
            queue_stall_timeout_s: coordinator watchdog — with work
                outstanding but no live workers or queue activity for
                this long, remaining cells are completed serially
                (``None`` waits for a fleet forever).
            queue_pricing: pricing mode recorded in the queue's meta
                table (``"on-demand"`` or ``"spot"``) so workers and
                ``arrow queue-status`` agree on how charges are read.

        Returns:
            Mapping from workload id to one result per repeat (repeat
            order preserved).

        Raises:
            ValueError: if ``executor`` is unknown, ``workers`` is below
                1 or ``cell_timeout`` is not a positive number (even
                when every cell is cached), or if ``executor="queue"``
                without a ``cache_dir``.
        """
        # Imported lazily: the engine imports this module at top level.
        from repro.parallel.checkpoint import GridCheckpoint, flush_on_signal
        from repro.parallel.engine import check_run_options, queue_backed, run_cells
        from repro.parallel.events import CellEvent

        n_workers = self.workers if workers is None else workers
        check_run_options(executor, n_workers, cell_timeout)
        cache_path = self._cache_path(grid)
        if executor == "queue" and cache_path is None:
            raise ValueError(
                'executor="queue" requires a cache_dir: the durable queue '
                "lives next to the cache file"
            )
        cache = self._load_cache(cache_path)

        checkpoint: GridCheckpoint | None = None
        recovered: dict[tuple[str, int], object] = {}
        if cache_path is not None:
            checkpoint = GridCheckpoint.for_cache(cache_path)
            if resume:
                cells = [(w, r) for w in grid.workload_ids for r in range(grid.repeats)]
                held = {(w, r) for w, r in cells if str(r) in cache.get(w, {})}
                recovered = checkpoint.resume(
                    [c for c in cells if c not in held], [c for c in cells if c in held]
                )
            else:
                # A fresh run was asked for: a stale record must not
                # inject results or serve old leases.
                checkpoint.clear()

        results: dict[str, list[SearchResult | None]] = {}
        missing: list[tuple[str, int]] = []
        for workload_id in grid.workload_ids:
            per_workload = cache.setdefault(workload_id, {})
            slots: list[SearchResult | None] = []
            for repeat in range(grid.repeats):
                seed_key = str(repeat)
                cell = (workload_id, repeat)
                if cell in recovered:
                    # An interrupted run completed this cell and its
                    # payload is durable in the queue file: fold it in
                    # as if it had been cached all along.
                    per_workload[seed_key] = recovered[cell]
                if seed_key in per_workload:
                    if valid_payload(per_workload[seed_key]):
                        slots.append(
                            result_from_payload(
                                per_workload[seed_key], grid.objective, workload_id
                            )
                        )
                        if on_event is not None:
                            kind = "cell_resumed" if cell in recovered else "cell_cached"
                            on_event(CellEvent.for_cell(kind, cell))
                        continue
                    # A malformed entry is dropped and recomputed below.
                    logger.warning(
                        "dropping malformed cache entry %s/%s in %s",
                        workload_id, seed_key, cache_path,
                    )
                    del per_workload[seed_key]
                slots.append(None)
                missing.append(cell)
            results[workload_id] = slots

        on_queue = bool(missing) and queue_backed(executor, n_workers, len(missing))
        queue_config = None
        if on_queue and checkpoint is not None:
            from repro.parallel.queue import QueueConfig

            queue_config = QueueConfig(
                path=checkpoint.path,
                cache_key=checkpoint.cache_key,
                workers=queue_workers if executor == "queue" else None,
                lease_duration_s=queue_lease_s,
                max_attempts=queue_max_attempts,
                stall_timeout_s=queue_stall_timeout_s,
                pricing=queue_pricing,
            )

        # Queue workers record each result themselves; the serial and
        # vector paths record through the checkpoint.
        recording = checkpoint is not None and not on_queue
        dirty = 0

        def flush() -> None:
            # The cache must be durable before the queue file, the other
            # copy of its cells, can be removed: fsync the new bytes,
            # rename, then fsync the directory entry.
            if cache_path is not None:
                tmp_path = cache_path.with_suffix(".tmp")
                ordered = {w: _in_repeat_order(e) for w, e in cache.items()}
                with tmp_path.open("w") as handle:
                    handle.write(
                        json.dumps({"schema": CACHE_SCHEMA_VERSION, "results": ordered})
                    )
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, cache_path)
                directory = os.open(cache_path.parent, os.O_RDONLY)
                try:
                    os.fsync(directory)
                finally:
                    os.close(directory)

        try:
            if missing:
                with flush_on_signal(flush):
                    for finished in run_cells(
                        trace=self.trace,
                        factory=grid.factory,
                        objective=grid.objective,
                        cells=missing,
                        workers=n_workers,
                        on_event=on_event,
                        seed_fn=seed_fn if seed_fn is not None else run_seed,
                        cell_timeout=cell_timeout,
                        executor=executor,
                        queue=queue_config,
                    ):
                        for (workload_id, repeat), result in finished:
                            results[workload_id][repeat] = result
                        if cache_path is None:
                            # No cache file and no checkpoint: nothing
                            # would read the encoded payload.
                            continue
                        payloads = [
                            (cell, result_to_payload(result)) for cell, result in finished
                        ]
                        for (workload_id, repeat), payload in payloads:
                            cache[workload_id][str(repeat)] = payload
                        if recording:
                            # Cells that finished together are durable
                            # together, in one commit: a kill -9 from
                            # here on loses only the cells in flight.
                            with checkpoint.batch():
                                for cell, payload in payloads:
                                    checkpoint.record(cell, payload)
                        dirty += len(finished)
                        # Consolidate periodically so the common restart
                        # path reads one JSON file, not a long record.
                        if dirty >= 100:
                            flush()
                            dirty = 0
            if dirty or recovered:
                flush()
        finally:
            if checkpoint is not None:
                checkpoint.close()
        # A clean completion owns its record — everything in it is now in
        # the consolidated cache — except under "queue", whose events
        # table is the run's persisted robustness record.
        if checkpoint is not None and executor != "queue":
            checkpoint.clear()
        return results

    def optimal_value(self, workload_id: str, objective: Objective) -> float:
        """Ground-truth optimal objective value for one workload."""
        return float(self.trace.objective_values(workload_id, objective.trace_key).min())

    def costs_to_optimum(
        self, results: Mapping[str, Sequence[SearchResult]], objective: Objective
    ) -> dict[str, list[int | None]]:
        """Per-workload, per-repeat search cost to the trace optimum."""
        costs: dict[str, list[int | None]] = {}
        for workload_id, runs in results.items():
            optimum = self.optimal_value(workload_id, objective)
            costs[workload_id] = [run.first_step_reaching(optimum) for run in runs]
        return costs
