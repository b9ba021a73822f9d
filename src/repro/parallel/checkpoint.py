"""Crash-safe grid checkpointing: the durable record behind ``--resume``.

A long grid run writes its consolidated JSON cache only periodically —
an atomic whole-file rewrite per cell would be quadratic — so every
completed cell is also recorded in the grid's one durable per-cell
record: its work-queue file, ``<grid-key>__<objective>.queue`` next to
the cache (:class:`~repro.parallel.queue.WorkQueue`).  Each record is an
fsync'd SQLite commit, so after any interruption (SIGTERM, ``kill -9``,
power loss) at most the *in-flight* cells are lost.  Serial and vector
runs record through :class:`GridCheckpoint`; on the work queue (``auto``
with local workers, or ``queue``) the worker's guarded ``complete()``
has already written the row.  The file is the same for every executor, so a grid
interrupted under one resumes under any other.  A ``*.journal`` file
from before this record existed is not read; its cells are recomputed,
which is deterministic.

:func:`flush_on_signal` complements the record for *graceful*
interruption: while active, SIGINT/SIGTERM first flush the
consolidated cache (recorded results are already safe), then re-raise
as ``KeyboardInterrupt`` / ``SystemExit`` so the process still dies
with conventional semantics.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.parallel.queue import QUEUE_SUFFIX, Cell, WorkQueue

logger = logging.getLogger(__name__)


class GridCheckpoint:
    """The durable per-cell record of one grid: its work-queue file.

    Args:
        path: the queue database (conventionally the cache path with
            :data:`~repro.parallel.queue.QUEUE_SUFFIX`).
        cache_key: identity of the grid — stamped into the file and
            checked on resume.
    """

    def __init__(self, path: str | Path, cache_key: str) -> None:
        self.path = Path(path)
        self.cache_key = cache_key
        self._queue: WorkQueue | None = None

    @classmethod
    def for_cache(cls, cache_path: str | Path) -> GridCheckpoint:
        """The record shadowing one cache file: ``<stem>.queue`` next to
        it, keyed by the cache's stem.  Nothing is opened before the
        first :meth:`record` or :meth:`resume`, so a fully cached run
        creates no file."""
        cache_path = Path(cache_path)
        return cls(cache_path.with_suffix(QUEUE_SUFFIX), cache_key=cache_path.stem)

    def record(self, cell: Cell, payload: dict) -> None:
        """Durably mark one completed cell ``done`` with its payload.

        The commit is fsync'd before returning (SQLite's default
        ``synchronous=FULL``), so a subsequent hard kill cannot lose
        this cell.
        """
        if self._queue is None:
            self._queue = WorkQueue(self.path, self.cache_key)
        self._queue.record_external(cell, payload, "recorded by the runner")

    def resume(
        self, lacking: Iterable[Cell], held: Iterable[Cell]
    ) -> dict[Cell, object]:
        """Recovered ``{cell: payload}`` for the ``lacking`` cells.

        Attaches the file once.  One that is unusable or belongs to
        another grid is removed instead.  Otherwise only the rows of
        ``lacking`` cells are decoded, each validated with the cache's
        schema check (a bad row loses its result, so any executor
        recomputes the cell), and the ``held`` cells — those the cache
        already has — are reconciled ``done`` so they are never leased.
        """
        if not self.path.exists():
            return {}
        try:
            queue = WorkQueue.attach(self.path)
            if queue.cache_key != self.cache_key:
                queue.close()
                raise ValueError(
                    f"belongs to grid {queue.cache_key!r}, not {self.cache_key!r}"
                )
        except ValueError as error:
            logger.warning("removing queue file %s (%s)", self.path, error)
            WorkQueue.remove(self.path)
            return {}
        self._queue = queue
        # Imported here: the runner imports this package lazily, and the
        # schema check lives beside the cache code it guards.
        from repro.analysis.runner import valid_payload

        recovered: dict[Cell, object] = {}
        for cell, text in queue.stored_results(lacking):
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                payload = None
            if valid_payload(payload):
                recovered[cell] = payload
            else:
                logger.warning("dropping invalid result %s/%s in %s", *cell, self.path)
                queue.record_external(cell, None, "invalid stored result dropped")
        if queue.reconcile(held):
            logger.info("queue %s: reconciled cells the cache holds", self.path)
        return recovered

    def close(self) -> None:
        """Close the connection (records stay on disk)."""
        if self._queue is not None:
            self._queue.close()
            self._queue = None

    def clear(self) -> None:
        """Remove the file and its WAL sidecars."""
        self.close()
        WorkQueue.remove(self.path)

    def __enter__(self) -> GridCheckpoint:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def flush_on_signal(
    flush: Callable[[], None],
    signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[None]:
    """Run a block with SIGINT/SIGTERM flushing state before dying.

    On a handled signal the ``flush`` callback runs once, the previous
    handlers are restored, and the conventional exception is raised
    (``KeyboardInterrupt`` for SIGINT, ``SystemExit(128 + signum)``
    otherwise) so callers and shells observe a normal interruption.

    Outside the main thread — where Python forbids ``signal.signal`` —
    the block simply runs unprotected.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous: dict[int, object] = {}

    def handler(signum: int, frame) -> None:
        for sig, old in previous.items():
            signal.signal(sig, old)
        try:
            flush()
        finally:
            if signum == signal.SIGINT:
                raise KeyboardInterrupt
            raise SystemExit(128 + signum)

    try:
        for sig in signals:
            previous[sig] = signal.signal(sig, handler)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        for sig, old in previous.items():
            signal.signal(sig, old)
        yield
        return
    try:
        yield
    finally:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):  # pragma: no cover
                pass
