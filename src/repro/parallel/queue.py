"""Durable work queue + leased ``QueueExecutor``: the process backend.

Every grid that runs in more than one process runs here: ``executor=
"auto"`` at more than one planned worker forks local pull-workers
against a queue file, and ``executor="queue"`` does the same and also
admits workers on other boxes.  Grid state lives in a single SQLite
file (WAL mode) — next to the runner cache, or in a temporary
directory for a grid without one — instead of in process memory, so
execution survives worker deaths, a coordinator restart, and anything
short of losing the disk:

* :class:`WorkQueue` — the durable queue itself.  One row per grid
  cell, with states ``pending → leased → done`` (or ``failed`` /
  ``poisoned``), a monotonic ``attempts`` counter against
  ``max_attempts``, per-lease deadlines refreshed by worker heartbeats,
  and every transition mirrored into an append-only ``events`` table so
  the run's robustness history is part of the persisted record.
  Lease claims are a *single guarded* ``UPDATE … RETURNING`` statement,
  so two workers racing for the same cell can never both win — SQLite's
  write lock serialises them and the ``state='pending'`` guard stops
  the loser.
* :func:`queue_worker_loop` — the pull-loop a worker runs: claim a
  lease, hand it to the worker's one heartbeat thread, execute the cell
  with its *stored* deterministic seed, then write the result and mark
  the cell ``done`` in one guarded transaction.  A worker killed with
  ``SIGKILL`` mid-cell simply stops heartbeating; once its lease
  deadline passes, any sweep (a sibling worker's next claim, or the
  coordinator's poll) requeues the cell with ``attempts + 1`` —
  *at-least-once* execution.  A sweep with no expired lease is one
  read-only probe; the write lock is taken only when there is work.
  The completion guard (``state='leased' AND lease_owner=me``) makes
  result *recording* effectively once: a worker that lost its lease
  cannot overwrite the rightful result.
* :class:`QueueExecutor` — the coordinator side.  ``submit`` enqueues
  durable rows; ``poll`` sweeps expired leases (emitting
  ``lease_expired`` / ``worker_lost`` / ``cell_requeued``
  :class:`~repro.parallel.events.CellEvent`\\ s), forwards fleet
  activity from the events table, and returns terminal cells as
  outcomes.  A poll costs what changed since the last one: the
  terminal events it reads (plus each submitted cell whose row was
  already ``done``) name the only rows it reads, and each stored
  payload is decoded once per delivery.  It can fork local
  pull-workers (``workers > 0``) and/or serve an external fleet
  started with ``arrow queue-worker``.
  Deadlines run on leases: a cell's execution starts when the
  coordinator sees its ``lease_claimed`` event, and cancelling a cell a
  local worker holds terminates that worker and withdraws the row.
* :func:`supervise` — drives one grid through a :class:`QueueExecutor`
  and settles every cell the queue gives up on (``poisoned`` after
  worker deaths, ``failed`` after application errors, or past its
  deadline) with exactly one serial completion in the coordinator.

The file is also the grid's one durable per-cell record under every
other executor (:class:`~repro.parallel.checkpoint.GridCheckpoint`), so
every connection commits at SQLite's default ``synchronous=FULL``,
except a claim: it commits at ``NORMAL`` (no WAL fsync), since a lease
lost to an OS crash only returns its cell to ``pending``.

Results cross the queue as the runner's canonical JSON payloads
(:func:`~repro.analysis.runner.result_to_payload`), which round-trip
byte-identically, so the consolidated cache of a queue run — however
many workers died along the way — is byte-identical to a serial run.
Requeue delays after application errors reuse the one backoff
implementation in the codebase, :class:`~repro.faults.retry.RetryPolicy`
(exponential with seeded jitter), via each cell's ``not_before`` column.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import secrets
import signal
import sqlite3
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.events import SearchEvent
from repro.core.objectives import Objective
from repro.core.result import SearchResult
from repro.faults.retry import RetryPolicy
from repro.parallel.events import CellEvent

#: One grid cell: (workload_id, repeat).
Cell = tuple[str, int]

#: Executes one cell to a result (the engine's ``_execute_cell``).
CellFn = Callable[[Cell], SearchResult]

#: Queue DB files live next to the cache file they feed.
QUEUE_SUFFIX = ".queue"

#: Bump when the queue schema changes; mismatching files are refused.
QUEUE_SCHEMA_VERSION = 1

#: The cell-state vocabulary (one row per grid cell).
CELL_STATES = ("pending", "leased", "done", "failed", "poisoned")

#: Default total attempts per cell before it is parked.
DEFAULT_MAX_ATTEMPTS = 3

#: Default lease lifetime without a heartbeat before a worker is
#: presumed dead and its cell requeued.
DEFAULT_LEASE_S = 30.0

#: Default requeue-backoff schedule for cells whose execution raised an
#: application error in a worker (worker deaths requeue immediately —
#: the failure was the worker's, not the cell's).
DEFAULT_REQUEUE_POLICY = RetryPolicy(
    max_attempts=DEFAULT_MAX_ATTEMPTS,
    backoff_base_s=0.1,
    backoff_factor=2.0,
    backoff_max_s=30.0,
    jitter=0.5,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    workload      TEXT    NOT NULL,
    repeat        INTEGER NOT NULL,
    seed          INTEGER NOT NULL,
    state         TEXT    NOT NULL DEFAULT 'pending'
                  CHECK (state IN ('pending','leased','done','failed','poisoned')),
    attempts      INTEGER NOT NULL DEFAULT 0,
    priority      INTEGER NOT NULL DEFAULT 0,
    seq           INTEGER NOT NULL DEFAULT 0,
    not_before    REAL    NOT NULL DEFAULT 0.0,
    lease_owner   TEXT,
    lease_expires REAL,
    heartbeat_at  REAL,
    error         TEXT,
    result        TEXT,
    PRIMARY KEY (workload, repeat)
);
CREATE INDEX IF NOT EXISTS cells_by_state ON cells (state, priority, seq);
CREATE INDEX IF NOT EXISTS cells_by_seq ON cells (seq);
CREATE TABLE IF NOT EXISTS events (
    id       INTEGER PRIMARY KEY AUTOINCREMENT,
    at       REAL    NOT NULL,
    kind     TEXT    NOT NULL,
    workload TEXT,
    repeat   INTEGER,
    detail   TEXT    NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class Enqueued(NamedTuple):
    """What one :meth:`WorkQueue.enqueue` transaction did.

    Attributes:
        touched: rows inserted or revived as ``pending``.
        finished: the submitted cells it left ``done`` with a stored
            result — the only submitted rows already terminal.
    """

    touched: int
    finished: list[Cell]


@dataclass(frozen=True, slots=True)
class Lease:
    """One claimed cell: the worker's contract until deadline or done.

    Attributes:
        workload_id: the cell's workload.
        repeat: the cell's repeat index.
        seed: the deterministic optimiser seed *stored at enqueue time*,
            so every worker — local fork or remote CLI — computes the
            byte-identical result regardless of who runs the cell or
            how many times it was requeued.
        attempts: 1-based attempt number this lease represents.
        owner: the claiming worker's identity.
        deadline: wall-clock instant the lease expires without a
            heartbeat.
    """

    workload_id: str
    repeat: int
    seed: int
    attempts: int
    owner: str
    deadline: float

    @property
    def cell(self) -> Cell:
        """The ``(workload_id, repeat)`` pair."""
        return (self.workload_id, self.repeat)


#: Executes one leased cell to a result (seed comes from the lease).
LeaseFn = Callable[[Lease], SearchResult]

#: Events that move a row to a terminal state: the coordinator rereads
#: exactly the cells they name.
_TERMINAL_EVENTS = frozenset(
    ("cell_done", "cell_failed", "cell_poisoned", "cell_reconciled")
)


class WorkQueue:
    """SQLite-backed durable queue of grid cells with leased items.

    One file (WAL mode) next to the runner cache holds every cell's
    state, attempt count, lease, result payload, and transition history.
    All mutations are short guarded transactions, safe under concurrent
    workers in other processes (or boxes sharing a filesystem with
    POSIX locking).

    Args:
        path: the queue database file (conventionally the cache path
            with :data:`QUEUE_SUFFIX`).
        cache_key: identity of the grid this queue belongs to — stored
            in ``meta`` and checked on every open, so a queue pointed at
            the wrong grid refuses to serve.
        max_attempts: total attempts per cell before it is parked
            (``failed`` for application errors, ``poisoned`` for worker
            deaths).
        lease_duration_s: heartbeat-free lease lifetime before the
            worker is presumed dead.
        pricing: the pricing mode the grid runs under (``"on-demand"``
            or ``"spot"``) — recorded in ``meta`` so workers and status
            tools agree on how cell charges are to be read.
        clock: wall-clock source (injectable for deterministic tests).

    Raises:
        ValueError: if the file belongs to a different grid or schema.
    """

    def __init__(
        self,
        path: str | Path,
        cache_key: str,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_duration_s: float = DEFAULT_LEASE_S,
        pricing: str = "on-demand",
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if lease_duration_s <= 0:
            raise ValueError(
                f"lease_duration_s must be positive, got {lease_duration_s}"
            )
        self.path = Path(path)
        self.cache_key = cache_key
        self.max_attempts = max_attempts
        self.lease_duration_s = lease_duration_s
        self.pricing = pricing
        self._clock = clock
        self.readonly = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._con = sqlite3.connect(self.path, timeout=30.0, isolation_level=None)
        self._con.execute("PRAGMA journal_mode=WAL")
        self._con.execute("PRAGMA busy_timeout=30000")
        self._con.executescript(_SCHEMA)
        with self._tx():
            self._check_meta(write=True)

    @classmethod
    def attach(
        cls,
        path: str | Path,
        *,
        readonly: bool = False,
        clock: Callable[[], float] = time.time,
    ) -> WorkQueue:
        """Open an existing queue, adopting its recorded parameters.

        Workers and status tools attach instead of constructing, so the
        whole fleet agrees on ``cache_key`` / ``max_attempts`` /
        ``lease_duration_s`` — whatever the coordinator recorded wins.

        Args:
            path: the queue database file (must exist).
            readonly: open without write access (safe while a grid
                runs — ``arrow queue-status`` uses this).
            clock: wall-clock source.

        Raises:
            FileNotFoundError: if the file does not exist.
            ValueError: if the file is not a (current-schema) queue.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no queue database at {path}")
        queue = cls.__new__(cls)
        queue.path = path
        queue._clock = clock
        queue.readonly = readonly
        if readonly:
            queue._con = sqlite3.connect(
                f"file:{path}?mode=ro", uri=True, timeout=30.0, isolation_level=None
            )
        else:
            queue._con = sqlite3.connect(path, timeout=30.0, isolation_level=None)
        try:
            queue._con.execute("PRAGMA busy_timeout=30000")
            meta = dict(queue._con.execute("SELECT key, value FROM meta"))
        except sqlite3.DatabaseError as error:
            # The file exists but the schema is still being created by
            # the coordinator, or it is not a queue (or a database) at all.
            queue._con.close()
            raise ValueError(f"{path} is not a work queue database: {error}") from error
        if meta.get("schema") != str(QUEUE_SCHEMA_VERSION):
            queue._con.close()
            raise ValueError(
                f"{path} is not a schema-{QUEUE_SCHEMA_VERSION} work queue "
                f"(found {meta.get('schema')!r})"
            )
        queue.cache_key = meta["cache_key"]
        queue.max_attempts = int(meta["max_attempts"])
        queue.lease_duration_s = float(meta["lease_duration_s"])
        # Queues predating the pricing meta key are on-demand grids.
        queue.pricing = meta.get("pricing", "on-demand")
        return queue

    def _check_meta(self, write: bool) -> None:
        meta = dict(self._con.execute("SELECT key, value FROM meta"))
        if meta:
            if meta.get("schema") != str(QUEUE_SCHEMA_VERSION):
                raise ValueError(
                    f"{self.path} has queue schema {meta.get('schema')!r}, "
                    f"expected {QUEUE_SCHEMA_VERSION}"
                )
            if meta.get("cache_key") != self.cache_key:
                raise ValueError(
                    f"{self.path} belongs to grid {meta.get('cache_key')!r}, "
                    f"not {self.cache_key!r}"
                )
        if write:
            # The coordinator is authoritative for queue parameters; the
            # fleet reads them back through attach().
            self._con.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                [
                    ("schema", str(QUEUE_SCHEMA_VERSION)),
                    ("cache_key", self.cache_key),
                    ("max_attempts", str(self.max_attempts)),
                    ("lease_duration_s", repr(self.lease_duration_s)),
                    ("pricing", self.pricing),
                ],
            )

    @staticmethod
    def remove(path: str | Path) -> None:
        """Delete a queue database and its WAL sidecar files."""
        path = Path(path)
        for candidate in (path, path.with_name(path.name + "-wal"),
                          path.with_name(path.name + "-shm")):
            candidate.unlink(missing_ok=True)

    # -- transactions -----------------------------------------------------

    @contextmanager
    def _tx(self, synchronous: str = "FULL"):
        """A short IMMEDIATE transaction (write lock up front, no
        deferred-upgrade deadlocks between concurrent workers), committed
        at ``synchronous`` (the connection returns to ``FULL`` after)."""
        if synchronous != "FULL":
            self._con.execute(f"PRAGMA synchronous={synchronous}")
        try:
            self._con.execute("BEGIN IMMEDIATE")
            try:
                yield
            except BaseException:
                self._con.execute("ROLLBACK")
                raise
            self._con.execute("COMMIT")
        finally:
            if synchronous != "FULL":
                self._con.execute("PRAGMA synchronous=FULL")

    def _event(self, kind: str, cell: Cell | None, detail: str = "") -> None:
        workload_id, repeat = cell if cell is not None else (None, None)
        self._con.execute(
            "INSERT INTO events (at, kind, workload, repeat, detail) "
            "VALUES (?, ?, ?, ?, ?)",
            (self._clock(), kind, workload_id, repeat, detail),
        )

    # -- producing --------------------------------------------------------

    def enqueue(self, items: Iterable[tuple[Cell, int]]) -> Enqueued:
        """Insert (or revive) cells as ``pending``; returns the rows
        touched and the cells left ``done``.

        Each item is ``((workload_id, repeat), seed)`` — the seed is
        stored so any worker reproduces the cell deterministically.
        All items go in one transaction, in claim order.  Conflicting
        rows are reset to ``pending`` *except*:

        * ``done`` rows with a stored result — finished work survives a
          coordinator restart; ``poll`` serves it without recomputing;
        * live (unexpired) leases — a worker is actively computing the
          cell; its completion will land normally.
        """
        now = self._clock()
        touched = 0
        finished: list[Cell] = []
        with self._tx():
            seq = self._con.execute("SELECT MAX(seq) FROM cells").fetchone()[0] or 0
            for (workload_id, repeat), seed in items:
                seq += 1
                cursor = self._con.execute(
                    """
                    INSERT INTO cells (workload, repeat, seed, state, attempts,
                                       priority, seq, not_before)
                    VALUES (?, ?, ?, 'pending', 0, 0, ?, 0.0)
                    ON CONFLICT(workload, repeat) DO UPDATE SET
                        state='pending', seed=excluded.seed, attempts=0,
                        priority=0, seq=excluded.seq,
                        not_before=0.0, lease_owner=NULL, lease_expires=NULL,
                        heartbeat_at=NULL, error=NULL, result=NULL
                    WHERE NOT (cells.state = 'done' AND cells.result IS NOT NULL)
                      AND NOT (cells.state = 'leased' AND cells.lease_expires > ?)
                    """,
                    (workload_id, repeat, seed, seq, now),
                )
                touched += cursor.rowcount
                if cursor.rowcount == 0 and self._con.execute(
                    "SELECT state='done' FROM cells WHERE workload=? AND repeat=?",
                    (workload_id, repeat),
                ).fetchone()[0]:
                    finished.append((workload_id, repeat))
        return Enqueued(touched, finished)

    # -- claiming / worker side -------------------------------------------

    def claim(self, owner: str) -> Lease | None:
        """Atomically lease the oldest claimable cell, or ``None``.

        Sweeps expired leases first (any participant can recover a dead
        sibling's cell — the fleet needs no coordinator to make
        progress), then claims via one guarded ``UPDATE … RETURNING``:
        concurrent claimers are serialised by SQLite's write lock and
        the ``state='pending'`` guard, so two workers can never hold
        the same cell.
        """
        self.sweep_expired()
        now = self._clock()
        deadline = now + self.lease_duration_s
        # A claim lost to an OS crash only returns its cell to pending,
        # so it skips the WAL fsync every other commit pays.
        with self._tx(synchronous="NORMAL"):
            row = self._con.execute(
                """
                UPDATE cells SET
                    state='leased', lease_owner=?, lease_expires=?,
                    heartbeat_at=?, attempts=attempts + 1
                WHERE (workload, repeat) IN (
                    SELECT workload, repeat FROM cells
                    WHERE state='pending' AND not_before <= ?
                    ORDER BY priority, seq LIMIT 1
                )
                RETURNING workload, repeat, seed, attempts
                """,
                (owner, deadline, now, now),
            ).fetchone()
            if row is None:
                return None
            workload_id, repeat, seed, attempts = row
            self._event(
                "lease_claimed",
                (workload_id, repeat),
                f"owner={owner} attempt={attempts}/{self.max_attempts}",
            )
        return Lease(
            workload_id=workload_id,
            repeat=repeat,
            seed=seed,
            attempts=attempts,
            owner=owner,
            deadline=deadline,
        )

    def heartbeat(self, cell: Cell, owner: str) -> bool:
        """Refresh ``owner``'s lease on ``cell``; False = lease lost."""
        now = self._clock()
        cursor = self._con.execute(
            "UPDATE cells SET heartbeat_at=?, lease_expires=? "
            "WHERE workload=? AND repeat=? AND state='leased' AND lease_owner=?",
            (now, now + self.lease_duration_s, cell[0], cell[1], owner),
        )
        return cursor.rowcount == 1

    def complete(self, cell: Cell, owner: str, payload: dict) -> bool:
        """Record ``cell``'s result and mark it ``done``, atomically.

        The guard (``state='leased' AND lease_owner=owner``) is what
        makes recording effectively-once under at-least-once execution:
        a worker whose lease expired (and whose cell was re-run
        elsewhere) gets ``False`` and must discard its result.
        """
        with self._tx():
            cursor = self._con.execute(
                """
                UPDATE cells SET
                    state='done', result=?, error=NULL,
                    lease_owner=NULL, lease_expires=NULL, heartbeat_at=NULL
                WHERE workload=? AND repeat=? AND state='leased' AND lease_owner=?
                """,
                (json.dumps(payload), cell[0], cell[1], owner),
            )
            if cursor.rowcount != 1:
                return False
            self._event("cell_done", cell, f"owner={owner}")
        return True

    def fail(
        self, cell: Cell, owner: str, error: str, requeue_delay_s: float = 0.0
    ) -> bool:
        """Report an application error for a leased cell.

        Under ``max_attempts`` the cell returns to ``pending`` with
        ``not_before = now + requeue_delay_s`` (the caller computes the
        delay from :class:`~repro.faults.retry.RetryPolicy`); at the
        budget it is parked ``failed`` with the error recorded.
        Returns False if ``owner`` no longer held the lease.
        """
        now = self._clock()
        with self._tx():
            row = self._con.execute(
                "SELECT attempts FROM cells WHERE workload=? AND repeat=? "
                "AND state='leased' AND lease_owner=?",
                (cell[0], cell[1], owner),
            ).fetchone()
            if row is None:
                return False
            (attempts,) = row
            if attempts >= self.max_attempts:
                self._con.execute(
                    "UPDATE cells SET state='failed', error=?, lease_owner=NULL, "
                    "lease_expires=NULL, heartbeat_at=NULL "
                    "WHERE workload=? AND repeat=?",
                    (error, cell[0], cell[1]),
                )
                self._event(
                    "cell_failed", cell,
                    f"attempt {attempts}/{self.max_attempts}: {error}",
                )
            else:
                self._con.execute(
                    "UPDATE cells SET state='pending', error=?, not_before=?, "
                    "lease_owner=NULL, lease_expires=NULL, heartbeat_at=NULL "
                    "WHERE workload=? AND repeat=?",
                    (error, now + max(0.0, requeue_delay_s), cell[0], cell[1]),
                )
                self._event(
                    "cell_requeued", cell,
                    f"attempt {attempts}/{self.max_attempts} failed ({error}); "
                    f"backoff {max(0.0, requeue_delay_s):.2f}s",
                )
        return True

    def withdraw(self, cell: Cell, owner: str | None = None) -> bool:
        """Park ``cell`` ``failed`` ("cancelled by coordinator") if it is
        ``pending``, or leased by ``owner``; False if it was neither.

        The ``cell_failed`` event is written in the same transaction, so
        a coordinator tailing the events table sees the withdrawal like
        any other terminal transition.  A worker still running the cell
        loses its lease: its ``complete()`` is refused.
        """
        with self._tx():
            cursor = self._con.execute(
                "UPDATE cells SET state='failed', error='cancelled by coordinator', "
                "lease_owner=NULL, lease_expires=NULL, heartbeat_at=NULL "
                "WHERE workload=? AND repeat=? "
                "AND (state='pending' OR (state='leased' AND lease_owner=?))",
                (cell[0], cell[1], owner),
            )
            if cursor.rowcount != 1:
                return False
            self._event("cell_failed", cell, "cancelled by coordinator")
        return True

    # -- lease expiry ------------------------------------------------------

    def sweep_expired(self) -> list[tuple[Cell, str, int, str]]:
        """Requeue (or poison) every cell whose lease deadline passed.

        A worker killed with ``SIGKILL`` never reports — it just stops
        heartbeating.  This sweep is how its cells come back: each one
        is returned to ``pending`` with its ``attempts`` already
        counted by the claim, or parked ``poisoned`` once attempts
        reached ``max_attempts`` (a cell that keeps killing workers
        must not eat the whole fleet).

        Every claim and coordinator tick sweeps, and almost every sweep
        finds nothing, so a read-only probe of the leased rows comes
        first and the write lock is taken only when a deadline has
        passed.  A lease that expires just after the probe is caught by
        the next sweep.

        Returns ``(cell, new_state, attempts, owner)`` transitions.
        """
        now = self._clock()
        transitions: list[tuple[Cell, str, int, str]] = []
        if self._con.execute(
            "SELECT 1 FROM cells WHERE state='leased' AND lease_expires <= ? LIMIT 1",
            (now,),
        ).fetchone() is None:
            return transitions
        with self._tx():
            rows = self._con.execute(
                "SELECT workload, repeat, attempts, lease_owner FROM cells "
                "WHERE state='leased' AND lease_expires <= ?",
                (now,),
            ).fetchall()
            for workload_id, repeat, attempts, owner in rows:
                cell = (workload_id, repeat)
                self._event(
                    "lease_expired", cell,
                    f"owner={owner} attempt={attempts}/{self.max_attempts}",
                )
                self._event("worker_lost", cell, f"owner={owner}")
                if attempts >= self.max_attempts:
                    new_state = "poisoned"
                    self._con.execute(
                        "UPDATE cells SET state='poisoned', lease_owner=NULL, "
                        "lease_expires=NULL, heartbeat_at=NULL "
                        "WHERE workload=? AND repeat=?",
                        cell,
                    )
                    self._event(
                        "cell_poisoned", cell,
                        f"{attempts} attempts lost their workers",
                    )
                else:
                    new_state = "pending"
                    self._con.execute(
                        "UPDATE cells SET state='pending', not_before=?, "
                        "lease_owner=NULL, lease_expires=NULL, heartbeat_at=NULL "
                        "WHERE workload=? AND repeat=?",
                        (now, workload_id, repeat),
                    )
                    self._event(
                        "cell_requeued", cell,
                        f"lease of {owner} expired; "
                        f"attempt {attempts}/{self.max_attempts} lost",
                    )
                transitions.append((cell, new_state, attempts, owner or ""))
        return transitions

    def expire_owner(self, owner: str) -> list[tuple[Cell, str, int, str]]:
        """Expire ``owner``'s leases immediately (its process is known
        dead — e.g. the coordinator reaped a local worker), without
        waiting out the lease deadline."""
        self._con.execute(
            "UPDATE cells SET lease_expires=? WHERE state='leased' AND lease_owner=?",
            (self._clock() - 1.0, owner),
        )
        return self.sweep_expired()

    # -- coordinator reads -------------------------------------------------

    def terminal_cells(self) -> list[tuple[Cell, str, dict | None, str | None, int]]:
        """Every ``done`` / ``failed`` / ``poisoned`` row:
        ``(cell, state, payload, error, attempts)``.  A stored payload
        that fails to parse is surfaced as an error instead.  Reads and
        decodes the whole grid: a status view, not a polling path."""
        rows = self._con.execute(
            "SELECT workload, repeat, state, result, error, attempts FROM cells "
            "WHERE state IN ('done','failed','poisoned') ORDER BY seq"
        ).fetchall()
        return [
            ((workload_id, repeat), *_decode_terminal(state, result, error), attempts)
            for workload_id, repeat, state, result, error, attempts in rows
        ]

    def terminal_row(self, cell: Cell) -> tuple[str, dict | None, str | None] | None:
        """``(state, payload, error)`` of ``cell`` if its row is
        ``done`` / ``failed`` / ``poisoned``, else ``None``.  One
        primary-key read; the payload is decoded as in
        :meth:`terminal_cells`."""
        row = self._con.execute(
            "SELECT state, result, error FROM cells WHERE workload=? AND repeat=? "
            "AND state IN ('done','failed','poisoned')",
            cell,
        ).fetchone()
        return None if row is None else _decode_terminal(*row)

    def lease_owner(self, cell: Cell) -> str | None:
        """The owner of ``cell``'s lease, or ``None`` if it is not leased."""
        row = self._con.execute(
            "SELECT lease_owner FROM cells WHERE workload=? AND repeat=? "
            "AND state='leased'",
            cell,
        ).fetchone()
        return None if row is None else row[0]

    def stored_results(self, cells: Iterable[Cell]) -> Iterator[tuple[Cell, str]]:
        """``(cell, result text)`` for each ``done`` row among ``cells``
        that stores one.  Rows are looked up one at a time, so only the
        asked-for results are read."""
        for cell in cells:
            row = self._con.execute(
                "SELECT result FROM cells WHERE workload=? AND repeat=? "
                "AND state='done' AND result IS NOT NULL",
                cell,
            ).fetchone()
            if row is not None:
                yield cell, row[0]

    def counts(self) -> dict[str, int]:
        """Cell count per state (states with no cells included as 0)."""
        counts = dict.fromkeys(CELL_STATES, 0)
        for state, count in self._con.execute(
            "SELECT state, COUNT(*) FROM cells GROUP BY state"
        ):
            counts[state] = count
        return counts

    def leases(self) -> list[tuple[Cell, str, int, float, float]]:
        """Active leases: ``(cell, owner, attempts, heartbeat_age_s,
        expires_in_s)`` — the live view ``arrow queue-status`` prints."""
        now = self._clock()
        return [
            ((w, r), owner, attempts, now - heartbeat, expires - now)
            for w, r, owner, attempts, heartbeat, expires in self._con.execute(
                "SELECT workload, repeat, lease_owner, attempts, heartbeat_at, "
                "lease_expires FROM cells WHERE state='leased' ORDER BY seq"
            )
        ]

    def attempt_histogram(self) -> dict[int, int]:
        """``{attempts: cells}`` over every row that was ever claimed."""
        return {
            attempts: count
            for attempts, count in self._con.execute(
                "SELECT attempts, COUNT(*) FROM cells WHERE attempts > 0 "
                "GROUP BY attempts ORDER BY attempts"
            )
        }

    def drained(self) -> bool:
        """True when no cell is ``pending`` or ``leased`` (workers that
        exit-when-drained use this as their stop condition)."""
        row = self._con.execute(
            "SELECT COUNT(*) FROM cells WHERE state IN ('pending','leased')"
        ).fetchone()
        return row[0] == 0

    def last_event_id(self) -> int:
        """The newest event row id (0 for an empty table)."""
        row = self._con.execute("SELECT MAX(id) FROM events").fetchone()
        return row[0] or 0

    def events_since(self, after_id: int) -> list[tuple[int, str, Cell | None, str]]:
        """Events newer than ``after_id``: ``(id, kind, cell, detail)``."""
        out: list[tuple[int, str, Cell | None, str]] = []
        for event_id, kind, workload_id, repeat, detail in self._con.execute(
            "SELECT id, kind, workload, repeat, detail FROM events "
            "WHERE id > ? ORDER BY id",
            (after_id,),
        ):
            cell = None if workload_id is None else (workload_id, repeat)
            out.append((event_id, kind, cell, detail))
        return out

    # -- reconciliation ----------------------------------------------------

    def reconcile(self, done_cells: Iterable[Cell]) -> int:
        """Mark cells the cache already holds as ``done`` — never re-lease
        work whose result is durable elsewhere.

        The cache is the source of truth on resume: a cell it
        holds must not be claimable, whatever state a stale queue row is
        in.  Rows are upserted (a queue predating this grid's cells gets
        ``done`` markers), existing stored results are kept, and only
        rows that actually changed state are counted and evented.
        """
        changed = 0
        with self._tx():
            seq = self._con.execute("SELECT MAX(seq) FROM cells").fetchone()[0] or 0
            for workload_id, repeat in done_cells:
                seq += 1
                cursor = self._con.execute(
                    """
                    INSERT INTO cells (workload, repeat, seed, state, seq)
                    VALUES (?, ?, 0, 'done', ?)
                    ON CONFLICT(workload, repeat) DO UPDATE SET
                        state='done', lease_owner=NULL, lease_expires=NULL,
                        heartbeat_at=NULL, not_before=0.0
                    WHERE cells.state != 'done'
                    """,
                    (workload_id, repeat, seq),
                )
                if cursor.rowcount:
                    changed += 1
                    self._event(
                        "cell_reconciled", (workload_id, repeat),
                        "cache holds this cell's result",
                    )
        return changed

    def record_external(self, cell: Cell, payload: dict | None, detail: str) -> None:
        """Mark ``cell`` ``done`` with a result produced outside the
        fleet: the coordinator's serial fallback for parked cells, or a
        :class:`~repro.parallel.checkpoint.GridCheckpoint` record."""
        with self._tx():
            seq = self._con.execute("SELECT MAX(seq) FROM cells").fetchone()[0] or 0
            self._con.execute(
                """
                INSERT INTO cells (workload, repeat, seed, state, result, seq)
                VALUES (?, ?, 0, 'done', ?, ?)
                ON CONFLICT(workload, repeat) DO UPDATE SET
                    state='done', result=excluded.result, error=NULL,
                    lease_owner=NULL, lease_expires=NULL, heartbeat_at=NULL
                """,
                (cell[0], cell[1],
                 None if payload is None else json.dumps(payload), seq + 1),
            )
            self._event("cell_done", cell, detail)

    def close(self) -> None:
        """Close the connection (the file and its state are durable)."""
        self._con.close()

    def __enter__(self) -> WorkQueue:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _decode_terminal(
    state: str, result: str | None, error: str | None
) -> tuple[str, dict | None, str | None]:
    """A terminal row's ``(state, payload, error)``; a stored payload
    that fails to parse reads as ``failed`` with a ``QueuePayloadError``."""
    payload: dict | None = None
    if result is not None:
        try:
            payload = json.loads(result)
        except json.JSONDecodeError as exc:
            state, error = "failed", f"QueuePayloadError: {exc}"
    return state, payload, error


# -- worker side -----------------------------------------------------------


class _HeartbeatPump(threading.Thread):
    """Refreshes a worker's current lease in the background.

    One pump — one thread and one database connection (SQLite
    connections are single-thread) — serves a whole worker loop, which
    hands it each lease in turn with :meth:`track`.  Every lease gets
    its own ``lost`` flag: a heartbeat that comes back False (the lease
    expired under us and the cell moved on) raises that lease's flag so
    the worker discards its in-flight result, and never the flag of a
    lease tracked later.
    """

    def __init__(self, path: Path, owner: str, interval_s: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{owner}")
        self._path = path
        self._owner = owner
        self._interval_s = interval_s
        # Not named ``_stop``: threading.Thread owns that internally.
        self._halt = threading.Event()
        # Held across each heartbeat, so release() returns only once no
        # heartbeat of the released lease is in flight.
        self._lock = threading.Lock()
        self._current: tuple[Cell, threading.Event] | None = None

    def track(self, lease: Lease) -> threading.Event:
        """Refresh ``lease`` until :meth:`release`; its ``lost`` flag."""
        lost = threading.Event()
        with self._lock:
            self._current = (lease.cell, lost)
        return lost

    def release(self) -> None:
        """Stop refreshing the current lease; its ``lost`` flag is final."""
        with self._lock:
            self._current = None

    def run(self) -> None:
        queue = WorkQueue.attach(self._path)
        try:
            while not self._halt.wait(self._interval_s):
                with self._lock:
                    if self._current is None:
                        continue
                    cell, lost = self._current
                    if not queue.heartbeat(cell, self._owner):
                        lost.set()
                        self._current = None
        finally:
            queue.close()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


def default_owner() -> str:
    """A collision-resistant worker identity: host, pid, random token."""
    return f"{os.uname().nodename}-{os.getpid()}-{secrets.token_hex(3)}"


def queue_worker_loop(
    queue: WorkQueue,
    run_lease: LeaseFn,
    *,
    owner: str | None = None,
    poll_interval_s: float = 0.2,
    exit_when_drained: bool = True,
    heartbeat_interval_s: float | None = None,
    max_cells: int | None = None,
) -> int:
    """The pull-loop a queue worker runs; returns cells completed.

    Claim a lease → heartbeat in a background thread → execute the cell
    (deterministically, from the lease's stored seed) → record the
    result and mark ``done`` in one guarded transaction.  An
    application error requeues the cell with
    :data:`DEFAULT_REQUEUE_POLICY` backoff+jitter (from a fixed seed —
    schedules are reproducible) until the queue's ``max_attempts``.
    The loop never dies for cell-side reasons; only ``SIGKILL``-class
    events stop it, and those are exactly what lease expiry recovers.

    Args:
        queue: an attached :class:`WorkQueue`.
        run_lease: executes one leased cell to a
            :class:`~repro.core.result.SearchResult`.
        owner: worker identity (default: host-pid-token).
        poll_interval_s: idle sleep between claim attempts.
        exit_when_drained: return once no cell is pending or leased
            (False = keep polling until ``max_cells`` or killed).
        heartbeat_interval_s: lease-refresh period (default: a quarter
            of the lease duration).
        max_cells: stop after completing/failing this many cells
            (``None`` = unbounded); tests and drain scripts use it.
    """
    # Imported here: runner imports the parallel package lazily, and the
    # payload helpers live beside the cache code they must match.
    from repro.analysis.runner import result_to_payload

    owner = owner if owner is not None else default_owner()
    policy = DEFAULT_REQUEUE_POLICY
    rng = np.random.default_rng(0)  # the backoff-jitter stream
    interval = (
        heartbeat_interval_s
        if heartbeat_interval_s is not None
        else max(0.05, queue.lease_duration_s / 4.0)
    )
    processed = 0
    # Started with the first lease: a worker that finds nothing to do
    # opens no second connection.
    pump: _HeartbeatPump | None = None
    try:
        while max_cells is None or processed < max_cells:
            lease = queue.claim(owner)
            if lease is None:
                if exit_when_drained and queue.drained():
                    break
                time.sleep(poll_interval_s)
                continue
            if pump is None:
                pump = _HeartbeatPump(queue.path, owner, interval)
                pump.start()
            lost = pump.track(lease)
            try:
                result = run_lease(lease)
            except BaseException as error:  # noqa: BLE001 - report, keep pulling
                pump.release()
                delay = policy.delay_for(min(lease.attempts, policy.max_attempts), rng)
                queue.fail(
                    lease.cell, owner,
                    f"{type(error).__name__}: {error}", requeue_delay_s=delay,
                )
            else:
                pump.release()
                # A lost lease means the cell was requeued and may be (or
                # have been) run elsewhere; complete()'s guard would refuse
                # anyway, but skipping the call keeps the event log honest.
                if not lost.is_set():
                    queue.complete(lease.cell, owner, result_to_payload(result))
            processed += 1
    finally:
        if pump is not None:
            pump.stop()
    return processed


#: The thread-count setters OpenBLAS builds export: upstream's, and the
#: prefixed LP64 and ILP64 builds bundled with scipy and numpy wheels.
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _pin_openblas_to_one_thread() -> None:
    """Set every OpenBLAS mapped into this process to one thread.

    A forked worker inherits each OpenBLAS its parent loaded (numpy and
    scipy bundle one each) with their thread pools sized to the machine,
    so local workers on an n-core box would each run n BLAS threads and
    contend for the cores.  OpenBLAS reads its thread variables only
    when it loads, so each library's exported setter is called through
    :mod:`ctypes`.  Where ``/proc/self/maps`` or an OpenBLAS is missing,
    nothing happens.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return
    paths = {
        parts[5].strip()
        for parts in fields
        if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()
    }
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _local_worker_main(
    path: str,
    run_cell: CellFn,
    owner: str,
    poll_interval_s: float,
) -> None:
    """Entry point of a coordinator-forked local pull-worker.

    ``run_cell`` (the engine's ``_execute_cell``) arrives through fork
    inheritance — the queue only ever stores cells and JSON payloads,
    never closures.  The coordinator's signal handlers are inherited
    too (the runner's flush-on-signal among them), so they are reset:
    SIGTERM (the coordinator's ``cancel`` and ``shutdown``) kills the
    worker outright, and a terminal's SIGINT is left to the coordinator,
    which shuts the fleet down.  The local workers share the box, so
    each runs its BLAS on one thread.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _pin_openblas_to_one_thread()
    queue = WorkQueue.attach(path)
    try:
        queue_worker_loop(
            queue,
            lambda lease: run_cell(lease.cell),
            owner=owner,
            poll_interval_s=poll_interval_s,
            exit_when_drained=True,
        )
    finally:
        queue.close()


# -- coordinator side ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CellOutcome:
    """What became of one submitted cell.

    Exactly one of three states holds:

    * ``result is not None`` — the cell completed;
    * ``error is not None`` — the cell raised an application error
      (``"ErrorType: message"``), or its row was withdrawn;
    * ``crashed`` — its workers died without reporting (killed, OOM,
      ``os._exit``) until the queue parked it, or the fleet stalled.
    """

    cell: Cell
    result: SearchResult | None = None
    error: str | None = None
    crashed: bool = False

    @property
    def ok(self) -> bool:
        """Whether the cell completed with a result."""
        return self.result is not None


@dataclass(frozen=True)
class QueueConfig:
    """Where and how a grid's durable queue runs.

    Attributes:
        path: the queue database file (``None`` lets the runner derive
            ``<cache>.queue`` next to its cache file).
        cache_key: grid identity recorded in the queue's ``meta`` table
            (``None`` lets the runner supply its cache stem).
        workers: local pull-workers the coordinator forks (``None`` =
            the engine's planned worker count; ``0`` = none — an
            external fleet started with ``arrow queue-worker`` does the
            work).
        lease_duration_s: heartbeat-free lease lifetime.
        max_attempts: attempts per cell before parking it.
        stall_timeout_s: coordinator watchdog — with work outstanding
            but no live leases, no live local workers, and no queue
            activity for this long, the coordinator presumes the fleet
            gone and reports the stranded cells as crashes, which
            supervision completes serially.  ``None`` disables (wait
            for a fleet forever).
        poll_tick_s: coordinator sweep/poll granularity.
        pricing: pricing mode stamped into the queue's ``meta`` table
            (``"on-demand"`` or ``"spot"``).
    """

    path: str | Path | None = None
    cache_key: str | None = None
    workers: int | None = None
    lease_duration_s: float = DEFAULT_LEASE_S
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    stall_timeout_s: float | None = 60.0
    poll_tick_s: float = 0.05
    pricing: str = "on-demand"

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.stall_timeout_s is not None and self.stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be positive, got {self.stall_timeout_s}"
            )
        if not self.poll_tick_s > 0:
            raise ValueError(f"poll_tick_s must be positive, got {self.poll_tick_s}")


class QueueExecutor:
    """Grid dispatch over a durable :class:`WorkQueue`.

    ``submit`` enqueues a whole batch in one transaction.  ``poll`` is
    the coordinator heartbeat: it respawns dead local workers (expiring
    their leases immediately rather than waiting out the deadline),
    sweeps expired leases, forwards fleet transitions from the durable
    events table to ``on_event``, and returns terminal cells as
    :class:`CellOutcome`\\ s — ``done`` rows as results (deserialised
    from the stored canonical payload), ``failed`` rows as application
    errors, ``poisoned`` rows as crashes.  Only the rows of cells named
    by a new terminal event, or submitted onto a row already ``done``,
    are read, so a poll's cost follows what changed, not the grid size.
    ``poll`` never raises for worker-side problems; what to do about an
    outcome belongs to :func:`supervise`.

    Deadlines run on leases.  :meth:`started_at` is the coordinator's
    monotonic time when it forwarded the cell's ``lease_claimed`` event,
    and :meth:`cancel` withdraws a pending row, or a row one of its
    *local* workers holds — terminating that worker, which the next
    poll reaps and respawns.  A cell an external worker holds cannot be
    cancelled through a database file; lease expiry bounds it instead.

    Args:
        config: the queue file (``config.path``, required), its grid
            identity (``config.cache_key``; ``"grid"`` when ``None``),
            the local pull-workers to fork (``config.workers``; ``None``
            or 0 = external fleet only) and the lease, attempt, stall
            and tick timings.
        run_cell: executes one cell — in forked local workers, which
            inherit it, and in the coordinator for the cells
            :func:`supervise` completes serially.
        objective: deserialisation context for stored result payloads.
        seed_fn: maps a cell to the deterministic seed stored at
            enqueue time.
        on_event: optional :class:`~repro.parallel.events.CellEvent`
            sink for queue transitions.
    """

    def __init__(
        self,
        config: QueueConfig,
        run_cell: CellFn,
        objective: Objective,
        seed_fn: Callable[[str, int], int],
        on_event: Callable[[CellEvent], None] | None = None,
    ) -> None:
        if config.path is None:
            raise ValueError("QueueExecutor requires a QueueConfig with a path")
        self.config = config
        self.queue = WorkQueue(
            config.path,
            config.cache_key if config.cache_key is not None else "grid",
            max_attempts=config.max_attempts,
            lease_duration_s=config.lease_duration_s,
            pricing=config.pricing,
        )
        self.run_cell = run_cell
        self._objective = objective
        self._seed_fn = seed_fn
        self._target = config.workers or 0
        self._on_event = on_event
        # Submission position of every cell ever submitted: outcomes
        # are returned in this order.
        self._submitted: dict[Cell, int] = {}
        self._delivered: set[Cell] = set()
        # Cells whose rows may have turned terminal since the last poll:
        # named by a terminal event, or left done by a submit.
        self._changed: set[Cell] = set()
        # Monotonic time each leased cell's claim was forwarded.
        self._started: dict[Cell, float] = {}
        self._workers: dict[str, multiprocessing.process.BaseProcess] = {}
        self._worker_serial = 0
        # Only *new* queue activity is forwarded; a resumed campaign's
        # history stays in the file, not in this run's event stream.
        self._seen_event_id = self.queue.last_event_id()
        self._last_activity = time.monotonic()
        self._stalled = False
        self._closed = False
        if self._target > 0 and "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("local queue workers require the fork start method")
        self._ctx = multiprocessing.get_context("fork") if self._target > 0 else None

    # -- local fleet ------------------------------------------------------

    def _spawn_worker(self) -> None:
        self._worker_serial += 1
        owner = f"local-{os.getpid()}-{self._worker_serial}"
        process = self._ctx.Process(
            target=_local_worker_main,
            args=(str(self.queue.path), self.run_cell, owner, self.config.poll_tick_s),
            daemon=True,
        )
        process.start()
        self._workers[owner] = process

    def _tend_fleet(self) -> None:
        """Reap dead local workers (expiring their leases now) and
        respawn up to target while claimable work remains."""
        for owner, process in list(self._workers.items()):
            if process.is_alive():
                continue
            process.join(timeout=1.0)
            process.close()
            del self._workers[owner]
            for (cell, state, attempts, _owner) in self.queue.expire_owner(owner):
                self._note_activity()
        # drained() counts the outstanding rows: ask only when a worker
        # is missing, not on every tick of a full fleet.
        if len(self._workers) < self._target and not self.queue.drained():
            while len(self._workers) < self._target:
                self._spawn_worker()

    # -- events -----------------------------------------------------------

    def _note_activity(self) -> None:
        self._last_activity = time.monotonic()

    def _forward_events(self) -> None:
        """Mirror new queue transitions into the coordinator's event
        stream (covers local *and* external workers — the durable table
        is the one channel everyone writes)."""
        rows = self.queue.events_since(self._seen_event_id)
        if rows:
            self._note_activity()
        for event_id, kind, cell, detail in rows:
            self._seen_event_id = event_id
            if cell is None:
                continue
            if kind == "lease_claimed":
                self._started[cell] = time.monotonic()
            elif kind in _TERMINAL_EVENTS or kind == "cell_requeued":
                self._started.pop(cell, None)
            if kind in _TERMINAL_EVENTS:
                self._changed.add(cell)
            if self._on_event is None:
                continue
            if kind in ("lease_claimed", "lease_expired", "worker_lost",
                        "cell_requeued"):
                self._on_event(CellEvent.for_cell(kind, cell, detail))

    # -- dispatch ---------------------------------------------------------

    def submit(self, cells: Sequence[Cell]) -> None:
        enqueued = self.queue.enqueue((cell, self._seed_fn(*cell)) for cell in cells)
        for cell in cells:
            self._submitted.setdefault(cell, len(self._submitted))
            # A resubmission expects a fresh outcome.
            self._delivered.discard(cell)
        # Every other submitted row is pending or leased, and its terminal
        # event will name it; a row enqueue left done (a restarted
        # coordinator's stored result) emits none, so it is read once.
        self._changed.update(enqueued.finished)
        self._note_activity()

    def _collect(self) -> list[CellOutcome]:
        """Outcomes of the undelivered cells whose rows changed since
        the last poll, in submission order.  Each such row is read once
        by primary key, and its payload decoded once per delivery."""
        wanted = sorted(
            (
                cell for cell in self._changed
                if cell in self._submitted and cell not in self._delivered
            ),
            key=self._submitted.__getitem__,
        )
        self._changed.clear()
        outcomes: list[CellOutcome] = []
        for cell in wanted:
            row = self.queue.terminal_row(cell)
            if row is None:
                continue
            state, payload, error = row
            self._delivered.add(cell)
            if state == "done":
                if payload is None:
                    outcomes.append(CellOutcome(
                        cell=cell,
                        error="QueuePayloadError: done row without a payload",
                    ))
                    continue
                from repro.analysis.runner import result_from_payload

                try:
                    result = result_from_payload(payload, self._objective, cell[0])
                except (KeyError, TypeError, ValueError) as exc:
                    outcomes.append(CellOutcome(
                        cell=cell, error=f"QueuePayloadError: {exc}",
                    ))
                    continue
                outcomes.append(CellOutcome(cell=cell, result=result))
            elif state == "failed":
                outcomes.append(CellOutcome(cell=cell, error=error or "failed"))
            else:  # poisoned
                outcomes.append(CellOutcome(cell=cell, crashed=True))
        return outcomes

    def _stall_check(self) -> list[CellOutcome]:
        """The fleet-vanished watchdog: with work outstanding but no
        sign of life for ``stall_timeout_s``, report every undelivered
        cell as crashed so :func:`supervise` finishes the grid serially.
        The durable rows stay put — ``resolve_serial`` marks them done
        as the coordinator completes each one."""
        stall_timeout_s = self.config.stall_timeout_s
        if stall_timeout_s is None or self._stalled:
            return []
        if any(p.is_alive() for p in self._workers.values()):
            return []
        if self.queue.leases():
            self._note_activity()
            return []
        if time.monotonic() - self._last_activity < stall_timeout_s:
            return []
        self._stalled = True
        if self._on_event is not None:
            self._on_event(CellEvent.for_grid(
                "queue_stalled",
                f"no queue activity for {stall_timeout_s:.0f}s and no "
                "live workers; completing remaining cells in the coordinator",
            ))
        outcomes = []
        for cell in self._submitted:
            if cell not in self._delivered:
                self._delivered.add(cell)
                outcomes.append(CellOutcome(cell=cell, crashed=True))
        return outcomes

    def poll(self, timeout: float | None = None) -> list[CellOutcome]:
        """Every outcome that became available, waiting up to
        ``timeout`` seconds for at least one (``None`` = until one
        arrives)."""
        if self._closed:
            return []
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self._tend_fleet()
            if self.queue.sweep_expired():
                self._note_activity()
            self._forward_events()
            outcomes = self._collect()
            if outcomes:
                self._note_activity()
                return outcomes
            outcomes = self._stall_check()
            if outcomes:
                return outcomes
            if deadline is not None and time.monotonic() >= deadline:
                return []
            remaining = self.config.poll_tick_s
            if deadline is not None:
                remaining = min(remaining, max(0.0, deadline - time.monotonic()))
            time.sleep(remaining)

    def cancel(self, cell: Cell) -> bool:
        """Withdraw ``cell`` if it is pending or a local worker holds
        it; False for a cell an external worker leases."""
        owner = self.queue.lease_owner(cell)
        if owner is not None and owner not in self._workers:
            return False  # an external worker's lease
        if not self.queue.withdraw(cell, owner):
            return False
        if owner is not None:
            # The row is withdrawn first, so the worker's complete() is
            # refused whatever it finishes; _tend_fleet reaps and
            # respawns it.
            self._workers[owner].terminate()
        self._started.pop(cell, None)
        return True

    def started_at(self, cell: Cell) -> float | None:
        """When the coordinator saw ``cell``'s lease claimed (monotonic
        clock), or ``None`` while it is not running."""
        return self._started.get(cell)

    def resolve_serial(self, cell: Cell, result: SearchResult) -> None:
        """The coordinator completed ``cell`` itself
        (a parked, stalled or cancelled cell); persist that into the
        queue so its durable record matches the cache."""
        from repro.analysis.runner import result_to_payload

        self._delivered.add(cell)
        self.queue.record_external(
            cell, result_to_payload(result), "coordinator-serial"
        )

    def shutdown(self) -> None:
        """Terminate the local workers and close the queue; the file
        and its rows stay."""
        if self._closed:
            return
        self._closed = True
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
        for process in self._workers.values():
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck after SIGTERM
                process.kill()
                process.join(timeout=5.0)
            process.close()
        self._workers.clear()
        self.queue.close()


def supervise(
    executor: QueueExecutor,
    cells: Sequence[Cell],
    cell_timeout_s: float | None = None,
    on_event: Callable[[CellEvent], None] | None = None,
) -> Iterator[tuple[Cell, SearchResult]]:
    """Run ``cells`` through ``executor``, yielding ``(cell, result)`` in
    submission order, then shut the executor down.

    Retrying and healing happen in the queue, so only final verdicts
    reach this loop.  Each is settled by completing the cell once,
    serially, through ``executor.run_cell`` in this process — so a
    deterministic failure raises exactly as a serial run would — and
    recording that result in the queue (``resolve_serial``):

    * **Crash** — a row parked ``poisoned``, or every undelivered cell
      of a stalled fleet: ``cell_pinned``.
    * **Error** — a row parked ``failed``: ``cell_failed`` with the
      error, then ``cell_retried`` ("serial fallback after …"), which
      is also mirrored into the result's
      :class:`~repro.core.result.SearchResult.events`, so the persisted
      record shows the cell was not a first-try success.
    * **Deadline** — with ``cell_timeout_s`` set, a cell executing
      longer than that (measured from ``started_at``, so queue time is
      not counted) is cancelled and ``cell_timeout`` is emitted; the
      poll then ticks at ``executor.config.poll_tick_s``.  A
      ``cancel`` that returns False (an external worker's lease)
      leaves the cell running.
    """
    order = list(cells)
    results: dict[Cell, SearchResult] = {}
    pending: set[Cell] = set(order)
    emitted = 0
    tick = executor.config.poll_tick_s if cell_timeout_s is not None else None

    def emit(kind: str, cell: Cell, detail: str = "") -> None:
        if on_event is not None:
            on_event(CellEvent.for_cell(kind, cell, detail))

    def finish(cell: Cell, result: SearchResult) -> None:
        results[cell] = result
        pending.discard(cell)
        emit("cell_finished", cell)

    def run_serially(cell: Cell, mirror: SearchEvent | None = None) -> None:
        result = executor.run_cell(cell)
        if mirror is not None:
            # The mirror precedes the re-run search's own stream.
            result = dataclasses.replace(result, events=(mirror, *result.events))
        executor.resolve_serial(cell, result)
        finish(cell, result)

    try:
        for cell in order:
            emit("cell_scheduled", cell)
        executor.submit(order)
        while pending:
            for outcome in executor.poll(tick):
                cell = outcome.cell
                if cell not in pending:
                    continue  # late result for a cell already handled
                if outcome.ok:
                    finish(cell, outcome.result)
                elif outcome.crashed:
                    emit(
                        "cell_pinned", cell,
                        "lost its worker; pinned to serial execution",
                    )
                    run_serially(cell)
                else:
                    emit("cell_failed", cell, outcome.error or "")
                    detail = f"serial fallback after {outcome.error}"
                    emit("cell_retried", cell, detail)
                    run_serially(
                        cell, SearchEvent(kind="cell_retried", step=1, detail=detail)
                    )
            if cell_timeout_s is not None:
                now = time.monotonic()
                for cell in sorted(pending):
                    started = executor.started_at(cell)
                    if started is None or now - started < cell_timeout_s:
                        continue
                    if executor.cancel(cell):
                        emit(
                            "cell_timeout", cell,
                            f"exceeded {cell_timeout_s:.1f}s deadline; cancelled, "
                            "completing serially",
                        )
                        run_serially(cell)
            while emitted < len(order) and order[emitted] in results:
                yield order[emitted], results[order[emitted]]
                emitted += 1
    finally:
        executor.shutdown()
