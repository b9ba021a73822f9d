"""Pluggable cell executors: the dispatch layer of the execution plane.

A :class:`CellExecutor` turns grid cells into
:class:`~repro.core.result.SearchResult` objects, one at a time, behind
a four-method protocol (``submit`` / ``poll`` / ``cancel`` /
``shutdown``).  The engine and its :class:`~repro.parallel.supervisor.
Supervisor` only ever talk to the protocol, so remote or async backends
can plug in without touching supervision logic.

Two implementations ship:

* :class:`SerialExecutor` (here) — runs cells synchronously in the
  calling process, one per :meth:`~SerialExecutor.poll`.  It is
  *transparent*: application exceptions propagate to the caller,
  nothing can crash or straggle, so supervision (deadlines, serial
  fallbacks) is structurally a no-op on top of it.
* :class:`~repro.parallel.queue.QueueExecutor` — dispatches through a
  durable SQLite-backed work queue with leased cells.  It forks local
  pull-workers (the engine's process backend: ``executor="auto"`` at
  more than one planned worker, and ``executor="queue"``), survives
  coordinator *and* worker crashes, and admits external worker
  processes (``arrow queue-worker``).

Outcome semantics: ``poll`` never raises for worker-side problems.  A
cell that completed returns ``result``; one that raised an application
error returns ``error`` (the ``"ErrorType: message"`` string); one whose
worker died mid-execution returns ``crashed=True``.  What to do about
it — pin, fall back, cancel — belongs to the supervisor.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.result import SearchResult

#: One grid cell: (workload_id, repeat).
Cell = tuple[str, int]

#: Executes one cell to a result (the engine's ``_execute_cell``).
CellFn = Callable[[Cell], SearchResult]


@dataclass(frozen=True, slots=True)
class CellOutcome:
    """What became of one submitted cell.

    Exactly one of three states holds:

    * ``result is not None`` — the cell completed;
    * ``error is not None`` — the cell raised an application error
      (``"ErrorType: message"``);
    * ``crashed`` — the worker process died without reporting (killed,
      OOM, ``os._exit``); the cell's work is lost.
    """

    cell: Cell
    result: SearchResult | None = None
    error: str | None = None
    crashed: bool = False

    @property
    def ok(self) -> bool:
        """Whether the cell completed with a result."""
        return self.result is not None


@runtime_checkable
class CellExecutor(Protocol):
    """The execution-plane dispatch protocol.

    Implementations may queue an unbounded backlog; ``submit`` never
    blocks and takes a whole batch, so a durable backend can record a
    grid's cells in one transaction.  ``poll`` returns every outcome
    that became available, waiting up to ``timeout`` seconds for at
    least one (``None`` = wait as long as the implementation needs;
    serial implementations may ignore the timeout entirely).
    ``cancel`` is best-effort and returns whether the cell was actually
    withdrawn.  ``shutdown`` releases all resources; pending and running
    cells are dropped.

    Two optional introspection hooks refine supervision when present:
    ``supports_cancel`` (class attribute, default falsy) advertises that
    running cells can really be withdrawn — deadline enforcement is
    pointless without it — and ``started_at(cell)`` returns the
    ``time.monotonic()`` instant the cell began executing (``None``
    while still queued), so deadlines measure execution time, not queue
    time.
    """

    def submit(self, cells: Sequence[Cell]) -> None: ...

    def poll(self, timeout: float | None = None) -> list[CellOutcome]: ...

    def cancel(self, cell: Cell) -> bool: ...

    def shutdown(self) -> None: ...


class SerialExecutor:
    """Runs cells synchronously in the calling process.

    ``poll`` executes the oldest queued cell to completion and returns
    its outcome.  Application exceptions propagate to the caller —
    exactly what the serial grid path has always done — so a
    deterministic failure surfaces unchanged instead of being
    retried into the same failure.
    """

    supports_cancel = False

    def __init__(self, run_cell: CellFn) -> None:
        self._run_cell = run_cell
        self._backlog: deque[Cell] = deque()

    def submit(self, cells: Sequence[Cell]) -> None:
        self._backlog.extend(cells)

    def poll(self, timeout: float | None = None) -> list[CellOutcome]:
        if not self._backlog:
            return []
        cell = self._backlog.popleft()
        return [CellOutcome(cell=cell, result=self._run_cell(cell))]

    def cancel(self, cell: Cell) -> bool:
        try:
            self._backlog.remove(cell)
        except ValueError:
            return False
        return True

    def started_at(self, cell: Cell) -> float | None:
        return None

    def shutdown(self) -> None:
        self._backlog.clear()
