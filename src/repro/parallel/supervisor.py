"""Supervised execution of grid cells over any :class:`CellExecutor`.

The :class:`Supervisor` is the policy layer of the execution plane: it
owns *what happens when a cell does not come back cleanly*, while
executors own *how cells run*.  Retrying and healing live in the
executor — the work queue requeues a cell whose worker died or raised,
up to its ``max_attempts``, and respawns its local workers — so the
supervisor sees only final verdicts.  Each one is settled the same way:
the cell is completed once, serially, in the supervisor's own process,
so a deterministic failure surfaces exactly as the serial path would
have raised it.  There are three transitions:

* **Crash** — the executor reports the cell lost (a queue row parked
  ``poisoned`` after its workers died, or every cell of a stalled
  fleet): ``cell_pinned``.
* **Error** — the executor gave up on an application error (a queue row
  parked ``failed``): ``cell_failed`` with the error, then
  ``cell_retried`` ("serial fallback after …").  The retry is also
  mirrored into the resulting :class:`~repro.core.result.SearchResult.
  events` stream, so the persisted record shows the cell was not a
  first-try success.
* **Deadline** — a cell that executes longer than ``cell_timeout_s``
  wall-clock seconds is cancelled (the queue terminates the local
  worker holding its lease) and ``cell_timeout`` is emitted, so one
  straggler never stalls the grid.  Deadlines measure *execution* time
  (via the executor's ``started_at`` hook: for the queue, when the
  coordinator saw the cell's lease claimed), not queue time, and only
  apply to executors that can actually cancel (``supports_cancel``).

Results are yielded in submission order regardless of completion order,
which keeps downstream cache assembly byte-identical to serial runs.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.core.events import SearchEvent
from repro.core.result import SearchResult
from repro.parallel.events import CellEvent
from repro.parallel.executors import Cell, CellExecutor, CellFn

#: Optional progress-event sink.
EventSink = Callable[[CellEvent], None] | None


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunables of the supervision policy.

    Attributes:
        cell_timeout_s: wall-clock deadline per cell execution; ``None``
            disables deadlines.  Only enforced on executors that
            support cancellation.
        poll_tick_s: supervision loop granularity while deadlines are
            armed; also bounds how stale a deadline check can be.
    """

    cell_timeout_s: float | None = None
    poll_tick_s: float = 0.05

    def __post_init__(self) -> None:
        if self.cell_timeout_s is not None and not self.cell_timeout_s > 0:
            raise ValueError(
                f"cell_timeout_s must be positive, got {self.cell_timeout_s}"
            )
        if not self.poll_tick_s > 0:
            raise ValueError(f"poll_tick_s must be positive, got {self.poll_tick_s}")


class Supervisor:
    """Drives one grid of cells through an executor under a policy.

    Args:
        executor: the dispatch backend (serial, work queue, or any other
            :class:`~repro.parallel.executors.CellExecutor`).
        serial_run: executes one cell in the supervisor's own process —
            the completion path for crashed, failed and timed-out cells.
        config: the supervision policy.
        on_event: optional :class:`~repro.parallel.events.CellEvent`
            sink.
    """

    def __init__(
        self,
        executor: CellExecutor,
        serial_run: CellFn,
        config: SupervisionConfig | None = None,
        on_event: EventSink = None,
    ) -> None:
        self.executor = executor
        self.serial_run = serial_run
        self.config = config if config is not None else SupervisionConfig()
        self.on_event = on_event

    def _emit(self, event: CellEvent) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def run(self, cells: Sequence[Cell]) -> Iterator[tuple[Cell, SearchResult]]:
        """Execute ``cells``, yielding ``(cell, result)`` in submission order."""
        order = list(cells)
        results: dict[Cell, SearchResult] = {}
        pending: set[Cell] = set(order)
        emitted = 0
        deadline_armed = (
            self.config.cell_timeout_s is not None
            and getattr(self.executor, "supports_cancel", False)
        )
        resolve_serial = getattr(self.executor, "resolve_serial", None)

        def finish(cell: Cell, result: SearchResult) -> None:
            results[cell] = result
            pending.discard(cell)
            self._emit(CellEvent.for_cell("cell_finished", cell))

        def run_serially(cell: Cell, mirror: SearchEvent | None = None) -> None:
            result = self.serial_run(cell)
            if mirror is not None:
                # The mirror precedes the re-run search's own stream.
                result = dataclasses.replace(result, events=(mirror, *result.events))
            if resolve_serial is not None:
                # Durable executors persist results outside this process
                # (the work queue's database); telling them about a
                # coordinator-side completion keeps that record matching
                # the cache.
                resolve_serial(cell, result)
            finish(cell, result)

        try:
            for cell in order:
                self._emit(CellEvent.for_cell("cell_scheduled", cell))
            self.executor.submit(order)
            while pending:
                tick = self.config.poll_tick_s if deadline_armed else None
                for outcome in self.executor.poll(tick):
                    cell = outcome.cell
                    if cell not in pending:
                        continue  # late result for a cell already handled
                    if outcome.ok:
                        finish(cell, outcome.result)
                    elif outcome.crashed:
                        self._emit(CellEvent.for_cell(
                            "cell_pinned", cell,
                            "lost its worker; pinned to serial execution",
                        ))
                        run_serially(cell)
                    else:
                        self._emit(
                            CellEvent.for_cell("cell_failed", cell, outcome.error or "")
                        )
                        detail = f"serial fallback after {outcome.error}"
                        self._emit(CellEvent.for_cell("cell_retried", cell, detail))
                        run_serially(
                            cell, SearchEvent(kind="cell_retried", step=1, detail=detail)
                        )
                if deadline_armed:
                    self._enforce_deadlines(pending, run_serially)
                while emitted < len(order) and order[emitted] in results:
                    yield order[emitted], results[order[emitted]]
                    emitted += 1
        finally:
            self.executor.shutdown()

    def _enforce_deadlines(
        self, pending: set[Cell], run_serially: Callable[[Cell], None]
    ) -> None:
        """Cancel and serially complete cells past their deadline."""
        timeout = self.config.cell_timeout_s
        now = time.monotonic()
        started_at = getattr(self.executor, "started_at", None)
        for cell in sorted(pending):
            started = started_at(cell) if started_at is not None else None
            if started is None or now - started < timeout:
                continue
            if self.executor.cancel(cell):
                self._emit(
                    CellEvent.for_cell(
                        "cell_timeout",
                        cell,
                        f"exceeded {timeout:.1f}s deadline; cancelled, "
                        "completing serially",
                    )
                )
                run_serially(cell)
