"""Progress events streamed by the parallel experiment engine.

One :class:`CellEvent` per lifecycle transition of a grid cell (a
``(workload, repeat)`` pair), plus engine-level supervision notices.
The stream is advisory — consumers (progress bars, logs, tests) observe
it through the ``on_event`` callback; results never depend on it.

Events come in two scopes: *cell-scoped* events carry the
``(workload_id, repeat)`` pair they describe (build them with
:meth:`CellEvent.for_cell`), while *grid-scoped* events describe the
execution plane itself — worker planning, a stalled queue fleet, the
vector driver's plan — and carry no cell (build them with :meth:`CellEvent.for_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: The cell-event vocabulary.
#:
#: Cell-scoped kinds:
#:
#: * ``cell_scheduled`` / ``cell_finished`` — normal lifecycle;
#: * ``cell_failed`` — the cell's worker attempts ended in an application
#:   error (or the coordinator withdrew it), and the parent will complete
#:   it serially;
#: * ``cell_cached`` — the runner served the cell from its cache (the
#:   engine never sees those cells);
#: * ``cell_resumed`` — the runner recovered the cell from the grid's
#:   work-queue file, where an interrupted run recorded it;
#: * ``cell_retried`` — the coordinator re-attempted a failed cell on the
#:   parent's serial path (``detail``: "serial fallback after …");
#: * ``cell_timeout`` — the cell exceeded its wall-clock deadline, was
#:   cancelled, and will be completed serially;
#: * ``cell_pinned`` — the cell was lost with its worker (a queue row
#:   parked ``poisoned`` after its workers died, or a stalled fleet) and
#:   is completed serially in the parent.
#:
#: Durable-queue cell-scoped kinds (every grid run on the work queue:
#: ``auto`` with more than one planned worker, and ``queue``):
#:
#: * ``lease_claimed`` — a queue worker atomically leased the cell
#:   (``detail`` carries the owner and attempt count);
#: * ``lease_expired`` — a lease passed its heartbeat deadline: the
#:   worker is presumed dead mid-cell;
#: * ``worker_lost`` — the companion to ``lease_expired``, naming the
#:   presumed-dead worker;
#: * ``cell_requeued`` — the cell went back to ``pending`` for another
#:   attempt (after a lost lease or a worker-side application error).
#:
#: Grid-scoped kinds:
#:
#: * ``pool_planned`` — the engine's worker-clamping decision (requested
#:   vs effective workers) before any cell runs;
#: * ``queue_stalled`` — the queue coordinator saw outstanding work but
#:   no live workers or queue activity for its stall timeout, and is
#:   completing the remaining cells itself;
#: * ``vector_planned`` — the vectorized executor is about to drive the
#:   grid's searches in lock-step rounds (``detail`` carries the cell
#:   count).
CELL_EVENT_KINDS: tuple[str, ...] = (
    "cell_scheduled",
    "cell_finished",
    "cell_failed",
    "cell_cached",
    "cell_resumed",
    "cell_retried",
    "cell_timeout",
    "cell_pinned",
    "lease_claimed",
    "lease_expired",
    "worker_lost",
    "cell_requeued",
    "pool_planned",
    "queue_stalled",
    "vector_planned",
)

#: Kinds that never name a cell.
GRID_EVENT_KINDS: tuple[str, ...] = (
    "pool_planned",
    "queue_stalled",
    "vector_planned",
)


@dataclass(frozen=True, slots=True)
class CellEvent:
    """One engine progress event.

    Attributes:
        kind: one of :data:`CELL_EVENT_KINDS`.
        workload_id: the cell's workload (``None`` for grid-scoped events).
        repeat: the cell's repeat index (``None`` for grid-scoped events).
        detail: free-form context — error text, lease owner, deadline.
    """

    kind: str
    workload_id: str | None = None
    repeat: int | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CELL_EVENT_KINDS:
            raise ValueError(
                f"unknown cell event kind {self.kind!r}; known: {CELL_EVENT_KINDS}"
            )

    @classmethod
    def for_cell(
        cls, kind: str, cell: tuple[str, int], detail: str = ""
    ) -> CellEvent:
        """A cell-scoped event for one ``(workload_id, repeat)`` pair."""
        workload_id, repeat = cell
        return cls(kind=kind, workload_id=workload_id, repeat=repeat, detail=detail)

    @classmethod
    def for_grid(cls, kind: str, detail: str = "") -> CellEvent:
        """A grid-scoped (cell-less) event — no fabricated ``(None, None)``
        pair at call sites; the constructor *is* the statement that the
        event concerns the whole execution plane."""
        if kind not in GRID_EVENT_KINDS:
            raise ValueError(
                f"{kind!r} is not a grid-scoped event kind; known: {GRID_EVENT_KINDS}"
            )
        return cls(kind=kind, detail=detail)

    @property
    def cell(self) -> tuple[str, int] | None:
        """The ``(workload_id, repeat)`` pair, or None for grid scope."""
        if self.workload_id is None or self.repeat is None:
            return None
        return (self.workload_id, self.repeat)
