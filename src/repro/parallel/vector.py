"""Cross-search vectorized grid stepping.

The serial executor runs each ``(workload, repeat)`` cell's search to
completion before the next one starts.  :class:`VectorizedGridDriver`
instead advances *every* live search one acquisition round per pass and
scores the pass's rounds in groups, through the one protocol every
surrogate scorer speaks:

* ``scorer.group_key(measured, values, measurements, unmeasured)``
  names the group the round can be scored in, or ``None`` to score it
  alone;
* the static ``type(scorer).score_group(scorers, rounds)`` scores one
  ``(measured, values, measurements, unmeasured)`` round per member;
  the scorer's own ``score`` is the group of one.

The driver buckets rounds by ``(type(scorer), key)`` and knows nothing
of the model families behind them: the tree scorer
(:meth:`~repro.core.augmented_bo.PairwiseTreeScorer.score_group`) grows
a group's Extra-Trees ensembles in one stacked frontier and walks their
queries in one packed prediction, the GP scorer
(:meth:`~repro.core.naive_bo.GPScorer.score_group`) fits a group's GPs
in lock-step and computes their EI in one row-wise pass.

Each search is still driven through its own
:class:`~repro.core.smbo.SearchState` round split (``begin_round`` /
``complete_round``), consuming its own random streams in exactly the
serial order, and is scored by the scorer its optimiser's
``_round_scorer()`` names — the one the serial step scores through.
Every group body is bit-identical per member to that member's own
``score``, so the yielded results (and any cache built from them) are
**byte-identical** to the serial executor's.

Desync is the normal case, not an error: searches stop at different
step counts, switch scorers at different times (Hybrid BO), or are not
batchable (no scorer, a ``None`` key, ``batch_size > 1`` rounds).  Every
pass regroups whatever *is* batchable that round and scores everything
else per cell, the way the serial loop does, so a heterogeneous grid
degrades smoothly toward serial performance.  The stacked builders
amortise per-call numpy *dispatch*, so they pay off in the small-``m``
regime the paper's stopping-rule searches live in; long fixed-depth
searches become compute-bound and converge to ~1x.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator

from repro.core.objectives import Objective
from repro.core.result import SearchResult
from repro.core.smbo import SearchState

# Not called here; kept bound for the import-binding check of
# perfbench/tests/test_perfbench.py::test_wrappers_patch_names_bound_by_import.
from repro.ml.tree import predict_packed_many  # noqa: F401
from repro.parallel.events import CellEvent
from repro.trace.dataset import BenchmarkTrace

Cell = tuple[str, int]


class VectorizedGridDriver:
    """Advance all grid cells in lock-step, batching surrogate rounds.

    Args:
        trace: the ground-truth trace to replay against.
        factory: builds the optimiser for each cell (same factory the
            serial engine uses).
        objective: what to minimise.
        cells: the ``(workload_id, repeat)`` pairs to run.
        seed_fn: maps a cell to its optimiser seed.
        on_event: optional :class:`~repro.parallel.events.CellEvent`
            sink (``cell_scheduled`` / ``cell_finished`` per cell, one
            grid-scoped ``vector_planned`` up front).

    :meth:`run` yields ``(cell, result)`` in submission order with
    results bit-identical to the serial executor's; an exception in any
    cell's search propagates (there is no in-process retry — supervision
    belongs to the work queue's process-isolating workers).
    """

    def __init__(
        self,
        trace: BenchmarkTrace,
        factory: Callable,
        objective: Objective,
        cells: list[Cell],
        seed_fn: Callable[[str, int], int],
        on_event: Callable[[CellEvent], None] | None = None,
    ) -> None:
        self._trace = trace
        self._factory = factory
        self._objective = objective
        self._cells = list(cells)
        self._seed_fn = seed_fn
        self._on_event = on_event
        self.rounds = 0
        self.fallback_rounds = 0
        # Groups scored, by the label a group key starts with.
        self._groups_scored: Counter[str] = Counter()

    @property
    def stacked_tree_fits(self) -> int:
        """Tree groups scored, each in one ensemble fit."""
        return self._groups_scored["tree"]

    @property
    def stacked_gp_fits(self) -> int:
        """GP groups scored, each in one lock-step fit."""
        return self._groups_scored["gp"]

    def _emit(self, event: CellEvent) -> None:
        if self._on_event is not None:
            self._on_event(event)

    def run(self) -> Iterator[tuple[Cell, SearchResult]]:
        """Drive every cell to completion; yield in submission order."""
        self._emit(
            CellEvent.for_grid(
                "vector_planned", f"cells={len(self._cells)} lock-step rounds"
            )
        )
        states: list[tuple[Cell, SearchState]] = []
        for cell in self._cells:
            workload_id, repeat = cell
            environment = self._trace.environment(workload_id)
            optimizer = self._factory(
                environment, self._objective, self._seed_fn(workload_id, repeat)
            )
            self._emit(CellEvent.for_cell("cell_scheduled", cell))
            states.append((cell, optimizer.start()))

        active = list(states)
        while active:
            self.rounds += 1
            groups: dict[tuple, list] = {}
            for _, state in active:
                optimizer = state.optimizer
                # Init observations are per-cell by nature; batched
                # (q > 1) rounds take their picks from the optimiser's
                # own _suggest_batch, so they are stepped per cell too.
                if state.phase == "init" or optimizer.batch_size != 1:
                    state.step()
                    continue
                candidates = state.begin_round()
                if candidates is None:
                    continue
                scorer = optimizer._round_scorer()
                round_ = (
                    optimizer.measured_indices,
                    optimizer.measured_values,
                    optimizer.measured_measurements,
                    candidates,
                )
                key = None if scorer is None else scorer.group_key(*round_)
                if key is None:
                    self.fallback_rounds += 1
                    state.complete_round(
                        candidates, optimizer._score_candidates(candidates)
                    )
                else:
                    groups.setdefault((type(scorer), key), []).append(
                        (state, scorer, round_)
                    )
            for (scorer_class, key), members in groups.items():
                self._groups_scored[key[0]] += 1
                acquisitions = scorer_class.score_group(
                    [scorer for _, scorer, _ in members],
                    [round_ for _, _, round_ in members],
                )
                for (state, _, round_), acquisition in zip(members, acquisitions):
                    state.complete_round(round_[-1], acquisition)
            still_active = []
            for cell, state in active:
                if state.done:
                    self._emit(CellEvent.for_cell("cell_finished", cell))
                else:
                    still_active.append((cell, state))
            active = still_active

        for cell, state in states:
            yield cell, state.result()
