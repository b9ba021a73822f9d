"""Cross-search vectorized grid stepping.

The serial executor runs each ``(workload, repeat)`` cell's search to
completion before the next one starts.  :class:`VectorizedGridDriver`
instead advances *every* live search one acquisition round per pass and
batches the per-round linear algebra across them:

* tree-surrogate searches (Augmented BO, the late phase of Hybrid BO)
  have their Extra-Trees ensembles grown in **one** level-synchronous
  frontier (:func:`repro.ml.extra_trees.fit_ensembles_stacked`) and
  their candidate x source queries evaluated in **one** packed
  prediction call across all ensembles
  (:func:`repro.ml.tree.predict_packed_many`, which walks large
  factored queries over destination x source sets and small ones flat);
* GP searches (Naive BO, the early phase of Hybrid BO) are scored
  through :meth:`~repro.core.naive_bo.GPScorer.score_group`, the body
  ``GPScorer.score`` runs as a group of one: their GPs are fitted as
  one lock-step group (:func:`repro.ml.gp.fit_gps_stacked`), where
  every L-BFGS-B round evaluates one pending point per unfinished GP,
  with the kernels, gradients and Eq. 5.9 reductions of same-size
  isotropic GPs computed over one ``(B, n, n)`` stack, and the
  factorisations per GP.  Their EI is computed in one row-wise pass
  (:func:`repro.core.acquisition.expected_improvement_stacked`), and
  each scorer's own acquisition (EI, PI, LCB or MES) is applied to its
  row.  The conditioning kernel build after the optimisation stays per
  GP: a stacked one was measured to gain nothing on paper-grid.

Each search is still driven through its own
:class:`~repro.core.smbo.SearchState` round split (``begin_round`` /
``complete_round``), consuming its own random streams in exactly the
serial order.  Its round is scored by the scorer its optimiser's
``_round_scorer()`` names, the one the serial step scores through, and
every batched kernel is bit-identical per slice to its per-search
counterpart — so the yielded results (and therefore any cache built
from them) are **byte-identical** to the serial executor's.  This is a
dispatch-amortisation play, not an approximation.

Desync is the normal case, not an error: searches stop at different
step counts (stopping rules, exhausted budgets), switch surrogates at
different times (Hybrid BO), or are simply not batchable (random
search, warm-refit and random-forest ensembles, ``batch_size > 1``
fan-out rounds).  Every pass regroups whatever *is* batchable that
round; everything else is scored per cell — same code the serial loop
runs — so a heterogeneous grid degrades smoothly toward serial
performance rather than breaking.

When the win shows up: the stacked builders amortise *dispatch*, so
they pay off in the small-``m`` regime where per-level numpy call
overhead dominates — exactly where the paper's searches live (the
prediction-delta stopping rule ends most searches within ~5–9
measurements).  Long fixed-depth searches drift into the
compute/memory-bound regime where batching converges to ~1x.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.core.augmented_bo import PairwiseTreeScorer
from repro.core.naive_bo import GPScorer
from repro.core.objectives import Objective
from repro.core.result import SearchResult
from repro.core.smbo import AcquisitionScores, SearchState
from repro.ml.extra_trees import fit_ensembles_stacked
from repro.ml.tree import predict_packed_many
from repro.parallel.events import CellEvent
from repro.trace.dataset import BenchmarkTrace

Cell = tuple[str, int]


class _LiveCell:
    """One grid cell's in-flight search and its per-round scratch."""

    __slots__ = ("cell", "state", "candidates", "pending", "scorer")

    def __init__(self, cell: Cell, state: SearchState) -> None:
        self.cell = cell
        self.state = state
        self.candidates: list[int] | None = None
        self.pending = None
        self.scorer = None

    @property
    def optimizer(self):
        return self.state.optimizer


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
        self.stacked_tree_fits = 0
        self.stacked_gp_fits = 0
        self.fallback_rounds = 0

    def _emit(self, event: CellEvent) -> None:
        if self._on_event is not None:
            self._on_event(event)

    # -- batched round helpers ----------------------------------------------

    def _tree_group_key(self, live: _LiveCell) -> tuple:
        pending = live.pending
        model = pending.model
        return (
            "tree",
            pending.X_scaled.shape[1],
            model.min_samples_split,
            model.max_depth,
        )

    def _run_tree_group(self, group: list[_LiveCell]) -> None:
        """One stacked ensemble fit + one packed traversal for the group."""
        fit_ensembles_stacked(
            [live.pending.model for live in group],
            [(live.pending.X_scaled, live.pending.y_train) for live in group],
        )
        self.stacked_tree_fits += 1
        rows = [live.scorer.query_rows(live.pending) for live in group]
        predictions = predict_packed_many(
            [live.pending.model._packed for live in group], rows
        )
        for live, tree_predictions in zip(group, predictions):
            acquisition = live.scorer.score_commit(
                live.pending, tree_predictions=tree_predictions
            )
            self._commit(live, acquisition)

    def _run_gp_group(self, group: list[_LiveCell]) -> None:
        """The group's rounds through :meth:`GPScorer.score_group`."""
        acquisitions = GPScorer.score_group(
            [live.scorer for live in group],
            [
                (
                    live.optimizer.measured_indices,
                    live.optimizer.measured_values,
                    live.candidates,
                )
                for live in group
            ],
        )
        self.stacked_gp_fits += 1
        for live, acquisition in zip(group, acquisitions):
            self._commit(live, acquisition)

    def _commit(self, live: _LiveCell, acquisition: AcquisitionScores) -> None:
        live.state.complete_round(live.candidates, acquisition)
        live.candidates = None
        live.pending = None
        live.scorer = None

    # -- the lock-step loop --------------------------------------------------

    def _round_bucket(self, live: _LiveCell) -> tuple | None:
        """The batch group for this cell's open round, or ``None``.

        ``None`` means "score this cell alone this round": the search
        has no round scorer (the baselines), or its tree scorer is not
        stackable (warm refits, the random forest).  A GP group shares
        one size of training set and of candidate set.
        """
        scorer = live.optimizer._round_scorer()
        opt = live.optimizer
        if isinstance(scorer, PairwiseTreeScorer) and scorer.stackable:
            live.scorer = scorer
            live.pending = scorer.score_begin(
                opt.measured_indices,
                opt.measured_values,
                opt.measured_measurements,
                live.candidates,
            )
            return self._tree_group_key(live)
        if isinstance(scorer, GPScorer):
            live.scorer = scorer
            return ("gp", len(opt.measured_indices), len(live.candidates))
        return None

    def run(self) -> Iterator[tuple[Cell, SearchResult]]:
        """Drive every cell to completion; yield in submission order."""
        self._emit(
            CellEvent.for_grid(
                "vector_planned", f"cells={len(self._cells)} lock-step rounds"
            )
        )
        live_cells: list[_LiveCell] = []
        for cell in self._cells:
            workload_id, repeat = cell
            environment = self._trace.environment(workload_id)
            optimizer = self._factory(
                environment, self._objective, self._seed_fn(workload_id, repeat)
            )
            self._emit(CellEvent.for_cell("cell_scheduled", cell))
            live_cells.append(_LiveCell(cell, optimizer.start()))

        active = list(live_cells)
        while active:
            self.rounds += 1
            groups: dict[tuple, list[_LiveCell]] = {}
            for live in active:
                state = live.state
                # Init observations are per-cell by nature; batched
                # (q > 1) rounds take their picks from the optimiser's
                # own _suggest_batch, so they are stepped per cell too.
                if state.phase == "init" or live.optimizer.batch_size != 1:
                    state.step()
                    continue
                candidates = state.begin_round()
                if candidates is None:
                    continue
                live.candidates = candidates
                bucket = self._round_bucket(live)
                if bucket is None:
                    self.fallback_rounds += 1
                    acquisition = live.optimizer._score_candidates(candidates)
                    self._commit(live, acquisition)
                else:
                    groups.setdefault(bucket, []).append(live)
            for bucket, group in groups.items():
                if bucket[0] == "tree":
                    self._run_tree_group(group)
                else:
                    self._run_gp_group(group)
            still_active = []
            for live in active:
                if live.state.done:
                    self._emit(CellEvent.for_cell("cell_finished", live.cell))
                else:
                    still_active.append(live)
            active = still_active

        for live in live_cells:
            yield live.cell, live.state.result()
