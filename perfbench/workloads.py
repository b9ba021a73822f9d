"""The benchmark's three workloads: seeded inputs, one measured pass, checks.

A workload is built from the ``--seed`` alone (workload ids, the
per-cell ``seed_fn``, fault and market seeds) and knows how to run one
*pass*: a fixed amount of work whose results are a pure function of the
seed.  Passes are repeated within a run, so every deterministic metric
and the result digest must come out identical on each repetition.

Why each workload exists (see README.md for the layer mapping):

* ``paper-grid`` — the paper's Fig. 9/11/12 setting on ``aws-2017``:
  many tiny searches (m <= 18, <= 17 candidates) through the lock-step
  vector executor, so GP hyperparameter fitting, stacking and per-search
  dispatch dominate while the candidate axis, faults and queue idle.
* ``multicloud-hybrid`` — interactive HybridBO searches over the
  390-type ``multicloud`` catalog, driven step by step: the widest
  candidate axis (tree fit, packed predict, query assembly, acquisition)
  and the heaviest trace synthesis in set-up.
* ``spot-queue-grid`` — a durable, faulty, write-heavy grid: q=4
  AugmentedBO under transient timeouts and market spot revocations,
  dispatched through the SQLite work queue with forked pull-workers,
  then read back by a resume pass.  Cells are ~10 ms, so per-cell
  queue, journal, codec and retry-ladder costs are a large share.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.analysis.runner import ExperimentRunner, RunGrid, result_to_payload, run_seed
from repro.cloud.spot import SpotMarket, SpotPolicy
from repro.core.augmented_bo import AugmentedBO
from repro.core.hybrid_bo import HybridBO
from repro.core.naive_bo import NaiveBO
from repro.core.objectives import Objective
from repro.core.stopping import EIThreshold, PredictionDeltaThreshold
from repro.faults.models import FaultInjector, FaultPlan, SpotInterruptions, TransientTimeouts
from repro.faults.retry import RetryPolicy
from repro.parallel.queue import WorkQueue
from repro.trace import generate

OBJECTIVE = Objective.COST

#: Cell events that mean a cell did not finish cleanly in its executor.
FAILED_CELL_EVENTS = frozenset(
    {"cell_failed", "cell_timeout", "cell_pinned", "pool_degraded", "queue_stalled"}
)


def derive(seed: int, *tags: int) -> int:
    """A 31-bit seed derived from the benchmark seed and stream tags."""
    state = np.random.SeedSequence([seed, *tags]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


@dataclass
class PassResult:
    """What one pass measured and produced.

    Attributes:
        wall_s: wall clock of the pass's measured work.
        searches: searches the pass completed.
        step_s: latency of every search-phase ``SearchState.step()``
            timed during the pass.
        results: ``(label, SearchResult)`` per search, in a fixed order.
        cells_attempted: grid cells (or searches) the pass asked for.
        cells_failed: cells that failed, were poisoned, or fell back to
            a serial completion.
        cache_bytes: bytes of runner cache written by the pass.
        requeued: cells the durable queue put back after a failure.
        errors: failed output checks.
    """

    wall_s: float
    searches: int
    step_s: list[float]
    results: list
    cells_attempted: int
    cells_failed: int
    cache_bytes: int = 0
    requeued: int = 0
    errors: list[str] = field(default_factory=list)


def check_ground_truth(trace, results) -> list[str]:
    """Every step's objective value must equal the trace's recorded value."""
    errors = []
    for label, result in results:
        truth = trace.objective_values(result.workload_id, OBJECTIVE.trace_key)
        for step in result.steps:
            expected = float(truth[trace.column_of(step.vm_name)])
            if step.objective_value != expected:
                errors.append(
                    f"{label} step {step.step}: {step.vm_name} measured "
                    f"{step.objective_value!r}, trace holds {expected!r}"
                )
                break
    return errors


def timed_search(state) -> tuple[object, list[float]]:
    """Drive a search to completion; time each search-phase step."""
    latencies = []
    while True:
        timed = state.phase == "search"
        start = perf_counter()
        live = state.step()
        if timed:
            latencies.append(perf_counter() - start)
        if not live:
            return state.result(), latencies


def _cache_bytes(cache_dir: Path) -> int:
    return sum(p.stat().st_size for p in cache_dir.glob("*.json"))


class _GridWorkload:
    """Shared shape of the two grid workloads."""

    name = ""
    catalog = "aws-2017"
    #: Repeats of every workload in one pass.
    repeats = 1
    #: Cells per optimiser whose steps are timed by an in-process probe.
    probe_cells = 0
    #: Passes every benchmark process runs, whatever its time budget.
    min_passes = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self._mix = derive(seed, 0)

    def seed_fn(self, workload_id: str, repeat: int) -> int:
        return run_seed(workload_id, repeat) ^ self._mix

    def setup(self) -> None:
        self.trace = generate.canonical_trace(self.catalog)
        self.workload_ids = tuple(w.workload_id for w in self.trace.registry)
        self.grids = self._grids()
        # The first search is ready once its optimiser (design matrix
        # included) exists.
        first = self.workload_ids[0]
        self.grids[0].factory(
            self.trace.environment(first), OBJECTIVE, self.seed_fn(first, 0)
        )

    def _grids(self) -> list[RunGrid]:
        raise NotImplementedError

    def _run_grids(self, cache_dir: Path, events: list, errors: list) -> dict[str, dict]:
        raise NotImplementedError

    def check(self, result: PassResult) -> list[str]:
        return check_ground_truth(self.trace, result.results)

    def run_pass(self, index: int) -> PassResult:
        cache_dir = self.work_dir / f"pass-{index}"
        events: list = []
        errors: list[str] = []
        start = perf_counter()
        by_grid = self._run_grids(cache_dir, events, errors)
        wall = perf_counter() - start
        cache_bytes = _cache_bytes(cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)

        results = []
        for grid in self.grids:
            per_workload = by_grid[grid.key]
            for workload_id in self.workload_ids:
                slots = per_workload.get(workload_id, [])
                if len(slots) != self.repeats or any(r is None for r in slots):
                    errors.append(f"{grid.key}: {workload_id} is missing results")
                    continue
                results.extend(
                    (f"{grid.key}/{workload_id}/{repeat}", result)
                    for repeat, result in enumerate(slots)
                )
        failed = sum(1 for event in events if event.kind in FAILED_CELL_EVENTS)
        requeued = sum(1 for event in events if event.kind == "cell_requeued")

        # Step latency: the grid executors never expose a single step, so
        # a few cells of each grid are re-driven in-process through
        # SearchState.step(); they must reproduce the grid's results.
        # Pass ``k`` probes the k-th block of cells, so a run's passes
        # sample the whole grid instead of the same few searches.
        n = len(self.workload_ids)
        probed = [
            self.workload_ids[(index * self.probe_cells + j) % n]
            for j in range(min(self.probe_cells, n))
        ]
        steps = []
        for grid in self.grids:
            for workload_id in probed:
                optimizer = grid.factory(
                    self.trace.environment(workload_id),
                    OBJECTIVE,
                    self.seed_fn(workload_id, 0),
                )
                result, latencies = timed_search(optimizer.start())
                steps.extend(latencies)
                expected = by_grid[grid.key][workload_id][0]
                if result_to_payload(result) != result_to_payload(expected):
                    errors.append(
                        f"{grid.key}: stepping {workload_id} in-process differs "
                        "from the grid executor's result"
                    )
        return PassResult(
            wall_s=wall,
            searches=len(self.grids) * len(self.workload_ids) * self.repeats,
            step_s=steps,
            results=results,
            cells_attempted=len(self.grids) * len(self.workload_ids) * self.repeats,
            cells_failed=failed,
            cache_bytes=cache_bytes,
            requeued=requeued,
            errors=errors,
        )


class PaperGrid(_GridWorkload):
    """AugmentedBO (delta stop 1.1) and NaiveBO (EI-10%) on aws-2017."""

    name = "paper-grid"
    repeats = 1
    probe_cells = 12

    def _grids(self) -> list[RunGrid]:
        return [
            RunGrid("augmented-bo", _augmented, OBJECTIVE, self.workload_ids, self.repeats),
            RunGrid("naive-bo", _naive, OBJECTIVE, self.workload_ids, self.repeats),
        ]

    def _run_grids(self, cache_dir: Path, events: list, errors: list) -> dict[str, dict]:
        runner = ExperimentRunner(self.trace, cache_dir=cache_dir)
        return {
            grid.key: runner.run(
                grid, executor="vector", seed_fn=self.seed_fn, on_event=events.append
            )
            for grid in self.grids
        }


def _augmented(environment, objective, seed):
    return AugmentedBO(
        environment, objective=objective, seed=seed,
        stopping=PredictionDeltaThreshold(threshold=1.1),
    )


def _naive(environment, objective, seed):
    return NaiveBO(
        environment, objective=objective, seed=seed,
        stopping=EIThreshold(fraction=0.1),
    )


#: The spot market every spot-queue-grid run bids into.
MARKET_SEED = 0


class SpotQueueGrid(_GridWorkload):
    """q=4 AugmentedBO on spot capacity with transient faults, via the queue."""

    name = "spot-queue-grid"
    repeats = 2
    probe_cells = 16
    transient_rate = 0.2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        # The market is part of the workload, like the trace: its seed
        # moves every VM's discount and hazard, so a seeded market would
        # make charged cost mostly a function of the draw.
        self.market = SpotMarket(seed=MARKET_SEED)
        self._fault_mix = derive(seed, 2)
        self.policy = SpotPolicy(market=self.market, fallback_after=2)
        self.workers = max(1, min(2, os.cpu_count() or 1))

    def factory(self, environment, objective, seed):
        # Each cell gets its own fault streams: one plan seed shared by
        # every cell replays the same initial-design faults in all of
        # them, and one unlucky draw then moved the whole grid's charge.
        plan = FaultPlan(
            (
                TransientTimeouts(rate=self.transient_rate),
                SpotInterruptions(market=self.market),
            ),
            seed=seed ^ self._fault_mix,
        )
        return AugmentedBO(
            FaultInjector(environment, plan),
            objective=objective,
            seed=seed,
            stopping=PredictionDeltaThreshold(threshold=1.1),
            retry_policy=RetryPolicy(max_attempts=4),
            batch_size=4,
            spot=self.policy,
        )

    def setup(self) -> None:
        super().setup()
        # The durable queue's schema is part of what a grid needs first.
        probe = self.work_dir / "setup.queue"
        WorkQueue(probe, "setup", pricing="spot").close()
        WorkQueue.remove(probe)

    def _grids(self) -> list[RunGrid]:
        return [
            RunGrid("spot-augmented-q4", self.factory, OBJECTIVE, self.workload_ids, self.repeats)
        ]

    def _run_grids(self, cache_dir: Path, events: list, errors: list) -> dict[str, dict]:
        runner = ExperimentRunner(self.trace, cache_dir=cache_dir)
        grid = self.grids[0]
        options = dict(
            executor="queue",
            seed_fn=self.seed_fn,
            queue_workers=self.workers,
            queue_pricing="spot",
        )
        written = runner.run(grid, on_event=events.append, **options)
        # The resume pass reads the finished cache back without a lease.
        resumed_events: list = []
        resumed = runner.run(grid, resume=True, on_event=resumed_events.append, **options)
        events.extend(e for e in resumed_events if e.kind != "cell_cached")
        if any(e.kind != "cell_cached" for e in resumed_events) or _payloads(
            written
        ) != _payloads(resumed):
            errors.append("resume pass recomputed cells or changed a result")
        return {grid.key: written}


def _payloads(results: dict) -> dict:
    return {w: [result_to_payload(r) for r in runs] for w, runs in results.items()}


class MulticloudHybrid:
    """Interactive HybridBO searches over the 390-type multicloud catalog."""

    name = "multicloud-hybrid"
    catalog = "multicloud"
    #: Distinct searches a seed plans; pass ``k`` runs search ``k mod 5``.
    #: The coordinator's three processes run at least passes 0-1, 2-3
    #: and 4-5, so every planned search runs and search 0 runs twice.
    searches = 5
    min_passes = 2
    budget = 40

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        self.trace = generate.canonical_trace(self.catalog)
        ids = [w.workload_id for w in self.trace.registry]
        rng = np.random.default_rng(derive(self.seed, 0))
        picks = rng.choice(len(ids), size=self.searches, replace=False)
        self.plan = [(ids[int(i)], derive(self.seed, 1, int(i))) for i in picks]
        self._optimizer(*self.plan[0])

    def _optimizer(self, workload_id: str, seed: int) -> HybridBO:
        return HybridBO(
            self.trace.environment(workload_id),
            objective=OBJECTIVE,
            seed=seed,
            max_measurements=self.budget,
        )

    def run_pass(self, index: int) -> PassResult:
        workload_id, seed = self.plan[index % len(self.plan)]
        start = perf_counter()
        result, steps = timed_search(self._optimizer(workload_id, seed).start())
        wall = perf_counter() - start
        return PassResult(
            wall_s=wall,
            searches=1,
            step_s=steps,
            results=[(f"hybrid-bo/{workload_id}/{seed}", result)],
            cells_attempted=1,
            cells_failed=0,
        )

    def check(self, result: PassResult) -> list[str]:
        errors = check_ground_truth(self.trace, result.results)
        for label, run in result.results:
            if run.search_cost != self.budget:
                errors.append(f"{label}: {run.search_cost} measurements, budget {self.budget}")
        return errors


WORKLOADS = {
    cls.name: cls for cls in (PaperGrid, MulticloudHybrid, SpotQueueGrid)
}


def label_records(trace, results) -> dict[str, list]:
    """Per search: payload sha256, measurements, best/optimum, charge."""
    records = {}
    optima: dict[str, float] = {}
    for label, result in results:
        workload_id = result.workload_id
        if workload_id not in optima:
            optima[workload_id] = float(
                trace.objective_values(workload_id, OBJECTIVE.trace_key).min()
            )
        payload = json.dumps(result_to_payload(result), sort_keys=True).encode()
        records[label] = [
            hashlib.sha256(payload).hexdigest(),
            result.search_cost,
            result.best_value / optima[workload_id],
            float(result.charged_cost),
        ]
    return records


def result_counters(results) -> dict[str, float]:
    """Fault-ladder and round counts read from the searches' own records."""
    runs = [result for _label, result in results]
    successes = sum(r.search_cost for r in runs)
    failures = sum(r.failure_count for r in runs)
    kinds = [event.kind for r in runs for event in r.events]
    return {
        "faults.attempts": successes + failures,
        "faults.failed_attempts": failures,
        "faults.useful_ratio": successes / (successes + failures),
        "faults.spot_revocations": kinds.count("spot_revoked"),
        "faults.ondemand_fallbacks": kinds.count("fallback_to_ondemand"),
        "faults.quarantined_vms": sum(len(r.quarantined_vms) for r in runs),
        "core.rounds": kinds.count("surrogate_fitted"),
    }


#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "trace.measure": "trace.measure_s",
    "faults.measure": "faults.measure_s",
    "cloud.spot_quote": "cloud.spot_quote_s",
    "core.step": "core.step_self_s",
    "core.score": "core.score_self_s",
    "core.query": "core.query_s",
    "core.acquisition": "core.acquisition_s",
    "ml.tree_fit": "ml.tree_fit_s",
    "ml.tree_predict": "ml.tree_predict_s",
    "ml.gp_fit": "ml.gp_fit_s",
    "ml.gp_predict": "ml.gp_predict_s",
    "analysis.encode": "analysis.encode_s",
    "analysis.decode": "analysis.decode_s",
    "analysis.runner": "analysis.runner_self_s",
    "parallel.dispatch": "parallel.dispatch_self_s",
    "parallel.journal": "parallel.journal_s",
    "parallel.queue_claim": "parallel.queue_claim_s",
    "parallel.queue_complete": "parallel.queue_complete_s",
    "parallel.queue_heartbeat": "parallel.queue_heartbeat_s",
    "parallel.queue_worker": "parallel.queue_worker_self_s",
    "parallel.vector_round": "parallel.vector_round_self_s",
}

#: Counters the wrappers accumulate (absent means the layer never ran).
COUNTER_METRICS = (
    "core.query_rows",
    "ml.tree_fits",
    "ml.tree_predict_rows",
    "ml.gp_fits",
    "ml.gp_lml_evals",
    "ml.gp_kernel_builds",
    "parallel.vector_rounds",
    "parallel.vector_fallback_rounds",
    "parallel.vector_stacked_tree_fits",
    "parallel.vector_stacked_gp_fits",
)


def layer_metrics(table: dict, setup_table: dict, counters: dict, extra: dict) -> dict:
    """Every per-layer metric of one traced pass."""
    self_s, calls = table["self_s"], table["calls"]
    metrics = {
        metric: self_s.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()
    }
    metrics.update({name: table["counts"].get(name, 0) for name in COUNTER_METRICS})
    metrics["trace.measure_calls"] = calls.get("trace.measure", 0)
    metrics["trace.generate_s"] = setup_table["self_s"].get("trace.generate", 0.0)
    metrics["parallel.journal_records"] = calls.get("parallel.journal", 0)
    metrics["parallel.queue_claims"] = table["counts"].get("parallel.queue_claims", 0)
    metrics.update(counters)
    metrics.update(extra)
    wall = table["wall_s"]
    metrics["bench.traced_wall_s"] = wall
    metrics["bench.coverage"] = table["covered_s"] / wall
    metrics["bench.unattributed_s"] = wall - table["covered_s"]
    metrics["bench.overhead_s"] = wall - extra["bench.untraced_wall_s"]
    return metrics
