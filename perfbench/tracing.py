"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

:func:`install` replaces the public entry points of every layer with
timing wrappers and :func:`uninstall` puts the originals back.  A
wrapper is patched wherever the name is looked up: on the class for
methods, and for functions in every loaded ``repro`` module that bound
the same object (``repro.parallel.vector`` imports
``predict_packed_many`` by name, the runner calls ``_result_to_json``
under its private alias, and so on).

Spans are kept in memory as ``(pid, thread, id, parent id, name, start,
end, tag)`` tuples and analysed when the run ends.  A forked process
(the queue's pull-workers) starts with an empty recorder and spools its
spans to ``spans-<pid>.jsonl`` after every finished cell, because forked
workers leave through ``os._exit`` and would lose anything held back;
:meth:`SpanRecorder.collect` merges the spool files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

class SpanRecorder:
    """Collects spans and counters for one traced run."""

    def __init__(self, spool_dir: str | Path | None = None) -> None:
        self.root_pid = os.getpid()
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._ids = itertools.count(1)
        self._adopt(self.root_pid)

    def _adopt(self, pid: int) -> None:
        """Start empty in process ``pid`` (fresh, or just forked)."""
        self.pid = pid
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Drop everything recorded so far."""
        self._adopt(os.getpid())

    def enter(self) -> tuple[list[int], int, int | None]:
        pid = os.getpid()
        if pid != self.pid:
            # Forked: the parent's spans and open stacks are not ours.
            self._adopt(pid)
        stack = self._stacks.setdefault(threading.get_ident(), [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return stack, span_id, parent

    def leave(
        self, frame: tuple[list[int], int, int | None], name: str, start: float,
        end: float, tag: str | None = None,
    ) -> None:
        stack, span_id, parent = frame
        stack.pop()
        span = (self.pid, threading.get_ident(), span_id, parent, name, start, end, tag)
        with self._lock:
            self.spans.append(span)

    def count(self, counts: dict[str, float]) -> None:
        with self._lock:
            self.counts.update(counts)

    @property
    def forked(self) -> bool:
        return self.pid != self.root_pid

    def spool(self) -> None:
        """Append this forked process's spans to its spool file."""
        if self.spool_dir is None or not self.forked:
            return
        with self._lock:
            spans, self.spans = self.spans, []
            counts, self.counts = self.counts, Counter()
        if not spans and not counts:
            return
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"spans": spans, "counts": counts})
        with open(self.spool_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def collect(self) -> tuple[list[tuple], Counter]:
        """This process's spans and counts plus every spooled worker's."""
        spans = list(self.spans)
        counts = Counter(self.counts)
        if self.spool_dir is not None and self.spool_dir.exists():
            for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
                for line in path.read_text(encoding="utf-8").splitlines():
                    record = json.loads(line)
                    spans.extend(tuple(span) for span in record["spans"])
                    counts.update(record["counts"])
        return spans, counts


@dataclass(frozen=True)
class TracePoint:
    """One public entry point to time.

    Attributes:
        module: the defining module.
        qualname: ``"function"`` or ``"Class.method"``.
        span: the span name; its layer is the part before the dot.
        before: optional ``(args, kwargs) -> state`` taken before the call.
        after: optional ``(args, kwargs, result, state) -> counts``.
        tag: optional ``result -> str`` stored on the span.
        spool: spool a forked worker's spans once the call returns
            (the calls that finish a queue cell).
    """

    module: str
    qualname: str
    span: str
    before: Callable | None = None
    after: Callable | None = None
    tag: Callable | None = None
    spool: bool = False


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None:
        return len(X)
    return 1 if len(shape) == 1 else int(shape[0])


def _gp_counters(gps) -> tuple[int, int, int]:
    return (
        sum(gp.n_fits for gp in gps),
        sum(gp.n_lml_evals for gp in gps),
        sum(gp.n_kernel_builds for gp in gps),
    )


def _gp_delta(gps_of: Callable) -> tuple[Callable, Callable]:
    def before(args, kwargs):
        return _gp_counters(gps_of(args))

    def after(args, kwargs, result, state):
        fits, lml, builds = (
            now - then for now, then in zip(_gp_counters(gps_of(args)), state)
        )
        return {"ml.gp_fits": fits, "ml.gp_lml_evals": lml, "ml.gp_kernel_builds": builds}

    return before, after


_GP_FIT_BEFORE, _GP_FIT_AFTER = _gp_delta(lambda args: [args[0]])
_GP_STACK_BEFORE, _GP_STACK_AFTER = _gp_delta(lambda args: args[0])


def _vector_counters(args, kwargs, result, state) -> dict[str, int]:
    lockstep = args[0]
    return {
        "parallel.vector_rounds": lockstep.rounds,
        "parallel.vector_fallback_rounds": lockstep.fallback_rounds,
        "parallel.vector_stacked_tree_fits": lockstep.stacked_tree_fits,
        "parallel.vector_stacked_gp_fits": lockstep.stacked_gp_fits,
    }


#: Every layer entry point the traced run times.
TRACE_POINTS: tuple[TracePoint, ...] = (
    # trace: replay and synthesis
    TracePoint("repro.trace.dataset", "TraceEnvironment.measure", "trace.measure"),
    TracePoint("repro.trace.generate", "canonical_trace", "trace.generate"),
    # faults / cloud: the retry and spot ladder's environment side
    TracePoint("repro.faults.models", "FaultInjector.measure", "faults.measure"),
    TracePoint("repro.cloud.spot", "SpotMarket.quote", "cloud.spot_quote"),
    TracePoint("repro.cloud.spot", "SpotMarket.discount", "cloud.spot_quote"),
    TracePoint("repro.cloud.spot", "SpotMarket.hazard", "cloud.spot_quote"),
    # core: the step machine, scorers and acquisition
    TracePoint("repro.core.smbo", "SequentialOptimizer.run", "core.step"),
    TracePoint("repro.core.smbo", "SequentialOptimizer.start", "core.step"),
    TracePoint("repro.core.smbo", "SearchState.step", "core.step"),
    TracePoint("repro.core.smbo", "SearchState.begin_round", "core.step"),
    TracePoint("repro.core.smbo", "SearchState.complete_round", "core.step"),
    TracePoint("repro.core.augmented_bo", "PairwiseTreeScorer.score", "core.score"),
    TracePoint("repro.core.augmented_bo", "PairwiseTreeScorer.score_begin", "core.score"),
    TracePoint("repro.core.augmented_bo", "PairwiseTreeScorer.score_commit", "core.score"),
    TracePoint("repro.core.naive_bo", "GPScorer.score", "core.score"),
    TracePoint("repro.core.naive_bo", "GPScorer.suggest_batch", "core.score"),
    TracePoint(
        "repro.core.augmented_bo", "PairwiseTreeScorer.query_rows", "core.query",
        before=lambda args, kwargs: args[1].scaled_query is None,
        after=lambda args, kwargs, result, fresh: {"core.query_rows": _rows(result) if fresh else 0},
    ),
    TracePoint("repro.core.acquisition", "expected_improvement", "core.acquisition"),
    TracePoint("repro.core.acquisition", "expected_improvement_stacked", "core.acquisition"),
    TracePoint("repro.core.acquisition", "prediction_delta", "core.acquisition"),
    TracePoint("repro.core.acquisition", "top_q_indices", "core.acquisition"),
    # ml: surrogate fit and predict
    TracePoint(
        "repro.ml.extra_trees", "ExtraTreesRegressor.fit", "ml.tree_fit",
        after=lambda args, kwargs, result, state: {"ml.tree_fits": 1},
    ),
    TracePoint(
        "repro.ml.extra_trees", "fit_ensembles_stacked", "ml.tree_fit",
        after=lambda args, kwargs, result, state: {"ml.tree_fits": len(args[0])},
    ),
    TracePoint(
        "repro.ml.tree", "predict_packed", "ml.tree_predict",
        after=lambda args, kwargs, result, state: {"ml.tree_predict_rows": _rows(args[1])},
    ),
    TracePoint(
        "repro.ml.tree", "predict_packed_many", "ml.tree_predict",
        after=lambda args, kwargs, result, state: {
            "ml.tree_predict_rows": sum(_rows(X) for X in args[1])
        },
    ),
    TracePoint(
        "repro.ml.gp", "GaussianProcessRegressor.fit", "ml.gp_fit",
        before=_GP_FIT_BEFORE, after=_GP_FIT_AFTER,
    ),
    TracePoint(
        "repro.ml.gp", "fit_gps_stacked", "ml.gp_fit",
        before=_GP_STACK_BEFORE, after=_GP_STACK_AFTER,
    ),
    TracePoint("repro.ml.gp", "GaussianProcessRegressor.predict", "ml.gp_predict"),
    # analysis: the runner cache and its payload codec
    TracePoint("repro.analysis.runner", "result_to_payload", "analysis.encode"),
    TracePoint("repro.analysis.runner", "result_from_payload", "analysis.decode"),
    TracePoint("repro.analysis.runner", "ExperimentRunner.run", "analysis.runner"),
    # parallel: dispatch, journal, queue, lock-step driver
    TracePoint("repro.parallel.engine", "run_cells", "parallel.dispatch"),
    TracePoint("repro.parallel.checkpoint", "GridCheckpoint.record", "parallel.journal"),
    TracePoint(
        "repro.parallel.queue", "WorkQueue.claim", "parallel.queue_claim",
        after=lambda args, kwargs, lease, state: {"parallel.queue_claims": lease is not None},
        tag=lambda lease: None if lease is None else "lease",
    ),
    TracePoint("repro.parallel.queue", "WorkQueue.complete", "parallel.queue_complete", spool=True),
    TracePoint("repro.parallel.queue", "WorkQueue.fail", "parallel.queue_complete", spool=True),
    TracePoint("repro.parallel.queue", "WorkQueue.heartbeat", "parallel.queue_heartbeat"),
    TracePoint("repro.parallel.queue", "queue_worker_loop", "parallel.queue_worker", spool=True),
    TracePoint(
        "repro.parallel.vector", "VectorizedGridDriver.run", "parallel.vector_round",
        after=_vector_counters,
    ),
)


def _wrap(recorder: SpanRecorder, point: TracePoint, fn: Callable) -> Callable:
    name, before, after, tag, spool = (
        point.span, point.before, point.after, point.tag, point.spool,
    )

    def finish(frame, start, args, kwargs, result, state) -> None:
        end = perf_counter()
        recorder.leave(frame, name, start, end, tag(result) if tag else None)
        if after is not None:
            recorder.count(after(args, kwargs, result, state))
        if spool and recorder.forked:
            recorder.spool()

    if inspect.isgeneratorfunction(fn):
        # One span per resumption: only time spent inside the generator
        # belongs to it, not the consumer's work between items.
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            state = before(args, kwargs) if before else None
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = recorder.enter()
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        finish(frame, start, args, kwargs, None, state)
                        return
                    except BaseException:
                        recorder.leave(frame, name, start, perf_counter())
                        raise
                    recorder.leave(frame, name, start, perf_counter())
                    yield item
            finally:
                inner.close()

        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = before(args, kwargs) if before else None
        frame = recorder.enter()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.leave(frame, name, start, perf_counter())
            raise
        finish(frame, start, args, kwargs, result, state)
        return result

    return traced


#: One replaced binding: ``(owner, attribute, original)``.
Patch = tuple[object, str, object]


def install(recorder: SpanRecorder, points=TRACE_POINTS) -> list[Patch]:
    """Patch a timing wrapper over every trace point; the patches made."""
    patches: list[Patch] = []

    def patch(owner: object, attribute: str, original: object, wrapper: Callable) -> None:
        patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    loaded = [importlib.import_module(point.module) for point in points]
    repro_modules = [
        module for key, module in list(sys.modules.items())
        if key == "repro" or key.startswith("repro.")
    ]
    for point, module in zip(points, loaded):
        owner_name, _, attribute = point.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attribute]
            if not inspect.isfunction(original):
                raise TypeError(f"{point.module}.{point.qualname} is not a plain method")
            patch(owner, attribute, original, _wrap(recorder, point, original))
            continue
        original = getattr(module, attribute)
        wrapper = _wrap(recorder, point, original)
        for other in repro_modules:
            for key, value in list(vars(other).items()):
                if value is original:
                    patch(other, key, original, wrapper)
    return patches


def uninstall(patches: list[Patch]) -> None:
    """Restore every original :func:`install` replaced."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)
    patches.clear()


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[tuple]) -> tuple[dict[tuple, float], list[str]]:
    """Each span's self time (duration minus its children's) and any
    nesting violations (a child outside its parent, negative self)."""
    by_key = {(s[0], s[2]): s for s in spans}
    child_total: dict[tuple, float] = defaultdict(float)
    problems = []
    for span in spans:
        if span[3] is None:
            continue
        parent = by_key.get((span[0], span[3]))
        if parent is None:
            continue
        if span[5] < parent[5] or span[6] > parent[6]:
            problems.append(f"{span[4]} span lies outside its parent {parent[4]}")
        child_total[(span[0], span[3])] += span[6] - span[5]
    selfs = {}
    for span in spans:
        key = (span[0], span[2])
        value = (span[6] - span[5]) - child_total.get(key, 0.0)
        if value < -1e-9:
            problems.append(f"{span[4]} span has negative self time {value}")
        selfs[key] = value
    return selfs, problems


def queue_idle_s(spans: list[tuple]) -> float:
    """Pull-worker time outside a lease: each worker loop's span minus the
    stretches from a successful claim to the end of that cell."""
    idle = 0.0
    by_thread: dict[tuple, list[tuple]] = defaultdict(list)
    for span in spans:
        by_thread[(span[0], span[1])].append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s[5])
        loops = [s for s in thread_spans if s[4] == "parallel.queue_worker"]
        if not loops:
            continue
        busy = 0.0
        claimed_at = None
        for span in thread_spans:
            if span[4] == "parallel.queue_claim" and span[7] == "lease":
                claimed_at = span[5]
            elif span[4] == "parallel.queue_complete" and claimed_at is not None:
                busy += span[6] - claimed_at
                claimed_at = None
        idle += sum(s[6] - s[5] for s in loops) - busy
    return idle


def layer_table(
    spans: list[tuple], counts: Counter, window: tuple[float, float], root_pid: int
) -> dict:
    """Per-span-name self time and calls, plus coverage of ``window``.

    Coverage counts the root process's main thread only: top-level spans
    inside ``window`` divided by its length.  Worker processes and
    helper threads run beside it, so their time is reported per layer
    but cannot cover the coordinator's wall clock.
    """
    selfs, problems = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        self_s[span[4]] += selfs[(span[0], span[2])]
        calls[span[4]] += 1
    main = threading.main_thread().ident
    start, end = window
    covered = sum(
        s[6] - s[5]
        for s in spans
        if s[0] == root_pid and s[1] == main and s[3] is None
        and s[5] >= start and s[6] <= end
    )
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "counts": dict(counts),
        "covered_s": covered,
        "wall_s": end - start,
        "problems": problems,
    }
