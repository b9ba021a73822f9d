"""Performance benchmark: parallel engine + surrogate hot path.

Writes ``BENCH_perf.json`` at the repo root with

* grid wall-clock for serial vs parallel execution of a
  workloads x repeats Augmented-BO grid (plus the bit-identity check on
  the resulting cache files) and the engine's clamped worker count,
* per-step surrogate scoring time at 15 measurements for the
  full-refit configuration vs the warm-start ``refit_fraction`` path,
  including the per-step build/fit/query/predict breakdown (each a
  timed public call), the full-refit fit time of the level-synchronous
  builder, the retired per-node grower's last measured numbers
  carried forward as ``classic_history``, and the dense builder vs the
  factored destination x source growth on a 36-measurement
  ``multicloud`` pair set (``factored_fit_s``, ``factored_fit_speedup``,
  bit-identity asserted), and
* full-search wall-clock for batched (``batch_size=4``) vs sequential
  suggestions on the tree and GP paths (the ``batch`` section), and
* suggest-cycle latency across catalog sizes — the paper's 18 types,
  ``aws-large`` (210) and ``multicloud`` (390) — comparing the
  factored query rows against a dense ``repeat``/``tile`` assembly, plus a
  budgeted end-to-end Hybrid-BO search on ``multicloud`` (the
  ``catalog`` section), and
* grid wall-clock for the lock-step cross-search ``--executor vector``
  driver vs the serial loop on a stopping-rule Augmented-BO grid, with
  the result bit-identity check (the ``vector`` section), and
* ``multicloud`` trace synthesis time for the row-wise array pass vs the
  cell-by-cell test reference, their ratio and the bit-identity check
  (the ``trace`` section), and
* fresh-process start-up — seconds from spawn to exit and peak RSS of
  ``import repro.cli`` plus one optimiser build — for AugmentedBO (which
  must leave scipy unloaded) vs NaiveBO (which loads it), and their RSS
  ratio (the ``startup`` section).

Every section records the ``cpu_count`` it ran under and whether its
parallelism-dependent numbers were ``clamped`` by the machine, so the
regression gate can judge (or skip) each in context.

Before the first write of a session the committed ``BENCH_perf.json``
is preserved as ``BENCH_perf.prev.json`` and each section prints a
previous-vs-current delta table, so regressions are visible in CI logs.
A later session in the same checkout (the file no longer matches git
``HEAD``) keeps that baseline instead of snapshotting its predecessor's
fresh numbers.

The grid size is environment-tunable so CI can run a tiny smoke grid::

    ARROW_PERF_WORKLOADS=2 ARROW_PERF_REPEATS=2 pytest benchmarks/test_perf_engine.py -s

Speedup assertions are gated on the host actually having cores: on a
single-core container the parallel run cannot beat serial — the engine
clamps the pool to one worker and the recorded speedup is ~1.0 — so the
2x speedup is only enforced when ``os.cpu_count() >= 4``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.analysis.runner import ExperimentRunner, RunGrid
from repro.analysis.experiments import all_workload_ids
from repro.core.augmented_bo import AugmentedBO, PairwiseTreeScorer
from repro.core.naive_bo import GPScorer, NaiveBO
from repro.core.objectives import Objective
from repro.core.stopping import PredictionDeltaThreshold
from repro.ml.gp import GaussianProcessRegressor, fit_gps_stacked
from repro.ml.kernels import kernel_by_name
from repro.ml.tree_builder import build_extra_trees
from repro.parallel import plan_workers, run_cells
from repro.trace.generate import canonical_trace, default_trace

from conftest import REPO_ROOT, show

BENCH_PATH = REPO_ROOT / "BENCH_perf.json"
BENCH_PREV_PATH = REPO_ROOT / "BENCH_perf.prev.json"

N_WORKLOADS = int(os.environ.get("ARROW_PERF_WORKLOADS", "10"))
N_REPEATS = int(os.environ.get("ARROW_PERF_REPEATS", "8"))
N_WORKERS = int(os.environ.get("ARROW_PERF_WORKERS", "4"))
N_GP_WORKLOADS = int(os.environ.get("ARROW_PERF_GP_WORKLOADS", "2"))
N_GP_REPEATS = int(os.environ.get("ARROW_PERF_GP_REPEATS", "2"))
N_BATCH_ROUNDS = int(os.environ.get("ARROW_PERF_BATCH_ROUNDS", "3"))
N_CATALOG_ROUNDS = int(os.environ.get("ARROW_PERF_CATALOG_ROUNDS", "10"))
CATALOG_E2E_BUDGET = int(os.environ.get("ARROW_PERF_CATALOG_BUDGET", "40"))
N_VECTOR_SEARCHES = int(os.environ.get("ARROW_PERF_VECTOR_SEARCHES", "16"))
N_VECTOR_ROUNDS = int(os.environ.get("ARROW_PERF_VECTOR_ROUNDS", "3"))

#: Batch size benchmarked against the sequential loop.
BATCH_Q = 4

#: Warm-start fraction used by both benchmark sections.
FAST_REFIT = 0.25

#: Measured-history size at which the surrogate hot path is profiled.
AT_MEASUREMENTS = 15

#: Measured-history size of the multicloud pair set on which the dense
#: and the factored Extra-Trees growth are compared (36 x 36 pairs).
FACTORED_AT_MEASUREMENTS = 36

# The session's baseline, taken once before its first overwrite: the
# committed BENCH_perf.json (preserved as BENCH_perf.prev.json); None
# when there was nothing to preserve.
_previous_bench: dict | None = None
_previous_recorded = False


def _load_bench(path: Path) -> dict:
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return {}


def _committed_bytes(path: Path) -> bytes | None:
    """``path`` as committed at git ``HEAD``; None where git cannot say
    (no git, not a checkout, or the file is not committed)."""
    try:
        completed = subprocess.run(
            ["git", "show", f"HEAD:./{path.name}"],
            cwd=path.parent, capture_output=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout if completed.returncode == 0 else None


def _preserve_baseline(bench_path: Path, prev_path: Path) -> dict | None:
    """Copy ``bench_path`` to ``prev_path`` while it is the committed file.

    Once a session has written fresh numbers, ``bench_path`` differs
    from ``HEAD``; a later session (say, one re-recording a section
    with ``-k``) must not make those numbers the baseline the
    regression gate compares against, so it leaves ``prev_path`` alone.
    Where git cannot tell, the file is copied as it is.

    Returns:
        The baseline the session's delta tables compare against: the
        copied numbers, else whatever ``prev_path`` already holds; None
        when there is neither.
    """
    existing = _load_bench(bench_path)
    if not existing:
        return _load_bench(prev_path) or None
    committed = _committed_bytes(bench_path)
    data = bench_path.read_bytes()
    if committed is not None and committed != data:
        return _load_bench(prev_path) or None
    prev_path.write_bytes(data)
    return existing


def _snapshot_previous() -> None:
    global _previous_bench, _previous_recorded
    if _previous_recorded:
        return
    _previous_recorded = True
    _previous_bench = _preserve_baseline(BENCH_PATH, BENCH_PREV_PATH)


def _merge_bench(section: str, payload: dict) -> None:
    _snapshot_previous()
    # Every section carries the machine context it was measured under:
    # the core count, and whether the machine limited ("clamped") the
    # section's parallelism-dependent numbers.  Sections with a real
    # clamp criterion set ``clamped`` themselves; the default False
    # marks purely single-threaded sections, which no machine can clamp.
    payload.setdefault("cpu_count", os.cpu_count())
    payload.setdefault("clamped", False)
    existing = _load_bench(BENCH_PATH)
    existing["generated_by"] = "benchmarks/test_perf_engine.py"
    existing["cpu_count"] = os.cpu_count()
    existing[section] = payload
    BENCH_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def _show_delta(section: str, payload: dict) -> None:
    """Print previous-vs-current numbers for one bench section."""
    previous = (_previous_bench or {}).get(section, {})
    rows = []
    for key, current in payload.items():
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            continue
        before = previous.get(key)
        if isinstance(before, (int, float)) and not isinstance(before, bool):
            delta = f"{current / before:.2f}x" if before else "-"
            rows.append((key, f"{before:g}", f"{current:g} ({delta})"))
        else:
            rows.append((key, "-", f"{current:g}"))
    show(f"{section}: previous vs current (BENCH_perf.prev.json)", rows)


def test_second_session_keeps_the_committed_baseline(tmp_path, monkeypatch):
    """Two sessions in one checkout: the baseline stays the committed file."""
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    bench, prev = tmp_path / "BENCH_perf.json", tmp_path / "BENCH_perf.prev.json"
    committed = json.dumps({"gp": {"fit_ms": 1.0}}, indent=2) + "\n"
    bench.write_text(committed)
    subprocess.run([*git, "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run([*git, "add", bench.name], cwd=tmp_path, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "bench"], cwd=tmp_path, check=True)

    for fresh in (2.0, 3.0):
        baseline = _preserve_baseline(bench, prev)
        assert prev.read_text() == committed
        assert baseline == json.loads(committed)
        bench.write_text(json.dumps({"gp": {"fit_ms": fresh}}, indent=2) + "\n")

    # Without git the session snapshots whatever it finds, as before.
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(subprocess, "run", no_git)
    _preserve_baseline(bench, prev)
    assert prev.read_text() == bench.read_text()


def _grid_factory(environment, objective, seed):
    return AugmentedBO(
        environment, objective=objective, seed=seed, refit_fraction=FAST_REFIT
    )


def test_parallel_grid_speedup(trace, tmp_path):
    workload_ids = tuple(all_workload_ids()[:N_WORKLOADS])
    grid = RunGrid(
        key="perf-engine",
        factory=_grid_factory,
        objective=Objective.TIME,
        workload_ids=workload_ids,
        repeats=N_REPEATS,
    )

    t0 = perf_counter()
    serial = ExperimentRunner(trace, cache_dir=tmp_path / "serial").run(
        grid, workers=1
    )
    serial_s = perf_counter() - t0

    t0 = perf_counter()
    parallel = ExperimentRunner(trace, cache_dir=tmp_path / "parallel").run(
        grid, workers=N_WORKERS
    )
    parallel_s = perf_counter() - t0

    serial_bytes = (tmp_path / "serial" / "perf-engine__time.json").read_bytes()
    parallel_bytes = (tmp_path / "parallel" / "perf-engine__time.json").read_bytes()
    bit_identical = serial_bytes == parallel_bytes
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    workers_effective = plan_workers(N_WORKERS, len(workload_ids) * N_REPEATS)
    clamped = workers_effective == 1

    payload = {
        "workloads": len(workload_ids),
        "repeats": N_REPEATS,
        "workers": N_WORKERS,
        "workers_effective": workers_effective,
        "clamped": clamped,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        # With one effective worker the "speedup" is pure timer noise
        # plus dispatch overhead; recording it would invite nonsense
        # deltas, so a clamped run records no speedup at all.
        "speedup": None if clamped else round(speedup, 3),
        "bit_identical": bit_identical,
    }
    _merge_bench("grid", payload)
    show(
        f"parallel engine ({len(workload_ids)}x{N_REPEATS} grid, "
        f"{N_WORKERS} workers -> {workers_effective} effective, "
        f"{os.cpu_count()} cores)",
        [
            ("serial wall-clock (s)", "-", f"{serial_s:.1f}"),
            ("parallel wall-clock (s)", "-", f"{parallel_s:.1f}"),
            (
                "speedup",
                ">= 2x (4+ cores)",
                "n/a (clamped)" if clamped else f"{speedup:.2f}x",
            ),
            ("caches bit-identical", "yes", "yes" if bit_identical else "NO"),
        ],
    )
    _show_delta("grid", payload)

    assert serial == parallel
    assert bit_identical
    # A clamped run (one effective worker) measures timer noise and a
    # little dispatch overhead, not parallelism: the section is marked
    # ``clamped`` and every speedup assertion is skipped — both here and
    # in scripts/check_perf_regression.py — instead of recording pool
    # overhead as a regression.
    if not clamped and (os.cpu_count() or 1) >= 4 and N_WORKERS >= 4:
        assert speedup >= 2.0


def _dense_query_rows(design: np.ndarray, pending) -> np.ndarray:
    """The reference query assembly: all ``u * m`` dense rows built with
    ``repeat``/``tile`` and transformed by the step's scaler."""
    index, metrics = pending.index, pending.metrics
    candidates = np.asarray(pending.unmeasured, dtype=np.int64)
    u, m, d = candidates.size, index.size, design.shape[1]
    rows = np.empty((u * m, pending.X_scaled.shape[1]))
    rows[:, :d] = np.repeat(design[candidates], m, axis=0)
    rows[:, d : 2 * d] = np.tile(design[index], (u, 1))
    rows[:, 2 * d :] = np.tile(metrics, (u, 1))
    return pending.scaler.transform(rows)


def _timed_step(
    scorer: PairwiseTreeScorer, measured, values, measurements, unmeasured,
    dense_design: np.ndarray | None = None,
) -> tuple[dict, np.ndarray]:
    """One scoring step as its public calls, each timed, and its scores.

    With ``dense_design`` the query rows come from
    :func:`_dense_query_rows` instead of the scorer's factored
    ``query_rows``.
    """
    t0 = perf_counter()
    pending = scorer.score_begin(measured, values, measurements, unmeasured)
    t1 = perf_counter()
    pending.model.fit(pending.X_scaled, pending.y_train, pairs=pending.pairs)
    t2 = perf_counter()
    if dense_design is None:
        scorer.query_rows(pending)
    else:
        pending.scaled_query = _dense_query_rows(dense_design, pending)
    t3 = perf_counter()
    scores = scorer.score_commit(pending).scores
    t4 = perf_counter()
    timings = {
        "n_measured": len(measured),
        "n_candidates": len(unmeasured),
        "build_s": t1 - t0,
        "fit_s": t2 - t1,
        "query_s": t3 - t2,
        "predict_s": t4 - t3,
    }
    return timings, scores


def _classic_history() -> dict:
    """The retired per-node grower's last measured numbers.

    They are not re-measured: each run carries the previous
    ``surrogate`` section's ``classic_history`` forward (first taken
    from the section's old ``classic_builder_fit_s`` and
    ``builder_reduction`` keys), so the comparison stays on record.
    """
    _snapshot_previous()
    previous = (_previous_bench or {}).get("surrogate", {})
    return dict(previous.get("classic_history") or {
        key: previous[key]
        for key in ("classic_builder_fit_s", "builder_reduction")
        if key in previous
    })


def _factored_fit_timings(rounds: int = 5) -> tuple[float, float]:
    """Fastest dense and factored growth of the Arrow surrogate's 24-tree
    ensemble on a 36-measurement ``multicloud`` pair set.

    Both builds start from the same seed and must yield the same trees
    and leave the generator in the same state.
    """
    environment = canonical_trace("multicloud").environment(all_workload_ids()[0])
    environment.reset()
    catalog = list(environment.catalog)
    measured = list(range(0, len(catalog), len(catalog) // FACTORED_AT_MEASUREMENTS))
    measured = measured[:FACTORED_AT_MEASUREMENTS]
    measurements = [environment.measure(catalog[index]) for index in measured]
    values = [Objective.TIME.value_of(m) for m in measurements]
    unmeasured = sorted(set(range(len(catalog))) - set(measured))
    scorer = PairwiseTreeScorer(AugmentedBO(environment, seed=0).design_matrix, seed=0)
    pending = scorer.score_begin(measured, values, measurements, unmeasured)
    model = pending.model

    def grow(pairs):
        rng = np.random.default_rng(7)
        t0 = perf_counter()
        packed = build_extra_trees(
            pending.X_scaled, pending.y_train, model.n_estimators,
            min_samples_split=model.min_samples_split, rng=rng, pairs=pairs,
        )
        return perf_counter() - t0, packed, rng.bit_generator.state

    dense_s, factored_s = [], []
    for _ in range(rounds):
        seconds, dense, dense_state = grow(None)
        dense_s.append(seconds)
        seconds, factored, factored_state = grow(pending.pairs)
        factored_s.append(seconds)
        for name in ("feature", "threshold", "left", "right", "value", "roots"):
            np.testing.assert_array_equal(getattr(factored, name), getattr(dense, name))
        assert factored_state == dense_state
    return min(dense_s), min(factored_s)


def test_surrogate_scoring_reduction(trace):
    environment = trace.environment(all_workload_ids()[0])
    environment.reset()
    catalog = list(environment.catalog)
    measured = list(range(AT_MEASUREMENTS))
    measurements = [environment.measure(catalog[index]) for index in measured]
    values = [Objective.TIME.value_of(m) for m in measurements]
    unmeasured = list(range(AT_MEASUREMENTS, len(catalog)))

    probe = AugmentedBO(environment, seed=0)
    design = probe.design_matrix

    def best_score_time(scorer: PairwiseTreeScorer, rounds: int = 5) -> float:
        """Fastest of ``rounds`` timed calls — the min is the standard
        noise-robust statistic on busy shared runners."""
        scorer.score(measured, values, measurements, unmeasured)  # warm-up
        timings = []
        for _ in range(rounds):
            t0 = perf_counter()
            scorer.score(measured, values, measurements, unmeasured)
            timings.append(perf_counter() - t0)
        return min(timings)

    def best_step(scorer: PairwiseTreeScorer, rounds: int = 5) -> tuple[float, dict]:
        """Fastest ensemble fit over ``rounds`` timed steps, and the last
        step's breakdown."""
        scorer.score(measured, values, measurements, unmeasured)  # warm-up
        steps = [
            _timed_step(scorer, measured, values, measurements, unmeasured)[0]
            for _ in range(rounds)
        ]
        return min(step["fit_s"] for step in steps), steps[-1]

    full = PairwiseTreeScorer(design, seed=0)
    fast = PairwiseTreeScorer(design, seed=0, refit_fraction=FAST_REFIT)
    full_s = best_score_time(full)
    fast_s = best_score_time(fast)
    reduction = full_s / fast_s if fast_s > 0 else float("inf")
    vector_fit_s, full_step = best_step(PairwiseTreeScorer(design, seed=0))
    _, warm_step = best_step(fast)
    history = _classic_history()
    dense_fit_s, factored_fit_s = _factored_fit_timings()
    factored_speedup = dense_fit_s / factored_fit_s

    payload = {
        "n_measured": AT_MEASUREMENTS,
        "n_candidates": len(unmeasured),
        "refit_fraction": FAST_REFIT,
        "full_refit_score_s": round(full_s, 6),
        "warm_refit_score_s": round(fast_s, 6),
        "reduction": round(reduction, 3),
        "vectorized_builder_fit_s": round(vector_fit_s, 6),
        "full_step_timings": full_step,
        "warm_step_timings": warm_step,
        "classic_history": history,
        "factored_at_measurements": FACTORED_AT_MEASUREMENTS,
        "dense_fit_s": round(dense_fit_s, 6),
        "factored_fit_s": round(factored_fit_s, 6),
        "factored_fit_speedup": round(factored_speedup, 3),
    }
    _merge_bench("surrogate", payload)
    show(
        f"surrogate scoring at {AT_MEASUREMENTS} measurements",
        [
            ("full-refit score (ms)", "-", f"{full_s * 1e3:.1f}"),
            ("warm-refit score (ms)", "-", f"{fast_s * 1e3:.1f}"),
            ("warm-start reduction", ">= 3x", f"{reduction:.2f}x"),
            ("vectorized-builder fit (ms)", "-", f"{vector_fit_s * 1e3:.1f}"),
            (
                "classic-builder fit (ms)",
                "-",
                f"{history.get('classic_builder_fit_s', float('nan')) * 1e3:.1f} (historical)",
            ),
            (
                f"dense fit @{FACTORED_AT_MEASUREMENTS} multicloud (ms)",
                "-",
                f"{dense_fit_s * 1e3:.1f}",
            ),
            (
                f"factored fit @{FACTORED_AT_MEASUREMENTS} multicloud (ms)",
                "-",
                f"{factored_fit_s * 1e3:.1f}",
            ),
            ("factored-fit speedup", ">= 1.9x", f"{factored_speedup:.2f}x"),
        ],
    )
    _show_delta("surrogate", payload)
    assert reduction >= 3.0


#: The paper's Figure 7 kernel sweep: Naive BO under each of the four.
FIG7_KERNELS = ("rbf", "matern12", "matern32", "matern52")


def _numeric_history() -> dict:
    """The retired finite-difference fit's last measured numbers.

    They are not re-measured: each run carries the previous ``gp``
    section's ``numeric_history`` forward, so the analytic-vs-numeric
    comparison stays on record.
    """
    _snapshot_previous()
    return dict((_previous_bench or {}).get("gp", {}).get("numeric_history", {}))


def _naive_grid(kernel_name: str, workload_ids) -> RunGrid:
    def factory(environment, objective, seed):
        return NaiveBO(
            environment,
            objective=objective,
            seed=seed,
            kernel=kernel_by_name(kernel_name),
        )

    return RunGrid(
        key=f"perf-gp-{kernel_name}",
        factory=factory,
        objective=Objective.TIME,
        workload_ids=workload_ids,
        repeats=N_GP_REPEATS,
    )


#: Fresh GPs per hyperparameter-fit timing (the best counts) after
#: one warm-up round.
N_GP_FIT_ROUNDS = 5

#: Measured rows of every workload in the lock-step group-fit timing:
#: the size of a paper-grid NaiveBO group's GPs a few steps in.
GROUP_AT_MEASUREMENTS = 5


def _scaled_measurements(
    trace, workload_id: str, n_measured: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scaled design, first ``n_measured`` design rows, their times)."""
    environment = trace.environment(workload_id)
    environment.reset()
    catalog = list(environment.catalog)
    values = np.array(
        [
            Objective.TIME.value_of(environment.measure(catalog[index]))
            for index in range(n_measured)
        ]
    )
    design = NaiveBO(environment, seed=0).design_matrix
    scale = design.std(axis=0)
    X = (design - design.mean(axis=0)) / np.where(scale > 0, scale, 1.0)
    return X, X[:n_measured], values


def _best_of(rounds: int, make, run) -> tuple[float, object]:
    """(fastest of ``rounds`` timed ``run(make())`` calls after a warm-up,
    the last ``make()``)."""
    timings = []
    for _ in range(rounds + 1):  # the first round is the warm-up
        subject = make()
        t0 = perf_counter()
        run(subject)
        timings.append(perf_counter() - t0)
    return min(timings[1:]), subject


def _gp_timings() -> dict:
    """The GP hot path's timings and counts; see :func:`test_gp_hot_path`."""
    trace = default_trace()
    design, X_measured, values = _scaled_measurements(
        trace, all_workload_ids()[0], AT_MEASUREMENTS
    )
    measured = list(range(AT_MEASUREMENTS))
    unmeasured = list(range(AT_MEASUREMENTS, len(design)))

    # -- hyperparameter-fit micro-benchmarks: fresh GPs per round so the
    # warm start cannot flatten the comparison.  The group is one
    # lock-step fit_gps_stacked call over every workload, with NaiveBO's
    # scorer GP (one start per fit).
    fit_s, gp = _best_of(
        N_GP_FIT_ROUNDS,
        lambda: GaussianProcessRegressor(kernel_by_name("matern52"), seed=0),
        lambda gp: gp.fit(X_measured, values),
    )
    Xs, ys = zip(
        *(
            _scaled_measurements(trace, workload_id, GROUP_AT_MEASUREMENTS)[1:]
            for workload_id in all_workload_ids()
        )
    )
    group_s, group = _best_of(
        N_GP_FIT_ROUNDS,
        lambda: [
            GaussianProcessRegressor(kernel_by_name("matern52"), n_restarts=0, seed=i)
            for i in range(len(Xs))
        ],
        lambda gps: fit_gps_stacked(gps, list(Xs), list(ys)),
    )

    # -- per-step scorer time (fit + incremental cross-covariance predict).
    scorer = GPScorer(design, seed=0)
    score_s, _ = _best_of(
        N_GP_FIT_ROUNDS,
        lambda: scorer,
        lambda scorer: scorer.score(measured, values, None, unmeasured),
    )

    # -- end-to-end Figure 7 kernel-fragility grid.
    workload_ids = tuple(all_workload_ids()[:N_GP_WORKLOADS])
    t0 = perf_counter()
    for kernel_name in FIG7_KERNELS:
        ExperimentRunner(trace, cache_dir=None).run(_naive_grid(kernel_name, workload_ids))
    grid_s = perf_counter() - t0
    return {
        "fit_s": fit_s,
        "lml_evals": gp.n_lml_evals,
        "kernel_builds": gp.n_kernel_builds,
        "group_size": len(group),
        "group_fit_s": group_s,
        "group_lml_evals": sum(g.n_lml_evals for g in group),
        "score_s": score_s,
        "grid_workloads": len(workload_ids),
        "grid_s": grid_s,
    }


def _pinned_gp_timings() -> dict:
    """:func:`_gp_timings` from a fresh interpreter with one BLAS thread.

    perfbench starts its processes that way; under the default OpenBLAS
    pool a 2-vCPU VM read the same single fit at 8.9 ms and 5.3 ms, and
    the same score at 7.9 ms and 0.5 ms, back to back.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(Path(__file__).parent)]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    code = (
        "import json, test_perf_engine as bench; "
        "print(json.dumps(bench._gp_timings()))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=900,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_gp_hot_path():
    timings = _pinned_gp_timings()
    fit_s, lml_analytic, builds_analytic = (
        timings["fit_s"], timings["lml_evals"], timings["kernel_builds"]
    )
    score_s, grid_s = timings["score_s"], timings["grid_s"]

    history = _numeric_history()
    payload = {
        "n_measured": AT_MEASUREMENTS,
        "fit_s": round(fit_s, 6),
        "lml_evals_analytic": lml_analytic,
        "kernel_builds_analytic": builds_analytic,
        "fit_blas_threads": 1,
        "group_size": timings["group_size"],
        "group_n_measured": GROUP_AT_MEASUREMENTS,
        "group_fit_s": round(timings["group_fit_s"], 6),
        "group_lml_evals": timings["group_lml_evals"],
        "score_s": round(score_s, 6),
        "grid_kernels": len(FIG7_KERNELS),
        "grid_workloads": timings["grid_workloads"],
        "grid_repeats": N_GP_REPEATS,
        "grid_analytic_s": round(grid_s, 3),
        "numeric_history": history,
    }
    builds_numeric = history.get("kernel_builds_numeric")
    if builds_numeric is not None:
        # Kernel-build counts are deterministic, so the historical
        # finite-difference count still compares exactly.
        payload["builds_reduction"] = round(builds_numeric / builds_analytic, 3)
    _merge_bench("gp", payload)
    show(
        f"GP hot path at {AT_MEASUREMENTS} measurements, one BLAS thread "
        f"(Fig. 7 grid: {len(FIG7_KERNELS)} kernels x {timings['grid_workloads']} "
        f"workloads x {N_GP_REPEATS} repeats)",
        [
            ("analytic fit (ms)", "-", f"{fit_s * 1e3:.1f}"),
            (
                f"lock-step group fit, {timings['group_size']} GPs x "
                f"{GROUP_AT_MEASUREMENTS} rows (ms)",
                "-",
                f"{timings['group_fit_s'] * 1e3:.1f}",
            ),
            ("kernel builds / fit", ">= 3x fewer", f"{builds_analytic} vs {builds_numeric} (historical)"),
            ("analytic score (ms)", "-", f"{score_s * 1e3:.1f}"),
            ("grid analytic (s)", "-", f"{grid_s:.1f}"),
        ],
    )
    _show_delta("gp", payload)
    if builds_numeric is not None:
        assert payload["builds_reduction"] >= 3.0


def test_batch_suggestions(trace):
    """q-point suggestions vs the sequential loop, at catalog scale.

    A full search over the 18-VM catalog fits the surrogate once per
    acquisition round; ``batch_size=q`` measures q suggestions per round,
    so the fit count — the dominant per-step cost against microsecond
    trace measurements — drops by ~q x.  A round's measurements run
    inline, so the reduction below is pure suggest-cycle savings.
    """
    workload_id = all_workload_ids()[0]

    def best_search(optimizer_cls, q: int) -> tuple[float, int, int]:
        """(fastest wall-clock, surrogate fits, suggestions) of a full search."""
        timings, fits, steps = [], 0, 0
        for _ in range(N_BATCH_ROUNDS + 1):  # first round is the warm-up
            environment = trace.environment(workload_id)
            optimizer = optimizer_cls(environment, seed=0, batch_size=q)
            t0 = perf_counter()
            result = optimizer.run()
            timings.append(perf_counter() - t0)
            fits = sum(1 for e in result.events if e.kind == "surrogate_fitted")
            steps = len(result.steps)
        return min(timings[1:]), fits, steps

    q1_s, q1_fits, q1_steps = best_search(AugmentedBO, 1)
    q4_s, q4_fits, q4_steps = best_search(AugmentedBO, BATCH_Q)
    gp_q1_s, _, _ = best_search(NaiveBO, 1)
    gp_q4_s, _, _ = best_search(NaiveBO, BATCH_Q)
    reduction = q1_s / q4_s if q4_s > 0 else float("inf")
    gp_reduction = gp_q1_s / gp_q4_s if gp_q4_s > 0 else float("inf")
    clamped = (os.cpu_count() or 1) < 2

    payload = {
        "q": BATCH_Q,
        "suggestions": q1_steps,
        "clamped": clamped,
        "q1_s": round(q1_s, 6),
        "q4_s": round(q4_s, 6),
        "reduction": round(reduction, 3),
        "q1_fits": q1_fits,
        "q4_fits": q4_fits,
        "q1_suggestions_per_s": round(q1_steps / q1_s, 3) if q1_s > 0 else None,
        "q4_suggestions_per_s": round(q4_steps / q4_s, 3) if q4_s > 0 else None,
        "gp_q1_s": round(gp_q1_s, 6),
        "gp_q4_s": round(gp_q4_s, 6),
        "gp_reduction": round(gp_reduction, 3),
    }
    _merge_bench("batch", payload)
    show(
        f"batched suggestions (q={BATCH_Q}, full {q1_steps}-VM searches)",
        [
            ("tree q=1 wall-clock (ms)", "-", f"{q1_s * 1e3:.1f}"),
            (f"tree q={BATCH_Q} wall-clock (ms)", "-", f"{q4_s * 1e3:.1f}"),
            ("tree reduction", ">= 1.8x", f"{reduction:.2f}x"),
            ("surrogate fits", f"{q1_fits} -> ~1/{BATCH_Q}", f"{q4_fits}"),
            ("gp q=1 wall-clock (ms)", "-", f"{gp_q1_s * 1e3:.1f}"),
            (f"gp q={BATCH_Q} wall-clock (ms)", "-", f"{gp_q4_s * 1e3:.1f}"),
            ("gp reduction", "-", f"{gp_reduction:.2f}x"),
        ],
    )
    _show_delta("batch", payload)

    # Both modes exhaust the same catalog; q batching must not change
    # coverage, only the number of acquisition rounds.
    assert q1_steps == q4_steps
    assert q4_fits < q1_fits
    if not clamped:
        assert reduction >= 1.8


#: Catalogs profiled by the candidate-scale section, with the short key
#: prefix each one's metrics use in the ``catalog`` payload.
CATALOG_SIZES = (("aws-2017", "small"), ("aws-large", "large"), ("multicloud", "multi"))


def test_catalog_scaling():
    """Suggest-cycle latency as the candidate axis grows 18 -> 210 -> 390.

    At a fixed measured history the scorer's query phase — assembling
    and scaling one (candidates x sources) row block per score call —
    is the part that grows with the catalog.  The scorer keeps the block
    factored (scaled candidate rows and scaled source rows) instead of
    building it with ``repeat``/``tile`` every call
    (:func:`_dense_query_rows`, the reference); both give bit-identical
    scores, so the comparison below is pure assembly cost.  The
    end-to-end number is a budgeted seeded Hybrid-BO search on the
    390-type ``multicloud`` catalog: large catalogs stay searchable
    under a measurement budget.
    """
    from repro.core.hybrid_bo import HybridBO
    from repro.trace.generate import canonical_trace, default_trace

    workload_id = all_workload_ids()[0]
    payload: dict = {"history": AT_MEASUREMENTS - 3, "rounds": N_CATALOG_ROUNDS}
    history = AT_MEASUREMENTS - 3  # 12: late enough to be in tree phase
    rows = []
    for catalog_name, prefix in CATALOG_SIZES:
        bench_trace = canonical_trace(catalog_name)
        environment = bench_trace.environment(workload_id)
        environment.reset()
        catalog = list(environment.catalog)
        measured = list(range(history))
        measurements = [environment.measure(catalog[i]) for i in measured]
        values = [Objective.TIME.value_of(m) for m in measurements]
        unmeasured = list(range(history, len(catalog)))
        design = AugmentedBO(environment, seed=0).design_matrix

        mode_stats: dict = {}
        for mode in ("incremental", "rebuild"):
            scorer = PairwiseTreeScorer(design, seed=0)
            runs = [
                _timed_step(
                    scorer, measured, values, measurements, unmeasured,
                    dense_design=design if mode == "rebuild" else None,
                )
                for _ in range(N_CATALOG_ROUNDS + 1)
            ]
            timings = [step for step, _ in runs[1:]]
            mode_stats[mode] = (
                min(
                    step["build_s"] + step["fit_s"] + step["query_s"] + step["predict_s"]
                    for step in timings
                ),
                min(step["query_s"] for step in timings),
                runs[0][1],
            )

        suggest_s, query_s, scores = mode_stats["incremental"]
        rebuild_suggest_s, rebuild_query_s, rebuild_scores = mode_stats["rebuild"]
        speedup = rebuild_query_s / query_s if query_s > 0 else float("inf")
        identical = bool(np.array_equal(scores, rebuild_scores))
        payload[f"{prefix}_candidates"] = len(unmeasured)
        payload[f"{prefix}_suggest_s"] = round(suggest_s, 6)
        payload[f"{prefix}_suggest_rebuild_s"] = round(rebuild_suggest_s, 6)
        payload[f"{prefix}_query_s"] = round(query_s, 6)
        payload[f"{prefix}_query_rebuild_s"] = round(rebuild_query_s, 6)
        payload[f"{prefix}_query_speedup"] = round(speedup, 3)
        payload[f"{prefix}_bit_identical"] = identical
        rows.append(
            (
                f"{catalog_name} ({len(unmeasured)} candidates)",
                ">= 2x (200+)" if len(unmeasured) >= 200 else "-",
                f"query {query_s * 1e6:.0f}us vs {rebuild_query_s * 1e6:.0f}us "
                f"({speedup:.2f}x), identical: {'yes' if identical else 'NO'}",
            )
        )

    # End-to-end: a full seeded budgeted search over the largest catalog.
    e2e_trace = canonical_trace("multicloud")
    optimizer = HybridBO(
        e2e_trace.environment(workload_id),
        seed=0,
        max_measurements=CATALOG_E2E_BUDGET,
    )
    t0 = perf_counter()
    result = optimizer.run()
    e2e_s = perf_counter() - t0
    payload["e2e_multicloud_budget"] = CATALOG_E2E_BUDGET
    payload["e2e_multicloud_s"] = round(e2e_s, 3)
    payload["e2e_multicloud_steps"] = len(result.steps)
    rows.append(
        (
            f"multicloud e2e ({CATALOG_E2E_BUDGET}-measurement budget)",
            "completes",
            f"{e2e_s:.2f}s, {len(result.steps)} steps",
        )
    )

    _merge_bench("catalog", payload)
    show(f"catalog scaling at {history} measurements", rows)
    _show_delta("catalog", payload)

    # Correctness first: the fast path must not change a single score.
    assert payload["small_bit_identical"]
    assert payload["large_bit_identical"]
    assert payload["multi_bit_identical"]
    # The perf contract: factored query assembly at 200+ candidates
    # beats the dense repeat/tile assembly by at least 2x.
    assert payload["multi_query_speedup"] >= 2.0
    assert len(result.steps) == CATALOG_E2E_BUDGET


def _vector_factory(environment, objective, seed):
    # The paper's own configuration: full-refit vectorized Extra-Trees
    # with the prediction-delta stopping rule.  The stopping rule is
    # what keeps every search in the small-m, dispatch-bound regime
    # (most stop within ~5-9 measurements) where cross-search stacking
    # pays; fixed-depth searches drift compute-bound and converge to ~1x.
    return AugmentedBO(
        environment,
        objective=objective,
        seed=seed,
        stopping=PredictionDeltaThreshold(),
    )


def test_vectorized_grid_reduction(trace):
    """Lock-step cross-search stepping vs the serial cell loop.

    Both executors run the identical stopping-rule Augmented-BO grid
    through :func:`repro.parallel.run_cells`; the ``vector`` backend
    advances all ``S`` searches together and batches each round's
    ensemble growth (one stacked frontier), candidate prediction (one
    packed traversal across all ensembles) and scoring.  The results
    must be bit-identical — the reduction is pure dispatch amortisation.

    The floor does not need multiple cores (everything is
    single-threaded numpy batching), but a 1-core runner is marked
    ``clamped`` for the regression gate's benefit, matching the other
    machine-dependent sections.
    """
    workload_ids = all_workload_ids()
    cells = [
        (workload_ids[index % len(workload_ids)], index // len(workload_ids))
        for index in range(N_VECTOR_SEARCHES)
    ]

    def best_run(executor: str) -> tuple[float, list]:
        results, best = [], float("inf")
        for _ in range(N_VECTOR_ROUNDS + 1):  # first round is the warm-up
            t0 = perf_counter()
            results = list(
                run_cells(
                    trace=trace,
                    factory=_vector_factory,
                    objective=Objective.TIME,
                    cells=cells,
                    workers=1,
                    executor=executor,
                )
            )
            best = min(best, perf_counter() - t0)
        return best, results

    serial_s, serial_results = best_run("serial")
    vector_s, vector_results = best_run("vector")
    grid_reduction = serial_s / vector_s if vector_s > 0 else float("inf")
    bit_identical = [cell for cell, _ in vector_results] == cells and all(
        serial_result == vector_result
        for (_, serial_result), (_, vector_result) in zip(
            serial_results, vector_results
        )
    )
    clamped = (os.cpu_count() or 1) < 2
    steps = sum(len(result.steps) for _, result in serial_results)

    payload = {
        "searches": N_VECTOR_SEARCHES,
        "rounds": N_VECTOR_ROUNDS,
        "total_measurements": steps,
        "clamped": clamped,
        "serial_s": round(serial_s, 6),
        "vector_s": round(vector_s, 6),
        "grid_reduction": round(grid_reduction, 3),
        "bit_identical": bit_identical,
    }
    _merge_bench("vector", payload)
    show(
        f"vectorized lock-step grid ({N_VECTOR_SEARCHES} stopping-rule "
        f"searches, {steps} total measurements)",
        [
            ("serial wall-clock (ms)", "-", f"{serial_s * 1e3:.1f}"),
            ("vector wall-clock (ms)", "-", f"{vector_s * 1e3:.1f}"),
            ("grid reduction", ">= 2x (S>=8)", f"{grid_reduction:.2f}x"),
            ("results bit-identical", "yes", "yes" if bit_identical else "NO"),
        ],
    )
    _show_delta("vector", payload)

    # Correctness is unconditional: lock-step batching must not change
    # one bit of any search result.
    assert bit_identical
    if N_VECTOR_SEARCHES >= 8 and not clamped:
        assert grid_reduction >= 2.0


#: Timed rounds of each trace synthesis in the ``trace`` section (the
#: fastest round counts).
N_TRACE_ROUNDS = 3


def test_trace_synthesis():
    """Row-wise trace synthesis vs measuring every cell one at a time.

    ``generate_trace`` evaluates the performance model, the metrics, the
    noise and the cost over the whole catalog once per workload.  The
    reference (``tests/trace_reference.py``) builds every (workload, VM)
    cell as its own scalar measurement.  On the 390-type ``multicloud``
    catalog both must give bit-identical times, costs and metrics; the
    section records the fastest round of each and their ratio.
    """
    sys.path.insert(0, str(REPO_ROOT))  # the tests package holds the reference
    from tests.trace_reference import reference_trace

    from repro.cloud.catalog import get_catalog
    from repro.trace.generate import DEFAULT_TRACE_SEED, generate_trace
    from repro.workloads.registry import default_registry

    catalog = get_catalog("multicloud")
    registry = default_registry()

    def fastest(synthesize) -> tuple[float, tuple]:
        best, result = float("inf"), ()
        for _ in range(N_TRACE_ROUNDS):
            t0 = perf_counter()
            result = synthesize()
            best = min(best, perf_counter() - t0)
        return best, result

    array_s, trace = fastest(lambda: generate_trace(DEFAULT_TRACE_SEED, catalog=catalog))
    reference_s, expected = fastest(
        lambda: reference_trace(DEFAULT_TRACE_SEED, registry, catalog)
    )
    identical = all(
        np.array_equal(actual, want)
        for actual, want in zip((trace.times, trace.costs, trace.metrics), expected)
    )
    speedup = reference_s / array_s
    payload = {
        "catalog": catalog.name,
        "cells": len(registry) * len(catalog),
        "rounds": N_TRACE_ROUNDS,
        "synthesis_s": round(array_s, 6),
        "reference_synthesis_s": round(reference_s, 6),
        "synthesis_speedup": round(speedup, 3),
        "bit_identical": identical,
    }
    _merge_bench("trace", payload)
    show(
        f"trace synthesis, {len(registry)} workloads x {len(catalog)} types",
        [
            ("row-wise synthesis (ms)", "-", f"{array_s * 1e3:.1f}"),
            ("cell-by-cell reference (ms)", "-", f"{reference_s * 1e3:.1f}"),
            ("speedup", ">= 10x", f"{speedup:.1f}x"),
            ("bit-identical", "yes", "yes" if identical else "NO"),
        ],
    )
    _show_delta("trace", payload)
    assert identical
    assert speedup >= 10.0


#: Fresh processes per optimiser in the ``startup`` section (medians).
N_STARTUP_ROUNDS = 5

# Peak RSS is read from VmHWM where the kernel reports it: ru_maxrss of
# a child started from a large process (pytest) can report the parent's
# resident size from before the exec.
_STARTUP_CODE = """
import json, resource, sys
import repro.cli
from repro.core.{module} import {cls}
from repro.trace.generate import default_trace
trace = default_trace()
{cls}(trace.environment(next(iter(trace.registry))), seed=0)
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(l.split()[1]) for l in status if l.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "rss_mb": peak_kb / 1024.0,
    "scipy": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
}}))
"""


def _startup_sample(module: str, cls: str) -> tuple[float, float, bool]:
    """One fresh interpreter: (spawn-to-exit seconds, peak RSS MB,
    whether scipy was loaded)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    t0 = perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", _STARTUP_CODE.format(module=module, cls=cls)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    elapsed = perf_counter() - t0
    out = json.loads(completed.stdout.strip().splitlines()[-1])
    return elapsed, out["rss_mb"], out["scipy"]


def test_startup_import_boundary():
    """Start-up cost of a process that builds one optimiser.

    Only a GP loads scipy, so a process that builds an AugmentedBO (the
    paper's method) pays numpy and the package, and a NaiveBO process
    pays scipy on top.  Rounds alternate between the two; medians count.
    """
    samples: dict[str, list[tuple[float, float, bool]]] = {"augmented": [], "naive": []}
    for _ in range(N_STARTUP_ROUNDS):
        samples["augmented"].append(_startup_sample("augmented_bo", "AugmentedBO"))
        samples["naive"].append(_startup_sample("naive_bo", "NaiveBO"))

    def median(name: str, index: int) -> float:
        return statistics.median(sample[index] for sample in samples[name])

    payload = {
        "rounds": N_STARTUP_ROUNDS,
        "augmented_s": round(median("augmented", 0), 4),
        "augmented_rss_mb": round(median("augmented", 1), 1),
        "augmented_loads_scipy": any(s[2] for s in samples["augmented"]),
        "naive_s": round(median("naive", 0), 4),
        "naive_rss_mb": round(median("naive", 1), 1),
        "naive_loads_scipy": all(s[2] for s in samples["naive"]),
    }
    payload["rss_ratio"] = round(payload["naive_rss_mb"] / payload["augmented_rss_mb"], 3)
    _merge_bench("startup", payload)
    show(
        f"fresh-process start-up, median of {N_STARTUP_ROUNDS}",
        [
            ("AugmentedBO build (s)", "-", f"{payload['augmented_s']:.3f}"),
            ("AugmentedBO peak RSS (MB)", "-", f"{payload['augmented_rss_mb']:.1f}"),
            ("NaiveBO build (s)", "-", f"{payload['naive_s']:.3f}"),
            ("NaiveBO peak RSS (MB)", "-", f"{payload['naive_rss_mb']:.1f}"),
            ("RSS ratio NaiveBO / AugmentedBO", ">= 1.4x", f"{payload['rss_ratio']:.2f}x"),
        ],
    )
    _show_delta("startup", payload)
    assert not payload["augmented_loads_scipy"]
    assert payload["naive_loads_scipy"]
    assert payload["rss_ratio"] >= 1.4
