#!/usr/bin/env python3
"""End-to-end benchmark for Arrow searches.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``:
the run starts three fresh benchmark processes one after another, times
each from spawn until its first search is ready (``setup_s`` is their
median), and splits ``--seconds`` of measured passes between them.  Each
pass is bracketed by the calibration kernel of :mod:`calibrate`, and
throughput and step latency are reported in its reference units.
``--trace 1`` runs one process that times an untraced pass and then a
pass with span wrappers installed, and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero if
any output check failed.  Everything the run writes lives under
``.perfbench_work/`` in the repository root and is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("paper-grid", "multicloud-hybrid", "spot-queue-grid")

#: Fresh processes per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Every benchmark process must have ended this long after the run began.
RUN_DEADLINE_S = 170.0

#: One BLAS/OpenMP thread per process.  On a 2-vCPU VM the default
#: OpenBLAS pool turned a 0.06 ms 120x120 matmul into a 16 ms p90, which
#: swamps the program's own time; the program parallelises across
#: processes (queue workers), never through BLAS threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one benchmark process started by the coordinator.
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- child process -----------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import resource

    import workloads

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    if args.trace:
        payload = traced_child(workload, work_dir)
    else:
        workload.setup()
        print(READY, flush=True)
        passes, measured_s = measure_passes(workload, args.child, args.seconds)
        payload = {"passes": passes, "measured_s": measured_s}
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(RESULT + json.dumps(payload), flush=True)
    return 0


def pass_record(workload, result) -> dict:
    """What the coordinator needs from one pass."""
    import workloads

    return {
        "wall_s": result.wall_s,
        "searches": result.searches,
        "step_s": result.step_s,
        "cells_attempted": result.cells_attempted,
        "cells_failed": result.cells_failed,
        "errors": result.errors + workload.check(result),
        "labels": workloads.label_records(workload.trace, result.results),
    }


def measure_passes(workload, child: int, budget_s: float) -> tuple[list[dict], float]:
    """Run passes for about ``budget_s`` seconds, and at least the
    workload's ``min_passes``; the pass records and the seconds they
    took.  Process ``c`` starts at pass ``2c``."""
    import calibrate

    passes = []
    spent = 0.0
    index = 2 * child
    while True:
        start = perf_counter()
        before = calibrate.kernel_seconds()
        result = workload.run_pass(index)
        record = pass_record(workload, result)
        record["kernel_s"] = (before + calibrate.kernel_seconds()) / 2.0
        passes.append(record)
        took = perf_counter() - start
        spent += took
        index += 1
        if len(passes) >= workload.min_passes and spent + took > budget_s:
            return passes, spent


def traced_child(workload, work_dir: Path) -> dict:
    """Warm-up, untraced and traced runs of one pass; the per-layer table."""
    import tracing
    import workloads

    recorder = tracing.SpanRecorder(spool_dir=work_dir / "spans")
    patches = tracing.install(recorder)
    workload.setup()
    tracing.uninstall(patches)
    setup_table = tracing.layer_table(*recorder.collect(), (0.0, 0.0), recorder.root_pid)
    print(READY, flush=True)

    # The first pass in a process pays one-off warm-up (lazy imports,
    # first-use allocations); it is discarded so the overhead compares
    # two warm passes.
    workload.run_pass(0)
    start = perf_counter()
    untraced = workload.run_pass(0)
    untraced_wall = perf_counter() - start

    recorder.reset()
    patches = tracing.install(recorder)
    try:
        start = perf_counter()
        traced = workload.run_pass(0)
        end = perf_counter()
    finally:
        tracing.uninstall(patches)
    spans, counts = recorder.collect()
    table = tracing.layer_table(spans, counts, (start, end), recorder.root_pid)

    record = pass_record(workload, traced)
    record["errors"] += table["problems"]
    if workloads.label_records(workload.trace, untraced.results) != record["labels"]:
        record["errors"].append("traced and untraced passes differ in their result digest")
    layers = workloads.layer_metrics(
        table,
        setup_table,
        workloads.result_counters(traced.results),
        {
            "analysis.cache_bytes": traced.cache_bytes,
            "parallel.queue_requeued": traced.requeued,
            "parallel.queue_idle_s": tracing.queue_idle_s(spans),
            "bench.untraced_wall_s": untraced_wall,
        },
    )
    return {"passes": [record], "layers": layers, "table": table["self_s"]}


# -- coordinator -------------------------------------------------------------


def run_child(
    args: argparse.Namespace, child: int, budget_s: float, work_dir: Path, deadline: float
) -> tuple[float, dict]:
    """Start one benchmark process; its set-up time and its result.

    The process leads its own process group, so a deadline kill also
    takes down the queue workers it forked.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(budget_s), "--trace", str(args.trace),
        "--child", str(child), "--work-dir", str(work_dir),
    ]
    start = perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
        env={**os.environ, **THREAD_ENV},
    )
    watchdog = threading.Timer(
        max(0.0, deadline - start), os.killpg, (process.pid, signal.SIGKILL)
    )
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in process.stdout:
            if line.startswith(READY) and setup_s is None:
                setup_s = perf_counter() - start
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        process.stdout.close()
    if process.returncode != 0 or result is None or setup_s is None:
        raise RuntimeError(f"benchmark process exited with {process.returncode}")
    return setup_s, result


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def merge_labels(passes: list[dict], errors: list[str]) -> tuple[dict[str, list], str]:
    """Each distinct search's record, checked equal on every repetition,
    and the run's digest: sha256 over the sorted per-search payload
    digests."""
    labels: dict[str, list] = {}
    for record in passes:
        for label, row in record["labels"].items():
            if labels.setdefault(label, row) != row:
                errors.append(f"{label}: result differs between repetitions")
    digest = hashlib.sha256(
        "".join(f"{label}={labels[label][0]}\n" for label in sorted(labels)).encode()
    ).hexdigest()
    return labels, digest


def end_to_end(setups: list[float], results: list[dict], labels: dict[str, list]) -> dict:
    """End-to-end metrics over every pass of every process.

    Throughput and step latency are in reference units: each pass's
    timings are scaled by the calibration kernel timed around that pass
    (:mod:`calibrate`), which tracks the shared machine's speed.
    """
    from calibrate import KERNEL_REF_S

    passes = [p for r in results for p in r["passes"]]
    rows = [labels[label] for label in sorted(labels)]
    steps_ms = sorted(s * 1000.0 for p in passes for s in p["step_s"])
    ref_steps_ms = sorted(
        s * 1000.0 * KERNEL_REF_S / p["kernel_s"] for p in passes for s in p["step_s"]
    )
    rates = [p["searches"] / p["wall_s"] for p in passes]
    attempted = sum(p["cells_attempted"] for p in passes)
    failed = sum(p["cells_failed"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "searches_per_s": statistics.median(
            rate * p["kernel_s"] / KERNEL_REF_S for rate, p in zip(rates, passes)
        ),
        "step_ms_p50": quantile(ref_steps_ms, 0.5),
        "step_ms_p90": quantile(ref_steps_ms, 0.9),
        "measurements_per_search": sum(r[1] for r in rows) / len(rows),
        "best_over_optimum": sum(r[2] for r in rows) / len(rows),
        "charged_cost_per_search": sum(r[3] for r in rows) / len(rows),
        "clean_cells_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    print(
        f"passes={len(passes)} searches={len(labels)} distinct, "
        f"{sum(p['searches'] for p in passes)} run; step samples={len(steps_ms)}"
    )
    print(
        f"unscaled: searches_per_s={statistics.median(rates):.6g} "
        f"step_ms_p50={quantile(steps_ms, 0.5):.6g} step_ms_p90={quantile(steps_ms, 0.9):.6g} "
        f"kernel_ms={1000.0 * statistics.median(p['kernel_s'] for p in passes):.6g}"
    )
    return metrics


def quantile(ordered: list[float], q: float) -> float:
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def coordinator_main(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_DEADLINE_S
    contract = load_contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    try:
        results, setups = [], []
        if args.trace:
            setup_s, result = run_child(args, 0, args.seconds, work_dir, deadline)
            results.append(result)
        else:
            spent = 0.0
            for child in range(SETUP_SAMPLES):
                budget = (args.seconds - spent) / (SETUP_SAMPLES - child)
                setup_s, result = run_child(args, child, budget, work_dir / str(child), deadline)
                setups.append(setup_s)
                results.append(result)
                spent += result["measured_s"]
        for result in results:
            for record in result["passes"]:
                errors.extend(record["errors"])
        passes = [p for r in results for p in r["passes"]]
        labels, digest = merge_labels(passes, errors)
        if args.trace:
            computed = results[0]["layers"]
            for name, value in sorted(results[0]["table"].items(), key=lambda kv: -kv[1]):
                print(f"  {name:<28} {value:10.4f} s self")
        else:
            computed = end_to_end(setups, results, labels)
        print(f"digest {args.workload} sha256:{digest}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    metrics = {}
    for entry in wanted:
        if entry["name"] not in computed:
            errors.append(f"metric {entry['name']} was not measured")
            continue
        metrics[entry["name"]] = {"value": computed[entry["name"]], "unit": entry["unit"]}
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p["cells_attempted"] for p in passes),
        "failed": sum(p["cells_failed"] for p in passes),
        "metrics": metrics,
    }))
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return child_main(args)
    return coordinator_main(args)


if __name__ == "__main__":
    sys.exit(main())
