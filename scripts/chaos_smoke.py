#!/usr/bin/env python
"""End-to-end chaos smoke tests for the supervised execution plane.

Drives real interrupted-grid scenarios, outside pytest, the way an
operator would hit them.

``--scenario pool`` (durable record/resume):

1. Computes a clean serial reference cache for a small grid.
2. Launches a child process running the same grid under ``auto`` at two
   workers — two local pull-workers of the work queue — with a
   worker-killer factory (one cell kills every worker that runs it, so
   the queue parks it ``poisoned`` and the coordinator completes it)
   and per-cell pacing, waits until the child's crash-safe record — the
   grid's ``.queue`` file, which the workers write — holds a few
   ``done`` cells, then SIGTERMs it mid-grid.
3. Re-runs the grid with ``resume=True`` and asserts that

   * no recorded/flushed cell is recomputed — only the cells that were
     in flight (or never started) at the moment of the signal are
     scheduled,
   * the final consolidated cache is byte-identical to the clean
     serial reference, and
   * the clean completion retires the queue file.

``--scenario queue`` (durable queue / lease recovery):

1. Computes a clean serial reference cache.
2. Launches a queue coordinator (``executor="queue"``, no local
   workers) plus a fleet of three external pull-workers against the
   shared queue database, then ``SIGKILL``\\ s one worker the moment it
   holds a lease — mid-cell, no goodbye.
3. Asserts the grid still completes: the dead worker's lease expires
   and its cell is requeued to a surviving worker, every cell ends
   ``done`` exactly once (no lost cells, no double result writes, as
   witnessed by the queue's durable event log), and the final cache is
   byte-identical to the serial reference.

``--scenario spot`` (spot pricing / partial credit under SIGKILL):

1. Computes a clean serial reference cache for a spot-priced grid
   (market-driven revocations, partial-credit resume, on-demand
   fallback ladder).
2. Launches a queue coordinator plus three external workers running the
   same spot grid, ``SIGKILL``\\ s one worker the moment it holds a
   lease — mid-spot-run, partial charges in flight.
3. Asserts the grid completes with a cache byte-identical to the serial
   reference, that fractional partial-credit charges are present in the
   done payloads (revocation credit survived the worker loss), that the
   queue's recorded pricing mode is ``spot``, and that a final
   ``resume=True`` pass recomputes nothing.

Each scenario prints its timings.  They measure signal latency,
recovery and deliberate pacing sleeps, not hot-path speed, so nothing
records or gates them.

Usage::

    python scripts/chaos_smoke.py                     # all scenarios
    python scripts/chaos_smoke.py --scenario queue    # one scenario
    python scripts/chaos_smoke.py --child D           # internal: pool child
    python scripts/chaos_smoke.py --queue-coordinator D   # internal
    python scripts/chaos_smoke.py --queue-worker D OWNER  # internal
    python scripts/chaos_smoke.py --spot-coordinator D    # internal
    python scripts/chaos_smoke.py --spot-worker D OWNER   # internal
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.runner import ExperimentRunner, RunGrid, run_seed  # noqa: E402
from repro.cloud.spot import SpotMarket, SpotPolicy  # noqa: E402
from repro.core.baselines import RandomSearch  # noqa: E402
from repro.core.objectives import Objective  # noqa: E402
from repro.faults.models import FaultPlan, SpotInterruptions  # noqa: E402
from repro.faults.retry import RetryPolicy  # noqa: E402
from repro.parallel import WorkQueue  # noqa: E402
from repro.trace.generate import default_trace  # noqa: E402

WORKLOADS = (
    "kmeans/Spark 2.1/small",
    "lr/Spark 1.5/medium",
    "pagerank/Hadoop 2.7/small",
)
REPEATS = 4
GRID_KEY = "chaos-smoke"
CACHE_NAME = f"{GRID_KEY}__time"

QUEUE_GRID_KEY = "chaos-queue"
QUEUE_CACHE_NAME = f"{QUEUE_GRID_KEY}__time"
QUEUE_WORKERS = 3
QUEUE_LEASE_S = 2.0

SPOT_GRID_KEY = "chaos-spot"
SPOT_CACHE_NAME = f"{SPOT_GRID_KEY}__time"
SPOT_SEED = 5

#: Worker-side pacing so the parent can signal a worker mid-cell.
PACE_S = 0.5

#: The cell whose worker attempts kill their worker.  The *first* cell in
#: submission order: results are yielded (and recorded) in that order,
#: so a crash-recovering cell in the middle would buffer every completed
#: sibling and make the record grow in one burst instead of steadily.
LETHAL_SEED = run_seed(WORKLOADS[0], 0)

ALL_CELLS = {(w, r) for w in WORKLOADS for r in range(REPEATS)}


def clean_factory(environment, objective, seed):
    return RandomSearch(environment, objective=objective, seed=seed, max_measurements=6)


def _spot_market() -> SpotMarket:
    # Hazard boosted well above the default so revocations (and partial
    # charges) reliably appear within a 6-measurement smoke run.
    return SpotMarket(seed=SPOT_SEED, base_hazard=0.25, hazard_slope=0.5)


def spot_factory(environment, objective, seed):
    """A spot-priced search under a market-driven revocation plan.

    Built identically by the serial reference, the coordinator and
    every queue worker: the injector is created per cell, so fault
    streams reset per cell and results are independent of who runs it.
    """
    plan = FaultPlan((SpotInterruptions(market=_spot_market()),), seed=SPOT_SEED + seed)
    return RandomSearch(
        plan.injector(environment),
        objective=objective,
        seed=seed,
        max_measurements=6,
        retry_policy=RetryPolicy.from_retries(5),
        spot=SpotPolicy(market=_spot_market()),
    )


def _grid(factory, key: str = GRID_KEY) -> RunGrid:
    return RunGrid(
        key=key,
        factory=factory,
        objective=Objective.TIME,
        workload_ids=WORKLOADS,
        repeats=REPEATS,
    )


# -- pool scenario ---------------------------------------------------------


def run_child(cache_dir: Path) -> int:
    """The interrupted run: ``auto`` on two paced local queue workers
    with a worker-killer, until SIGTERM."""
    main_pid = os.getpid()
    # This box may have a single CPU; the scenario needs real workers, so
    # lie to the auto-clamp. Worker-kill recovery on one core is slower
    # but identical in behaviour.
    os.cpu_count = lambda: 4  # type: ignore[method-assign]

    def chaos_factory(environment, objective, seed):
        if os.getpid() != main_pid:
            time.sleep(PACE_S)
            if seed == LETHAL_SEED:
                os._exit(1)
        return clean_factory(environment, objective, seed)

    runner = ExperimentRunner(default_trace(), cache_dir=cache_dir)
    runner.run(_grid(chaos_factory), workers=2)
    return 0


def _done_cells(queue_path: Path) -> set:
    """The cells the queue file holds ``done`` (empty while it is being
    created).  Read-only, so it is safe while the writer runs."""
    try:
        with WorkQueue.attach(queue_path, readonly=True) as queue:
            return {
                cell for cell, state, _p, _e, _a in queue.terminal_cells()
                if state == "done"
            }
    except (FileNotFoundError, ValueError):
        return set()


def scenario_pool(work: Path, trace) -> int:
    ref_dir, chaos_dir = work / "ref", work / "chaos"
    total = len(ALL_CELLS)

    print(f"chaos-smoke[pool]: clean serial reference ({total} cells)")
    ExperimentRunner(trace, cache_dir=ref_dir).run(_grid(clean_factory), workers=1)
    reference = (ref_dir / f"{CACHE_NAME}.json").read_bytes()

    print("chaos-smoke[pool]: launching interrupted auto run on local workers")
    started = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, __file__, "--child", str(chaos_dir)],
        cwd=REPO_ROOT,
    )
    queue_path = chaos_dir / f"{CACHE_NAME}.queue"
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if child.poll() is not None:
            print("chaos-smoke[pool]: FAIL — child finished before the signal")
            return 1
        if queue_path.exists():
            try:
                with WorkQueue.attach(queue_path, readonly=True) as queue:
                    if queue.counts()["done"] >= 3:
                        break
            except ValueError:
                pass  # the child is still creating the file
        time.sleep(0.05)
    else:
        child.kill()
        print("chaos-smoke[pool]: FAIL — the queue file never held 3 done cells")
        return 1
    child.send_signal(signal.SIGTERM)
    child.wait(timeout=60.0)
    interrupted_s = time.monotonic() - started
    if child.returncode != 128 + signal.SIGTERM:
        print(f"chaos-smoke[pool]: FAIL — child exit {child.returncode}, wanted 143")
        return 1

    recorded = _done_cells(queue_path)
    print(
        f"chaos-smoke[pool]: child SIGTERMed after {len(recorded)} recorded cells "
        f"({interrupted_s:.1f}s)"
    )

    events = []
    started = time.monotonic()
    ExperimentRunner(trace, cache_dir=chaos_dir).run(
        _grid(clean_factory), workers=1, resume=True, on_event=events.append
    )
    resume_s = time.monotonic() - started

    completed = {e.cell for e in events if e.kind in ("cell_cached", "cell_resumed")}
    scheduled = {e.cell for e in events if e.kind == "cell_scheduled"}
    recomputed_beyond_in_flight = scheduled & recorded
    print(
        f"chaos-smoke[pool]: resume recovered {len(completed)} cells, "
        f"recomputed {len(scheduled)} ({resume_s:.1f}s)"
    )
    failures = []
    if len(recorded) < 3:
        failures.append(f"the queue file lost recorded cells (read {len(recorded)})")
    if recomputed_beyond_in_flight:
        failures.append(
            f"recomputed recorded cells: {sorted(recomputed_beyond_in_flight)}"
        )
    if scheduled | completed != ALL_CELLS or len(scheduled) + len(completed) != total:
        failures.append("recovered + recomputed cells do not partition the grid")
    final = (chaos_dir / f"{CACHE_NAME}.json").read_bytes()
    if final != reference:
        failures.append("resumed cache differs from the clean serial reference")
    if queue_path.exists():
        failures.append("queue file not retired after clean completion")

    print(
        f"chaos-smoke[pool]: timings interrupted_run_s={interrupted_s:.3f} "
        f"resume_run_s={resume_s:.3f}"
    )

    if failures:
        for failure in failures:
            print(f"chaos-smoke[pool]: FAIL — {failure}")
        return 1
    print("chaos-smoke[pool]: passed (byte-identical resume, zero extra recompute)")
    return 0


# -- queue scenario --------------------------------------------------------


def run_queue_coordinator(cache_dir: Path) -> int:
    """The coordinator: owns the queue, forks no local workers — the
    external fleet does every cell."""
    runner = ExperimentRunner(default_trace(), cache_dir=cache_dir)
    runner.run(
        _grid(clean_factory, key=QUEUE_GRID_KEY),
        executor="queue",
        queue_workers=0,
        queue_lease_s=QUEUE_LEASE_S,
        queue_stall_timeout_s=300.0,
    )
    return 0


def run_queue_worker(cache_dir: Path, owner: str) -> int:
    """One external pull-worker (what ``arrow queue-worker`` does),
    paced so the parent can SIGKILL it mid-cell."""
    from repro.parallel import queue_worker_loop

    path = cache_dir / f"{QUEUE_CACHE_NAME}.queue"
    queue = None
    deadline = time.monotonic() + 60.0
    while queue is None:
        try:
            queue = WorkQueue.attach(path)
        except (FileNotFoundError, ValueError):
            # The coordinator has not created (or finished stamping)
            # the queue yet.
            if time.monotonic() >= deadline:
                print(f"worker {owner}: no queue at {path}", file=sys.stderr)
                return 1
            time.sleep(0.05)
    trace = default_trace()

    def run_lease(lease):
        time.sleep(PACE_S)
        environment = trace.environment(lease.workload_id)
        return clean_factory(environment, Objective.TIME, lease.seed).run()

    try:
        completed = queue_worker_loop(queue, run_lease, owner=owner)
    finally:
        queue.close()
    print(f"worker {owner}: processed {completed} cell(s)")
    return 0


def scenario_queue(work: Path, trace) -> int:
    ref_dir, chaos_dir = work / "queue-ref", work / "queue-chaos"
    total = len(ALL_CELLS)

    print(f"chaos-smoke[queue]: clean serial reference ({total} cells)")
    ExperimentRunner(trace, cache_dir=ref_dir).run(
        _grid(clean_factory, key=QUEUE_GRID_KEY), workers=1
    )
    reference = (ref_dir / f"{QUEUE_CACHE_NAME}.json").read_bytes()

    print(
        f"chaos-smoke[queue]: coordinator + {QUEUE_WORKERS} external workers, "
        f"SIGKILL one mid-cell"
    )
    started = time.monotonic()
    coordinator = subprocess.Popen(
        [sys.executable, __file__, "--queue-coordinator", str(chaos_dir)],
        cwd=REPO_ROOT,
    )
    victim_owner = "victim"
    owners = ["w1", victim_owner, "w3"]
    workers = {
        owner: subprocess.Popen(
            [sys.executable, __file__, "--queue-worker", str(chaos_dir), owner],
            cwd=REPO_ROOT,
        )
        for owner in owners
    }

    queue_path = chaos_dir / f"{QUEUE_CACHE_NAME}.queue"
    try:
        # Wait until the victim actually holds a lease, then kill -9:
        # mid-cell, mid-lease, no cleanup of any kind.
        deadline = time.monotonic() + 120.0
        victim_cell = None
        while victim_cell is None:
            if time.monotonic() >= deadline:
                print("chaos-smoke[queue]: FAIL — victim never claimed a lease")
                return 1
            if coordinator.poll() is not None:
                print("chaos-smoke[queue]: FAIL — coordinator exited early")
                return 1
            if queue_path.exists():
                try:
                    with WorkQueue.attach(queue_path, readonly=True) as queue:
                        for cell, owner, _attempts, _age, _left in queue.leases():
                            if owner == victim_owner:
                                victim_cell = cell
                except (ValueError, FileNotFoundError):
                    pass
            time.sleep(0.02)
        workers[victim_owner].send_signal(signal.SIGKILL)
        print(
            f"chaos-smoke[queue]: SIGKILLed {victim_owner} holding {victim_cell}"
        )

        coordinator.wait(timeout=300.0)
        for owner in ("w1", "w3"):
            workers[owner].wait(timeout=60.0)
        workers[victim_owner].wait(timeout=60.0)
    finally:
        for process in (coordinator, *workers.values()):
            if process.poll() is None:
                process.kill()
    queue_run_s = time.monotonic() - started

    failures = []
    if coordinator.returncode != 0:
        failures.append(f"coordinator exit {coordinator.returncode}, wanted 0")
    if workers[victim_owner].returncode != -signal.SIGKILL:
        failures.append(
            f"victim exit {workers[victim_owner].returncode}, wanted -9"
        )
    for owner in ("w1", "w3"):
        if workers[owner].returncode != 0:
            failures.append(f"worker {owner} exit {workers[owner].returncode}")

    final_path = chaos_dir / f"{QUEUE_CACHE_NAME}.json"
    if not final_path.exists():
        failures.append("no final cache written")
    elif final_path.read_bytes() != reference:
        failures.append("queue-run cache differs from the clean serial reference")

    requeued = 0
    if not queue_path.exists():
        failures.append("queue database missing after the run")
    else:
        with WorkQueue.attach(queue_path) as queue:
            counts = queue.counts()
            if counts["done"] != total or not queue.drained():
                failures.append(f"lost cells: counts {counts}")
            done_cells = {
                cell for cell, state, _p, _e, _a in queue.terminal_cells()
                if state == "done"
            }
            if done_cells != ALL_CELLS:
                failures.append(
                    f"done rows do not cover the grid: missing "
                    f"{sorted(ALL_CELLS - done_cells)}"
                )
            events = queue.events_since(0)
            kinds = [kind for _id, kind, _cell, _detail in events]
            requeued = kinds.count("cell_requeued")
            if kinds.count("lease_expired") < 1 or kinds.count("worker_lost") < 1:
                failures.append("no lease expired — the kill was not observed")
            if requeued < 1:
                failures.append("no cell was requeued after the kill")
            done_writes: dict = {}
            for _id, kind, cell, _detail in events:
                if kind == "cell_done":
                    done_writes[cell] = done_writes.get(cell, 0) + 1
            doubled = {cell: n for cell, n in done_writes.items() if n > 1}
            if doubled:
                failures.append(f"double result writes: {doubled}")

    print(
        f"chaos-smoke[queue]: timings queue_run_s={queue_run_s:.3f} "
        f"({QUEUE_WORKERS} workers, lease {QUEUE_LEASE_S:.1f}s, "
        f"{requeued} requeued of {total} cells)"
    )

    if failures:
        for failure in failures:
            print(f"chaos-smoke[queue]: FAIL — {failure}")
        return 1
    print(
        "chaos-smoke[queue]: passed (grid survived SIGKILL, zero lost cells, "
        "no double writes, byte-identical cache)"
    )
    return 0


# -- spot scenario ---------------------------------------------------------


def run_spot_coordinator(cache_dir: Path) -> int:
    """The spot grid's coordinator: durable queue, external fleet only."""
    runner = ExperimentRunner(default_trace(), cache_dir=cache_dir)
    runner.run(
        _grid(spot_factory, key=SPOT_GRID_KEY),
        executor="queue",
        queue_workers=0,
        queue_lease_s=QUEUE_LEASE_S,
        queue_stall_timeout_s=300.0,
        queue_pricing="spot",
    )
    return 0


def run_spot_worker(cache_dir: Path, owner: str) -> int:
    """One external pull-worker running spot-priced cells, paced so the
    parent can SIGKILL it mid-spot-run."""
    from repro.parallel import queue_worker_loop

    path = cache_dir / f"{SPOT_CACHE_NAME}.queue"
    queue = None
    deadline = time.monotonic() + 60.0
    while queue is None:
        try:
            queue = WorkQueue.attach(path)
        except (FileNotFoundError, ValueError):
            if time.monotonic() >= deadline:
                print(f"worker {owner}: no queue at {path}", file=sys.stderr)
                return 1
            time.sleep(0.05)
    trace = default_trace()

    def run_lease(lease):
        time.sleep(PACE_S)
        environment = trace.environment(lease.workload_id)
        return spot_factory(environment, Objective.TIME, lease.seed).run()

    try:
        completed = queue_worker_loop(queue, run_lease, owner=owner)
    finally:
        queue.close()
    print(f"worker {owner}: processed {completed} cell(s)")
    return 0


def _partial_credit(payload: dict) -> float:
    """Attempt-units this done payload saved vs unit billing."""
    steps = payload.get("steps", [])
    failures = payload.get("failures", [])
    charged = sum(
        float(row[3]) if len(row) == 4 else 1.0 for row in steps
    ) + sum(float(row[4]) if len(row) == 5 else 1.0 for row in failures)
    return len(steps) + len(failures) - charged


def scenario_spot(work: Path, trace) -> int:
    ref_dir, chaos_dir = work / "spot-ref", work / "spot-chaos"
    total = len(ALL_CELLS)

    print(f"chaos-smoke[spot]: clean serial spot reference ({total} cells)")
    ExperimentRunner(trace, cache_dir=ref_dir).run(
        _grid(spot_factory, key=SPOT_GRID_KEY), workers=1
    )
    reference = (ref_dir / f"{SPOT_CACHE_NAME}.json").read_bytes()

    print(
        f"chaos-smoke[spot]: coordinator + {QUEUE_WORKERS} external workers "
        "on the spot grid, SIGKILL one mid-spot-run"
    )
    started = time.monotonic()
    coordinator = subprocess.Popen(
        [sys.executable, __file__, "--spot-coordinator", str(chaos_dir)],
        cwd=REPO_ROOT,
    )
    victim_owner = "victim"
    owners = ["w1", victim_owner, "w3"]
    workers = {
        owner: subprocess.Popen(
            [sys.executable, __file__, "--spot-worker", str(chaos_dir), owner],
            cwd=REPO_ROOT,
        )
        for owner in owners
    }

    queue_path = chaos_dir / f"{SPOT_CACHE_NAME}.queue"
    try:
        deadline = time.monotonic() + 120.0
        victim_cell = None
        while victim_cell is None:
            if time.monotonic() >= deadline:
                print("chaos-smoke[spot]: FAIL — victim never claimed a lease")
                return 1
            if coordinator.poll() is not None:
                print("chaos-smoke[spot]: FAIL — coordinator exited early")
                return 1
            if queue_path.exists():
                try:
                    with WorkQueue.attach(queue_path, readonly=True) as queue:
                        for cell, owner, _attempts, _age, _left in queue.leases():
                            if owner == victim_owner:
                                victim_cell = cell
                except (ValueError, FileNotFoundError):
                    pass
            time.sleep(0.02)
        workers[victim_owner].send_signal(signal.SIGKILL)
        print(f"chaos-smoke[spot]: SIGKILLed {victim_owner} holding {victim_cell}")

        coordinator.wait(timeout=300.0)
        for owner in ("w1", "w3"):
            workers[owner].wait(timeout=60.0)
        workers[victim_owner].wait(timeout=60.0)
    finally:
        for process in (coordinator, *workers.values()):
            if process.poll() is None:
                process.kill()
    spot_run_s = time.monotonic() - started

    failures = []
    if coordinator.returncode != 0:
        failures.append(f"coordinator exit {coordinator.returncode}, wanted 0")
    if workers[victim_owner].returncode != -signal.SIGKILL:
        failures.append(
            f"victim exit {workers[victim_owner].returncode}, wanted -9"
        )
    for owner in ("w1", "w3"):
        if workers[owner].returncode != 0:
            failures.append(f"worker {owner} exit {workers[owner].returncode}")

    final_path = chaos_dir / f"{SPOT_CACHE_NAME}.json"
    if not final_path.exists():
        failures.append("no final cache written")
    elif final_path.read_bytes() != reference:
        failures.append("spot-run cache differs from the clean serial reference")

    requeued = 0
    fractional_cells = 0
    credit_total = 0.0
    if not queue_path.exists():
        failures.append("queue database missing after the run")
    else:
        with WorkQueue.attach(queue_path) as queue:
            if queue.pricing != "spot":
                failures.append(f"queue pricing {queue.pricing!r}, wanted 'spot'")
            counts = queue.counts()
            if counts["done"] != total or not queue.drained():
                failures.append(f"lost cells: counts {counts}")
            for cell, state, payload, _e, _a in queue.terminal_cells():
                if state != "done" or not isinstance(payload, dict):
                    continue
                credit = _partial_credit(payload)
                if credit > 0.0:
                    fractional_cells += 1
                    credit_total += credit
            events = queue.events_since(0)
            kinds = [kind for _id, kind, _cell, _detail in events]
            requeued = kinds.count("cell_requeued")
            if kinds.count("lease_expired") < 1 or kinds.count("worker_lost") < 1:
                failures.append("no lease expired — the kill was not observed")
            if requeued < 1:
                failures.append("no cell was requeued after the kill")
    if fractional_cells < 1:
        failures.append(
            "no fractional partial-credit charges in the done payloads — "
            "partial credit did not survive"
        )

    # A resume pass over the completed campaign must recompute nothing
    # and leave the cache bytes untouched: partial charges round-trip
    # the cache exactly (repr-based JSON floats).
    events = []
    ExperimentRunner(trace, cache_dir=chaos_dir).run(
        _grid(spot_factory, key=SPOT_GRID_KEY),
        workers=1, resume=True, on_event=events.append,
    )
    scheduled = {e.cell for e in events if e.kind == "cell_scheduled"}
    if scheduled:
        failures.append(f"resume recomputed cells: {sorted(scheduled)}")
    if final_path.read_bytes() != reference:
        failures.append("cache bytes changed across the resume pass")

    print(
        f"chaos-smoke[spot]: timings spot_run_s={spot_run_s:.3f} "
        f"({requeued} requeued of {total} cells, {fractional_cells} with "
        f"partial credit, {credit_total:.6f} units)"
    )

    if failures:
        for failure in failures:
            print(f"chaos-smoke[spot]: FAIL — {failure}")
        return 1
    print(
        "chaos-smoke[spot]: passed (spot grid survived SIGKILL, partial "
        f"credit intact across {fractional_cells} cells, byte-identical cache)"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario", choices=("pool", "queue", "spot", "all"), default="all"
    )
    parser.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--queue-coordinator", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument(
        "--queue-worker", nargs=2, metavar=("DIR", "OWNER"), help=argparse.SUPPRESS
    )
    parser.add_argument("--spot-coordinator", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument(
        "--spot-worker", nargs=2, metavar=("DIR", "OWNER"), help=argparse.SUPPRESS
    )
    args = parser.parse_args()

    if args.child:
        return run_child(Path(args.child))
    if args.queue_coordinator:
        return run_queue_coordinator(Path(args.queue_coordinator))
    if args.queue_worker:
        return run_queue_worker(Path(args.queue_worker[0]), args.queue_worker[1])
    if args.spot_coordinator:
        return run_spot_coordinator(Path(args.spot_coordinator))
    if args.spot_worker:
        return run_spot_worker(Path(args.spot_worker[0]), args.spot_worker[1])

    import tempfile

    rc = 0
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        work = Path(tmp)
        trace = default_trace()
        if args.scenario in ("pool", "all"):
            rc = scenario_pool(work, trace) or rc
        if args.scenario in ("queue", "all"):
            rc = scenario_queue(work, trace) or rc
        if args.scenario in ("spot", "all"):
            rc = scenario_spot(work, trace) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
