#!/usr/bin/env python
"""CI smoke: ``--executor vector`` must be byte-identical to serial.

Runs the same small experiment grid twice through
:class:`~repro.analysis.runner.ExperimentRunner` — once with the serial
executor, once with the lock-step vectorized driver — and fails unless
the cache files that land on disk are **byte**-identical.  Seven grids are
checked: a clean stopping-rule Augmented-BO grid (the configuration the
vectorized driver batches most aggressively, through its tree groups)
and a fault-injected one (transient faults + retries, exercising the
driver's interplay with the failure machinery and the desync fallback
when searches stop at different steps), then the same pair for Naive
BO with CherryPick's EI-10% stop, which the driver steps in lock-step
GP groups, then HistoryAugmentedBO under a prior built from every other
workload (its blend rides the tree groups' shared commit step) and
Naive BO scored by max-value entropy search (each search draws from
its own scorer RNG inside a GP group), and Hybrid BO on a 9-measurement
budget with no stopping rule (its searches move from GP groups to tree
groups mid-grid).

Exit status: 0 when every comparison matches, 1 otherwise.

Usage::

    python scripts/vector_smoke.py [--workloads 2] [--repeats 2]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.experiments import all_workload_ids  # noqa: E402
from repro.analysis.runner import ExperimentRunner, RunGrid  # noqa: E402
from repro.core.augmented_bo import AugmentedBO  # noqa: E402
from repro.core.history_bo import (  # noqa: E402
    HistoryAugmentedBO,
    HistoryModel,
    build_history_pairs,
)
from repro.core.hybrid_bo import HybridBO  # noqa: E402
from repro.core.naive_bo import NaiveBO  # noqa: E402
from repro.core.objectives import Objective  # noqa: E402
from repro.core.stopping import EIThreshold, PredictionDeltaThreshold  # noqa: E402
from repro.faults import FaultInjector, RetryPolicy, parse_fault_plan  # noqa: E402
from repro.trace.generate import default_trace  # noqa: E402


def clean_factory(environment, objective, seed):
    return AugmentedBO(
        environment,
        objective=objective,
        seed=seed,
        stopping=PredictionDeltaThreshold(),
    )


def faulty_factory(environment, objective, seed):
    plan = parse_fault_plan("transient:rate=0.3", seed=seed)
    return AugmentedBO(
        FaultInjector(environment, plan),
        objective=objective,
        seed=seed,
        stopping=PredictionDeltaThreshold(),
        retry_policy=RetryPolicy(max_attempts=3),
    )


def naive_clean_factory(environment, objective, seed):
    return NaiveBO(
        environment,
        objective=objective,
        seed=seed,
        stopping=EIThreshold(fraction=0.1),
    )


def naive_faulty_factory(environment, objective, seed):
    plan = parse_fault_plan("transient:rate=0.3", seed=seed)
    return NaiveBO(
        FaultInjector(environment, plan),
        objective=objective,
        seed=seed,
        stopping=EIThreshold(fraction=0.1),
        retry_policy=RetryPolicy(max_attempts=3),
    )


def history_factory(environment, objective, seed):
    pairs = build_history_pairs(
        default_trace(), environment.workload.workload_id, seed=0
    )
    return HistoryAugmentedBO(
        environment,
        objective=objective,
        seed=seed,
        history=HistoryModel(*pairs, seed=0),
        stopping=PredictionDeltaThreshold(),
    )


def naive_mes_factory(environment, objective, seed):
    return NaiveBO(
        environment,
        objective=objective,
        seed=seed,
        acquisition="mes",
        stopping=EIThreshold(fraction=0.1),
    )


def hybrid_budget_factory(environment, objective, seed):
    return HybridBO(
        environment,
        objective=objective,
        seed=seed,
        max_measurements=9,
    )


GRIDS = {
    "clean": clean_factory,
    "faulty": faulty_factory,
    "naive-clean": naive_clean_factory,
    "naive-faulty": naive_faulty_factory,
    "history": history_factory,
    "naive-mes": naive_mes_factory,
    "hybrid-budget": hybrid_budget_factory,
}


def compare(trace, name: str, factory, workloads: int, repeats: int) -> bool:
    grid = RunGrid(
        key=f"vector-smoke-{name}",
        factory=factory,
        objective=Objective.TIME,
        workload_ids=tuple(all_workload_ids()[:workloads]),
        repeats=repeats,
    )
    with tempfile.TemporaryDirectory(prefix="vector-smoke-") as tmp:
        caches = {}
        for executor in ("serial", "vector"):
            cache_dir = Path(tmp) / executor
            runner = ExperimentRunner(trace, cache_dir=cache_dir)
            runner.run(grid, workers=1, executor=executor)
            caches[executor] = (
                cache_dir / f"vector-smoke-{name}__time.json"
            ).read_bytes()
    identical = caches["serial"] == caches["vector"]
    verdict = "byte-identical" if identical else "MISMATCH"
    print(
        f"vector smoke: {name} grid ({workloads}x{repeats}): "
        f"serial vs vector caches {verdict} "
        f"({len(caches['serial'])} bytes)"
    )
    return identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)

    trace = default_trace()
    ok = True
    for name, factory in GRIDS.items():
        ok = compare(trace, name, factory, args.workloads, args.repeats) and ok
    if not ok:
        print("vector smoke: FAILED — vectorized executor diverged from serial")
        return 1
    print("vector smoke: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
