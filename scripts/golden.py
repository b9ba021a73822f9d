#!/usr/bin/env python
"""Golden digest oracle: pinned sha256 digests of seeded search output.

Every digest is the sha256 of a canonical byte string the search
pipeline produces:

* ``search/<method>/<faults>/<pricing>/q<q>`` cells hash
  ``json.dumps(result_to_payload(result), sort_keys=True)`` for one
  seeded search on the ``aws-2017`` catalog.  The matrix crosses
  {naive, augmented, hybrid, random} x {clean, faulty} x {on-demand,
  spot} x q in {1, 4}; a few extra cells pin the budget stop and spot
  churn quarantine.  ``.../aws-large`` cells run clean on-demand q=1
  Augmented and Hybrid BO on the 210-type ``aws-large`` catalog with a
  budget long enough for the candidate x source query rows to pass the
  packed tree walk's factored-size crossover.  ``.../q1/<kernel>``
  cells run clean on-demand q=1 Naive BO under the other three
  Figure 7 kernels (RBF, Matérn 1/2, Matérn 3/2; the matrix itself
  uses CherryPick's Matérn 5/2).  ``search/augmented/warm/...`` cells
  run Augmented BO with warm refits (``refit_fraction=0.25``) and
  ``search/augmented/random-forest/...`` cells with the CART random
  forest as the surrogate, each on both catalogs (the ``aws-large``
  twins reach the factored walk).  ``search/history/...`` runs
  HistoryAugmentedBO under a history prior built from every other
  workload of the trace.  ``.../multicloud`` cells run clean
  on-demand q=1 searches on the 390-type ``multicloud`` catalog with
  budgets long enough for the pairwise training set to pass the
  Extra-Trees builder's factored-growth crossover: Hybrid BO (budget
  40) and Augmented BO with the absolute target (``relational=False``,
  budget 30).
  "faulty" injects
  ``transient:rate=0.4+outage:vm=c4.large`` with ``quarantine_after=2``;
  "spot" prices the search on a hot market that revokes often enough
  to reach ``fallback_after``.
* ``cache/<grid>/<label>`` cells hash the runner-cache file bytes of
  a 2-workload x 2-repeat grid run under the ``serial`` and ``vector``
  executors (the ``aws-large`` grid under ``vector`` only, which stacks
  its searches' large query sets through ``predict_packed_many``).  The
  ``naive-clean`` grid runs q=1 Naive BO with CherryPick's EI-10% stop,
  the configuration the vectorized driver steps in lock-step GP groups
  (``fit_gps_stacked`` + ``expected_improvement_stacked``), and the
  ``naive-faulty`` grid runs it under transient faults and retries,
  whose searches fall out of lock-step; the ``naive-mes`` grid runs it with max-value entropy search, whose
  scores draw from each search's own scorer RNG.  The
  ``history-clean`` grid runs HistoryAugmentedBO under a prior built
  from every other workload of the trace; its ``vector`` digest must
  equal the serial one.  The ``hybrid-budget`` grid runs Hybrid BO
  with a 9-measurement budget and no stopping rule, so its searches
  change scorer class mid-grid (GP rounds, then tree rounds); the
  ``augmented-warm`` grid runs Augmented BO with warm refits
  (``refit_fraction=0.5``), whose rounds the vectorized driver scores
  alone.  Each runs ``serial`` and ``vector``, and each ``vector``
  digest must equal its serial one.  The
  clean Augmented BO grid also runs as ``pool`` (``auto`` at two
  workers: two local queue workers) and ``queue`` (two workers); their
  digests must equal the serial one.

The digests are float-bit-exact, so they are recorded together with the
Python, numpy and scipy versions that produced them.

Usage::

    python scripts/golden.py check      # exit 1 and print a per-cell diff on drift
    python scripts/golden.py --accept   # rewrite the digests, printing the diff

Re-accepting is a deliberate act: it says the search output is *meant*
to change.  Refactors must pass ``check`` unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.analysis.experiments import all_workload_ids  # noqa: E402
from repro.analysis.runner import (  # noqa: E402
    ExperimentRunner,
    RunGrid,
    result_to_payload,
)
from repro.cloud.spot import SpotMarket, SpotPolicy  # noqa: E402
from repro.core.augmented_bo import AugmentedBO  # noqa: E402
from repro.core.baselines import RandomSearch  # noqa: E402
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
from repro.ml.kernels import kernel_by_name  # noqa: E402
from repro.trace.generate import canonical_trace, default_trace  # noqa: E402

DIGESTS_PATH = REPO_ROOT / "tests" / "golden" / "digests.json"

WORKLOAD = "kmeans/Spark 2.1/small"
SEED = 3
METHODS = {
    "naive": NaiveBO,
    "augmented": AugmentedBO,
    "hybrid": HybridBO,
    "random": RandomSearch,
}
#: The methods the clean/faulty x pricing x q matrix crosses.
MATRIX_METHODS = ("naive", "augmented", "hybrid", "random")
#: Augmented BO surrogate variants pinned on both catalogs.
AUGMENTED_VARIANTS = {
    "warm": {"refit_fraction": 0.25},
    "random-forest": {"ensemble": "random_forest"},
}
FAULTY_PLAN = "transient:rate=0.4+outage:vm=c4.large"
#: High-hazard spot market (the same one the spot tests use).
HOT_MARKET = dict(seed=5, base_hazard=0.25, hazard_slope=0.5)
HOT_MARKET_RULE = "spot:market=5,base=0.25,slope=0.5"
#: The large-catalog cells' catalog and budget: 20 measurements put the
#: last scoring steps at 191 candidates x 19 sources, well past the
#: factored-walk crossover.
LARGE_CATALOG = "aws-large"
LARGE_BUDGET = 20
#: The multicloud cells' catalog: up to 39 x 39 training pairs, well
#: past the factored-growth crossover of the Extra-Trees builder.
MULTICLOUD_CATALOG = "multicloud"
#: The Figure 7 kernels besides Naive BO's default Matérn 5/2.
FIG7_KERNELS = ("rbf", "matern12", "matern32")


def versions() -> dict[str, str]:
    """The toolchain the digests depend on, bit for bit."""
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_bytes(result) -> bytes:
    return json.dumps(result_to_payload(result), sort_keys=True).encode()


def build_search(
    trace,
    method: str,
    faults: str,
    pricing: str,
    q: int,
    max_measurements: int | None = None,
    churn: bool = False,
    kernel: str | None = None,
    options: dict | None = None,
):
    """One seeded optimiser for a matrix cell.

    ``method="history"`` builds HistoryAugmentedBO with a prior over
    every other workload of ``trace``; ``options`` are extra optimiser
    keyword arguments.
    """
    rules = []
    kwargs: dict = dict(
        seed=SEED,
        batch_size=q,
        max_measurements=max_measurements,
        # A non-zero backoff makes the jittered waits reach the payload.
        retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.1),
    )
    if kernel is not None:
        kwargs["kernel"] = kernel_by_name(kernel)
    if options:
        kwargs.update(options)
    if method == "history":
        kwargs["history"] = HistoryModel(
            *build_history_pairs(trace, WORKLOAD, seed=SEED), seed=SEED
        )
    if faults == "faulty":
        rules.append(FAULTY_PLAN)
        kwargs["quarantine_after"] = 2
    if pricing == "spot":
        rules.append(HOT_MARKET_RULE)
        market = SpotMarket(**HOT_MARKET)
        kwargs["spot"] = (
            SpotPolicy(market=market, fallback_after=1_000, revocation_quarantine=2)
            if churn
            else SpotPolicy(market=market)
        )
    environment = trace.environment(WORKLOAD)
    if rules:
        environment = FaultInjector(
            environment, parse_fault_plan("+".join(rules), seed=SEED)
        )
    cls = HistoryAugmentedBO if method == "history" else METHODS[method]
    return cls(environment, **kwargs)


def search_cells() -> Iterator[tuple[str, dict]]:
    """``(cell name, build_search kwargs)`` for every search cell."""
    for method in MATRIX_METHODS:
        for faults in ("clean", "faulty"):
            for pricing in ("on-demand", "spot"):
                for q in (1, 4):
                    yield (
                        f"search/{method}/{faults}/{pricing}/q{q}",
                        dict(method=method, faults=faults, pricing=pricing, q=q),
                    )
    # Budget stops mid-retry-schedule and spot churn quarantine.
    for method in ("augmented", "naive"):
        for pricing in ("on-demand", "spot"):
            for q in (1, 4):
                yield (
                    f"search/{method}/faulty-budget/{pricing}/q{q}",
                    dict(
                        method=method, faults="faulty", pricing=pricing, q=q,
                        max_measurements=10,
                    ),
                )
    for method in ("augmented", "random"):
        for q in (1, 4):
            yield (
                f"search/{method}/churn/spot/q{q}",
                dict(method=method, faults="clean", pricing="spot", q=q, churn=True),
            )
    for kernel in FIG7_KERNELS:
        yield (
            f"search/naive/clean/on-demand/q1/{kernel}",
            dict(method="naive", faults="clean", pricing="on-demand", q=1, kernel=kernel),
        )
    for variant, options in AUGMENTED_VARIANTS.items():
        yield (
            f"search/augmented/{variant}/on-demand/q1",
            dict(method="augmented", faults="clean", pricing="on-demand", q=1, options=options),
        )
    yield (
        "search/history/clean/on-demand/q1",
        dict(method="history", faults="clean", pricing="on-demand", q=1),
    )


def catalog_search_cells() -> Iterator[tuple[str, str, dict]]:
    """``(cell name, catalog, build_search kwargs)`` for the cells built
    on the ``aws-large`` and ``multicloud`` traces."""
    for method in ("augmented", "hybrid"):
        yield (
            f"search/{method}/clean/on-demand/q1/{LARGE_CATALOG}",
            LARGE_CATALOG,
            dict(
                method=method, faults="clean", pricing="on-demand", q=1,
                max_measurements=LARGE_BUDGET,
            ),
        )
    for variant, options in AUGMENTED_VARIANTS.items():
        yield (
            f"search/augmented/{variant}/on-demand/q1/{LARGE_CATALOG}",
            LARGE_CATALOG,
            dict(
                method="augmented", faults="clean", pricing="on-demand", q=1,
                max_measurements=LARGE_BUDGET, options=options,
            ),
        )
    yield (
        f"search/hybrid/clean/on-demand/q1/{MULTICLOUD_CATALOG}",
        MULTICLOUD_CATALOG,
        dict(
            method="hybrid", faults="clean", pricing="on-demand", q=1,
            max_measurements=40,
        ),
    )
    yield (
        f"search/augmented/absolute/on-demand/q1/{MULTICLOUD_CATALOG}",
        MULTICLOUD_CATALOG,
        dict(
            method="augmented", faults="clean", pricing="on-demand", q=1,
            max_measurements=30, options={"relational": False},
        ),
    )


def search_payloads(trace=None) -> Iterator[tuple[str, bytes]]:
    """``(cell name, canonical payload bytes)`` for every search cell."""
    trace = trace if trace is not None else default_trace()
    for name, spec in search_cells():
        yield name, payload_bytes(build_search(trace, **spec).run())
    traces: dict = {}
    for name, catalog, spec in catalog_search_cells():
        if catalog not in traces:
            traces[catalog] = canonical_trace(catalog)
        yield name, payload_bytes(build_search(traces[catalog], **spec).run())


def _clean_factory(environment, objective, seed):
    return AugmentedBO(
        environment, objective=objective, seed=seed,
        stopping=PredictionDeltaThreshold(),
    )


def _faulty_factory(environment, objective, seed):
    plan = parse_fault_plan("transient:rate=0.3", seed=seed)
    return AugmentedBO(
        FaultInjector(environment, plan), objective=objective, seed=seed,
        stopping=PredictionDeltaThreshold(),
        retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.1),
    )


def _spot_q4_factory(environment, objective, seed):
    market = SpotMarket(**HOT_MARKET)
    plan = parse_fault_plan(f"transient:rate=0.2+{HOT_MARKET_RULE}", seed=seed)
    return NaiveBO(
        FaultInjector(environment, plan), objective=objective, seed=seed,
        batch_size=4, retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.1),
        spot=SpotPolicy(market=market),
    )


def _naive_clean_factory(environment, objective, seed):
    return NaiveBO(
        environment, objective=objective, seed=seed,
        stopping=EIThreshold(fraction=0.1),
    )


def _naive_faulty_factory(environment, objective, seed):
    plan = parse_fault_plan("transient:rate=0.3", seed=seed)
    return NaiveBO(
        FaultInjector(environment, plan), objective=objective, seed=seed,
        stopping=EIThreshold(fraction=0.1),
        retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.1),
    )


def _naive_mes_factory(environment, objective, seed):
    return NaiveBO(
        environment, objective=objective, seed=seed, acquisition="mes",
        stopping=EIThreshold(fraction=0.1),
    )


def _history_factory(environment, objective, seed):
    pairs = build_history_pairs(
        default_trace(), environment.workload.workload_id, seed=SEED
    )
    return HistoryAugmentedBO(
        environment, objective=objective, seed=seed,
        history=HistoryModel(*pairs, seed=SEED),
        stopping=PredictionDeltaThreshold(),
    )


def _hybrid_budget_factory(environment, objective, seed):
    return HybridBO(
        environment, objective=objective, seed=seed, max_measurements=9,
    )


def _augmented_warm_factory(environment, objective, seed):
    return AugmentedBO(
        environment, objective=objective, seed=seed, refit_fraction=0.5,
        stopping=PredictionDeltaThreshold(),
    )


def _large_factory(environment, objective, seed):
    return AugmentedBO(
        environment, objective=objective, seed=seed, max_measurements=LARGE_BUDGET,
    )


#: ``grid key -> (factory, catalog, labels)``; a label is an executor
#: name unless :data:`EXECUTOR_RUNS` maps it.
CACHE_GRIDS = {
    "augmented-clean": (_clean_factory, None, ("serial", "vector", "pool", "queue")),
    "augmented-faulty": (_faulty_factory, None, ("serial", "vector")),
    "naive-clean": (_naive_clean_factory, None, ("serial", "vector")),
    "naive-faulty": (_naive_faulty_factory, None, ("serial", "vector")),
    "naive-spot-q4": (_spot_q4_factory, None, ("serial", "vector")),
    "naive-mes": (_naive_mes_factory, None, ("serial", "vector")),
    "history-clean": (_history_factory, None, ("serial", "vector")),
    "hybrid-budget": (_hybrid_budget_factory, None, ("serial", "vector")),
    "augmented-warm": (_augmented_warm_factory, None, ("serial", "vector")),
    "augmented-large": (_large_factory, LARGE_CATALOG, ("vector",)),
}


#: ``label -> (executor, workers)`` for the labels that are not plain
#: executor names at one worker.  ``pool`` is ``auto`` at two workers,
#: which runs the grid on two local queue workers.
EXECUTOR_RUNS = {"pool": ("auto", 2), "queue": ("queue", 2)}


def cache_digests(trace=None) -> dict[str, str]:
    """Digests of the runner-cache bytes of every (grid, executor)."""
    trace = trace if trace is not None else default_trace()
    out = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for key, (factory, catalog, executors) in CACHE_GRIDS.items():
            grid = RunGrid(
                key=f"golden-{key}",
                factory=factory,
                objective=Objective.TIME,
                workload_ids=tuple(all_workload_ids()[:2]),
                repeats=2,
            )
            grid_trace = trace if catalog is None else canonical_trace(catalog)
            for label in executors:
                executor, workers = EXECUTOR_RUNS.get(label, (label, 1))
                cache_dir = Path(tmp) / label
                ExperimentRunner(grid_trace, cache_dir=cache_dir).run(
                    grid, workers=workers, executor=executor
                )
                data = (cache_dir / f"golden-{key}__time.json").read_bytes()
                out[f"cache/{key}/{label}"] = digest(data)
    return out


def compute_digests(trace=None) -> dict[str, str]:
    """Every golden digest, keyed by cell name."""
    trace = trace if trace is not None else default_trace()
    out = {name: digest(data) for name, data in search_payloads(trace)}
    out.update(cache_digests(trace))
    return out


def load() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def diff(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """One line per cell whose digest changed, appeared or vanished."""
    lines = []
    for name in sorted(set(recorded) | set(current)):
        old, new = recorded.get(name), current.get(name)
        if old == new:
            continue
        if old is None:
            lines.append(f"+ {name}: {new[:16]}")
        elif new is None:
            lines.append(f"- {name}: {old[:16]}")
        else:
            lines.append(f"~ {name}: {old[:16]} -> {new[:16]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "command", nargs="?", default="check", choices=("check",),
        help="compare against the recorded digests (the default)",
    )
    parser.add_argument(
        "--accept", action="store_true",
        help="record the current digests instead of checking them",
    )
    args = parser.parse_args(argv)
    current = compute_digests()
    recorded = load() if DIGESTS_PATH.exists() else {"versions": {}, "digests": {}}
    changes = diff(recorded["digests"], current)
    for line in changes:
        print(line)
    if args.accept:
        DIGESTS_PATH.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS_PATH.write_text(
            json.dumps({"versions": versions(), "digests": current}, indent=2, sort_keys=True)
            + "\n"
        )
        print(f"golden: accepted {len(current)} digests ({len(changes)} changed)")
        return 0
    if recorded["versions"] != versions():
        print(f"golden: recorded with {recorded['versions']}, running {versions()}")
    if changes:
        print(f"golden: {len(changes)} of {len(current)} digests differ")
        return 1
    print(f"golden: all {len(current)} digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
