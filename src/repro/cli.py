"""``arrow`` — the command-line interface of the reproduction.

Subcommands:

* ``arrow catalog`` — VM catalogs: the paper's 18 types (default), plus
  ``list``/``show <name>`` over the registered large catalogs,
* ``arrow workloads`` — the 107-workload registry, filterable,
* ``arrow trace generate|stats`` — build or summarise a benchmark trace,
* ``arrow search`` — run an optimiser on one workload and show the trace,
* ``arrow queue-worker`` — pull and execute cells from a durable work queue,
* ``arrow queue-status`` — inspect a durable work queue (read-only),
* ``arrow profile`` — simulate a run's sysstat time series on one VM,
* ``arrow figure`` — render a cached experiment figure in the terminal,
* ``arrow experiments`` — list the paper's experiment index.

Every command is pure stdout; exit status 0 on success, 2 on usage
errors (argparse), 1 on runtime errors with a message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.analysis.ascii_plots import bar_chart, line_chart, render_chart
from repro.analysis.figures import FIGURES
from repro.analysis.runner import ExperimentRunner, RunGrid
from repro.cloud.catalog import DEFAULT_CATALOG_NAME, catalog_names, get_catalog
from repro.cloud.spot import PRICING_MODES, SpotMarket, SpotPolicy
from repro.cloud.vmtypes import get_vm_type
from repro.core.augmented_bo import AugmentedBO
from repro.core.baselines import ExhaustiveSearch, RandomSearch
from repro.core.hybrid_bo import HybridBO
from repro.core.naive_bo import NaiveBO
from repro.core.objectives import Objective
from repro.core.smbo import MeasurementError
from repro.core.stopping import EIThreshold, PredictionDeltaThreshold
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SpotInterruptions,
    parse_fault_plan,
)
from repro.simulator.perfmodel import PerformanceModel
from repro.simulator.sar import record_sar_trace
from repro.trace.generate import canonical_trace, generate_trace
from repro.trace.io import load_trace, save_trace
from repro.workloads.registry import default_registry
from repro.workloads.spec import Category, Framework, InputSize

_METHODS = {
    "naive": NaiveBO,
    "augmented": AugmentedBO,
    "hybrid": HybridBO,
    "random": RandomSearch,
    "exhaustive": ExhaustiveSearch,
}


# -- catalog -------------------------------------------------------------


def _print_catalog_table(catalog) -> None:
    print(
        f"{'name':<16} {'vCPU':>4} {'RAM GiB':>8} {'clock':>6} "
        f"{'disk MB/s':>10} {'local SSD':>9} {'$/hour':>8}"
    )
    for vm in catalog:
        print(
            f"{vm.name:<16} {vm.vcpus:>4} {vm.ram_gb:>8.2f} {vm.clock_factor:>6.2f} "
            f"{vm.disk_mbps:>10.0f} {'yes' if vm.local_ssd else 'no':>9} "
            f"{catalog.prices.price_per_hour(vm):>8.3f}"
        )


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(f"{'catalog':<12} {'types':>5} {'families':>8}  providers")
        for name in catalog_names():
            catalog = get_catalog(name)
            print(
                f"{name:<12} {len(catalog):>5} {len(catalog.families):>8}  "
                f"{', '.join(catalog.providers)}"
            )
        return 0
    if args.action == "show":
        if not args.name:
            print("error: 'arrow catalog show' needs a catalog name", file=sys.stderr)
            return 1
        try:
            catalog = get_catalog(args.name)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"{catalog.name}: {catalog.description}")
        print(
            f"{len(catalog)} types, {len(catalog.families)} families, "
            f"providers: {', '.join(catalog.providers)}"
        )
        for provider in catalog.providers:
            low, high = catalog.price_range(provider)
            print(f"  {provider}: ${low:.4f}-{high:.4f}/hour")
        print()
        _print_catalog_table(catalog)
        return 0
    # Bare "arrow catalog": the paper's 18 types, as always.
    _print_catalog_table(get_catalog(DEFAULT_CATALOG_NAME))
    return 0


# -- workloads -----------------------------------------------------------


def _cmd_workloads(args: argparse.Namespace) -> int:
    registry = default_registry()
    framework = Framework(args.framework) if args.framework else None
    category = Category(args.category) if args.category else None
    size = InputSize(args.size) if args.size else None
    matches = registry.filter(
        application=args.application,
        framework=framework,
        category=category,
        input_size=size,
    )
    for workload in matches:
        print(f"{workload.workload_id:<40} {workload.category.value}")
    print(f"-- {len(matches)} workloads", file=sys.stderr)
    return 0


# -- trace ---------------------------------------------------------------


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    try:
        catalog = get_catalog(args.catalog)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    trace = generate_trace(seed=args.seed, catalog=catalog)
    save_trace(trace, args.out)
    print(f"wrote trace (catalog {args.catalog}, seed {args.seed}) to {args.out}")
    return 0


def _load_trace_arg(path: str | None, catalog: str = DEFAULT_CATALOG_NAME):
    """A trace to search over: a file, or the named catalog's canonical trace.

    A trace file records its own catalog, so ``--catalog`` only selects
    which canonical trace to synthesise when no ``--trace`` is given.
    """
    return load_trace(path) if path else canonical_trace(catalog)


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    trace = _load_trace_arg(args.path)
    objective = args.objective
    spreads = [trace.spread(w, objective) for w in trace.registry]
    winners: dict[str, int] = {}
    for workload in trace.registry:
        name = trace.best_vm(workload, objective).name
        winners[name] = winners.get(name, 0) + 1
    print(f"objective: {objective}")
    print(
        f"worst/best spread: max {max(spreads):.1f}x, "
        f"median {float(np.median(spreads)):.1f}x"
    )
    print("\noptimal-VM histogram:")
    ordered = dict(sorted(winners.items(), key=lambda kv: -kv[1]))
    print(bar_chart({k: float(v) for k, v in ordered.items()}, unit=" workloads"))
    return 0


# -- search ----------------------------------------------------------------


def _add_optimizer_flags(parser: argparse.ArgumentParser) -> None:
    """The flags that define *which optimiser runs and how*.

    Shared verbatim between ``arrow search`` (the coordinator) and
    ``arrow queue-worker`` (the fleet): both feed
    :func:`_build_optimizer` and :func:`_search_grid_key`, so a worker
    started with the same flags reproduces the coordinator's grid key —
    and one started with different flags is refused by the key guard
    before it can record a result the coordinator never asked for.
    """
    parser.add_argument("--method", choices=sorted(_METHODS), default="augmented")
    parser.add_argument(
        "--objective", choices=["time", "cost", "product"], default="time"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--refit-fraction", type=float, default=1.0,
        help="fraction of surrogate trees regrown per step for the "
        "augmented/hybrid methods (1.0 = full refit, the default; "
        "smaller = faster warm-start refits)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=1,
        help="suggestions measured per acquisition round (1 = classic "
        "sequential loop, bit-identical; q > 1 = constant-liar q-EI on "
        "GP methods, top-q prediction delta on tree methods)",
    )
    parser.add_argument(
        "--liar", choices=["min", "mean", "max"], default="min",
        help="constant-liar strategy for GP batch suggestion: fantasize "
        "picked points at the min (optimistic, spreads the batch), mean, "
        "or max (pessimistic, clusters) of the observed values",
    )
    parser.add_argument("--stop", choices=["none", "ei", "delta"], default="none")
    parser.add_argument("--stop-value", type=float, default=None)
    parser.add_argument(
        "--max-measurements", type=int, default=None, metavar="N",
        help="hard budget on charged measurements per run (default: "
        "exhaust the catalog; mainly for large catalogs and smoke runs)",
    )
    parser.add_argument("--trace", help="trace JSON (default: canonical)")
    parser.add_argument(
        "--catalog", choices=catalog_names(), default=DEFAULT_CATALOG_NAME,
        help="VM catalog to search over when no --trace is given (the "
        "named catalog's canonical trace is synthesised on the fly); a "
        "--trace file carries its own catalog and wins",
    )
    parser.add_argument(
        "--measure-retries", type=int, default=0,
        help="retries per failed measurement (each attempt is charged)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.0,
        help="base exponential-backoff delay in seconds between retries",
    )
    parser.add_argument(
        "--quarantine-after", type=int, default=3,
        help="consecutive failures before a VM is quarantined",
    )
    parser.add_argument(
        "--fault-plan",
        help='inject faults, e.g. "transient:rate=0.3+outage:vm=c3.large"',
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan's randomness",
    )
    parser.add_argument(
        "--pricing", choices=sorted(PRICING_MODES), default="on-demand",
        help="pricing tier measurements buy: on-demand (default, "
        "bit-identical historic behaviour) or spot — discounted runs "
        "under a seeded revocation market with partial-credit resume "
        "and an on-demand fallback ladder",
    )
    parser.add_argument(
        "--spot-seed", type=int, default=0,
        help="seed of the deterministic spot market (discounts, "
        "volatility and revocation hazard per VM)",
    )
    parser.add_argument(
        "--spot-fallback-after", type=int, default=2,
        help="spot revocations of one observation before it falls back "
        "to on-demand at full price",
    )
    parser.add_argument(
        "--spot-resume-credit", type=float, default=1.0,
        help="fraction of a revoked run's completed work the next "
        "attempt resumes from (1.0 = perfect checkpoints, 0.0 = full "
        "redo)",
    )


def _build_optimizer(args: argparse.Namespace, environment, seed: int | None = None):
    objective = Objective.from_name(args.objective)
    stopping = None
    if args.stop == "ei":
        stopping = EIThreshold(fraction=args.stop_value or 0.1)
    elif args.stop == "delta":
        stopping = PredictionDeltaThreshold(threshold=args.stop_value or 1.1)
    retry_policy = RetryPolicy(
        max_attempts=args.measure_retries + 1,
        backoff_base_s=args.retry_backoff,
    )
    extra = {}
    if args.method in ("augmented", "hybrid"):
        extra["refit_fraction"] = args.refit_fraction
    cls = _METHODS[args.method]
    return cls(
        environment,
        objective=objective,
        stopping=stopping,
        seed=args.seed if seed is None else seed,
        retry_policy=retry_policy,
        quarantine_after=args.quarantine_after,
        max_measurements=getattr(args, "max_measurements", None),
        batch_size=getattr(args, "batch_size", 1),
        liar=getattr(args, "liar", "min"),
        spot=_spot_policy(args),
        **extra,
    )


def _spot_policy(args: argparse.Namespace) -> SpotPolicy | None:
    """The spot policy the flags ask for, or None in on-demand mode."""
    if getattr(args, "pricing", "on-demand") != "spot":
        return None
    return SpotPolicy(
        market=SpotMarket(seed=getattr(args, "spot_seed", 0)),
        fallback_after=getattr(args, "spot_fallback_after", 2),
        resume_credit=getattr(args, "spot_resume_credit", 1.0),
    )


def _wrap_faults(args: argparse.Namespace, environment):
    """Fault-inject an environment when a plan (or spot pricing) asks.

    ``--pricing spot`` guarantees a market-driven spot-revocation rule
    is present: spot capacity without revocation risk would just be a
    discount.  A ``--fault-plan`` that already carries a market rule is
    kept as written; otherwise the market (seeded by ``--spot-seed``)
    is appended to the plan, or forms a single-rule plan of its own.
    """
    rules = ()
    if args.fault_plan:
        plan = parse_fault_plan(args.fault_plan, seed=args.fault_seed)
        rules = plan.rules
    if getattr(args, "pricing", "on-demand") == "spot" and not any(
        isinstance(rule, SpotInterruptions) and rule.market is not None
        for rule in rules
    ):
        market = SpotMarket(seed=getattr(args, "spot_seed", 0))
        rules = (*rules, SpotInterruptions(market=market))
    if rules:
        environment = FaultInjector(
            environment, FaultPlan(rules, seed=args.fault_seed)
        )
    return environment


def _search_environment(args: argparse.Namespace, trace):
    """The workload's replay environment, fault-injected when asked."""
    return _wrap_faults(args, trace.environment(args.workload))


def _fault_summary(result) -> str | None:
    """One line describing a run's failures, or None when fault-free."""
    if not result.failure_count and not result.quarantined_vms:
        return None
    parts = [
        f"failed attempts: {result.failure_count} "
        f"(charged cost {result.charged_cost})"
    ]
    if result.retry_wait_s:
        parts.append(f"retry wait {result.retry_wait_s:.1f}s")
    if result.quarantined_vms:
        parts.append(f"quarantined: {', '.join(result.quarantined_vms)}")
    return "; ".join(parts)


def _search_grid_key(args: argparse.Namespace) -> str:
    """A cache key for one ``arrow search`` repeat campaign.

    Encodes every argument that changes results, so two invocations
    share cache entries exactly when their runs would be identical.
    """
    import zlib

    slug = args.workload.replace("/", "~").replace(" ", "_")
    relevant = (
        args.method, args.objective, args.stop, args.stop_value,
        args.measure_retries, args.retry_backoff, args.quarantine_after,
        args.fault_plan, args.fault_seed, args.refit_fraction,
        # "vectorized" and "analytic" stand where the retired
        # --tree-builder and --gp-gradient values sat, so keys (and the
        # caches they name) stay byte-stable.
        "vectorized", "analytic",
    )
    # Batched searches produce different measurement sequences, so the
    # batch shape joins the key — but only when batching is on, which
    # keeps every pre-existing q=1 digest stable.
    if getattr(args, "batch_size", 1) > 1:
        relevant = (*relevant, args.batch_size, args.liar)
    # Same stability rule for the catalog axis and measurement budget:
    # they join the key only when set off their defaults, so every
    # pre-existing default-catalog digest is unchanged.
    if getattr(args, "catalog", DEFAULT_CATALOG_NAME) != DEFAULT_CATALOG_NAME:
        relevant = (*relevant, args.catalog)
    if getattr(args, "max_measurements", None) is not None:
        relevant = (*relevant, args.max_measurements)
    # Spot pricing changes retries, charges and events, so its whole
    # configuration joins the key — but only when enabled, keeping every
    # pre-existing on-demand digest stable.
    if getattr(args, "pricing", "on-demand") == "spot":
        relevant = (
            *relevant, args.pricing, args.spot_seed,
            args.spot_fallback_after, args.spot_resume_credit,
        )
    digest = zlib.crc32(repr(relevant).encode()) & 0xFFFFFFFF
    return f"search-{args.method}-{slug}-{digest:08x}"


def _repeat_seed(_workload: str, repeat: int) -> int:
    """The optimiser seed of one ``--repeats`` cell: its repeat index."""
    return repeat


def _run_repeats(args: argparse.Namespace, trace, objective):
    """All repeat results for ``arrow search --repeats N``, in order.

    The repeats run as a one-workload
    :class:`~repro.analysis.runner.RunGrid` through
    :class:`~repro.analysis.runner.ExperimentRunner`.  With
    ``--cache-dir`` the runner caches them and records every completed
    repeat in the grid's ``.queue`` file — an interrupted campaign picks
    up with ``--resume`` instead of recomputing; without it nothing is
    kept.
    """

    def factory(environment, _objective, seed):
        return _build_optimizer(args, _wrap_faults(args, environment), seed=seed)

    runner = ExperimentRunner(trace, cache_dir=args.cache_dir)
    grid = RunGrid(
        key=_search_grid_key(args),
        factory=factory,
        objective=objective,
        workload_ids=(args.workload,),
        repeats=args.repeats,
    )
    results = runner.run(
        grid,
        workers=args.workers,
        resume=args.resume,
        cell_timeout=args.cell_timeout,
        seed_fn=_repeat_seed,
        executor=args.executor,
        queue_workers=args.queue_workers,
        queue_lease_s=args.queue_lease,
        queue_max_attempts=args.queue_max_attempts,
        queue_stall_timeout_s=args.queue_stall_timeout,
        queue_pricing=getattr(args, "pricing", "on-demand"),
    )
    return results[args.workload]


def _cmd_search(args: argparse.Namespace) -> int:
    if args.executor == "queue" and not args.cache_dir:
        print(
            "error: --executor queue requires --cache-dir (the durable "
            "queue lives next to the cache file)",
            file=sys.stderr,
        )
        return 1
    trace = _load_trace_arg(args.trace, args.catalog)
    if args.workload not in trace.registry:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    objective = Objective.from_name(args.objective)
    optimum = trace.objective_values(args.workload, objective.trace_key).min()
    try:
        if args.repeats == 1:
            optimizer = _build_optimizer(args, _search_environment(args, trace))
            result = optimizer.run()
            print(f"{'step':>4}  {'VM type':<12} {'value':>12} {'best':>12}")
            for step in result.steps:
                retried = f"  ({step.attempts} attempts)" if step.attempts > 1 else ""
                print(
                    f"{step.step:>4}  {step.vm_name:<12} "
                    f"{step.objective_value:>12.4f} {step.best_value:>12.4f}{retried}"
                )
            print(
                f"\nstopped by {result.stopped_by} after {result.search_cost} "
                f"measurements; best {result.best_vm_name} "
                f"({result.best_value / optimum:.2f}x optimum)"
            )
            summary = _fault_summary(result)
            if summary:
                print(summary)
            return 0

        # Repeats are independent cells, so they parallelise across the
        # engine's workers; per-cell seeding (seed = repeat index) keeps
        # the summary identical for any --workers value, any supervision
        # settings, and any interruption/resume history.
        results = _run_repeats(args, trace, objective)
        costs = [r.search_cost for r in results]
        charged = [r.charged_cost for r in results]
        ratios = [r.best_value / optimum for r in results]
    except (ValueError, MeasurementError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"{args.method} on {args.workload} ({objective.value}), "
        f"{args.repeats} repeats:"
    )
    print(
        f"  search cost: median {float(np.median(costs)):.1f} "
        f"(min {min(costs)}, max {max(costs)})"
    )
    if charged != costs:
        print(
            f"  charged cost (failures included): median "
            f"{float(np.median(charged)):.1f} (max {max(charged)})"
        )
    print(f"  best-vs-optimum: median {float(np.median(ratios)):.3f}x")
    for repeat, (result, ratio) in enumerate(zip(results, ratios)):
        print(
            f"  repeat {repeat}: seed {_repeat_seed(args.workload, repeat)}, "
            f"search cost {result.search_cost}, charged {result.charged_cost}, "
            f"best {result.best_vm_name} ({ratio:.3f}x optimum)"
        )
    return 0


# -- queue worker / status -------------------------------------------------


def _queue_workloads(queue) -> list[str]:
    """Distinct workload ids currently enqueued (sorted)."""
    return sorted(
        row[0]
        for row in queue._con.execute("SELECT DISTINCT workload FROM cells")
        if row[0]
    )


def _check_queue_key(args: argparse.Namespace, queue, workloads: list[str]) -> str | None:
    """Refuse a queue this worker's flags cannot faithfully serve.

    The coordinator recorded its cache key (grid key + objective) in the
    queue; a worker rebuilding optimisers from CLI flags must reproduce
    that key exactly, or its results would be values the coordinator's
    settings never produced.  Returns an error message, or ``None`` when
    the worker may proceed.
    """
    if args.allow_key_mismatch:
        return None
    if len(workloads) != 1:
        return (
            f"queue {queue.path} holds {len(workloads)} workloads; 'arrow "
            "queue-worker' can only verify single-workload search campaigns "
            "(pass --allow-key-mismatch to serve it anyway)"
        )
    probe = argparse.Namespace(**vars(args))
    probe.workload = workloads[0]
    expected = f"{_search_grid_key(probe)}__{Objective.from_name(args.objective).value}"
    if queue.cache_key != expected:
        return (
            f"queue {queue.path} belongs to grid {queue.cache_key!r} but "
            f"these flags produce {expected!r}; align the optimiser flags "
            "with the coordinator's, or pass --allow-key-mismatch"
        )
    return None


def _cmd_queue_worker(args: argparse.Namespace) -> int:
    import time as _time

    from repro.parallel.queue import WorkQueue, default_owner, queue_worker_loop

    queue_path = Path(args.queue_db)
    deadline = _time.monotonic() + args.wait_for_db
    while not queue_path.exists():
        if _time.monotonic() >= deadline:
            print(f"error: no queue database at {queue_path}", file=sys.stderr)
            return 1
        _time.sleep(0.1)
    try:
        queue = WorkQueue.attach(queue_path)
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        trace = _load_trace_arg(args.trace, args.catalog)
        problem = _check_queue_key(args, queue, _queue_workloads(queue))
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 1

        def run_lease(lease):
            environment = _wrap_faults(args, trace.environment(lease.workload_id))
            # The stored per-cell seed — not this process's --seed —
            # decides the run, so any worker reproduces any cell.
            return _build_optimizer(args, environment, seed=lease.seed).run()

        owner = args.owner if args.owner else default_owner()
        completed = queue_worker_loop(
            queue,
            run_lease,
            owner=owner,
            poll_interval_s=args.poll_interval,
            exit_when_drained=not args.follow,
            max_cells=args.max_cells,
        )
        print(f"worker {owner}: processed {completed} cell(s)")
        return 0
    finally:
        queue.close()


def _queue_partial_credit(queue) -> float | None:
    """Attempt-units spot billing saved across the queue's done cells.

    Sums ``attempts - sum(charges)`` over every stored done payload —
    zero for an on-demand grid, positive once revocations banked
    partial charges.  ``None`` when nothing is done yet (nothing to
    report) or the queue predates charge accounting.
    """
    totals = []
    for _cell, state, payload, _error, _attempts in queue.terminal_cells():
        if state != "done" or not isinstance(payload, dict):
            continue
        steps = payload.get("steps", [])
        failures = payload.get("failures", [])
        attempts = len(steps) + len(failures)
        charged = sum(
            float(row[3]) if len(row) == 4 else 1.0 for row in steps
        ) + sum(float(row[4]) if len(row) == 5 else 1.0 for row in failures)
        totals.append(attempts - charged)
    if not totals:
        return None
    return sum(totals)


def _cmd_queue_status(args: argparse.Namespace) -> int:
    from repro.parallel.queue import WorkQueue

    queue_path = Path(args.queue_db)
    if not queue_path.exists():
        print(f"error: no queue database at {queue_path}", file=sys.stderr)
        return 1
    try:
        queue = WorkQueue.attach(queue_path, readonly=True)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        counts = queue.counts()
        total = sum(counts.values())
        print(f"queue {queue_path}")
        print(
            f"grid {queue.cache_key}; pricing {queue.pricing}; "
            f"lease {queue.lease_duration_s:.0f}s; "
            f"max attempts {queue.max_attempts}"
        )
        print(f"\ncells ({total} total):")
        for state, count in counts.items():
            print(f"  {state:<9} {count}")
        leases = queue.leases()
        if leases:
            print("\nactive leases:")
            print(
                f"  {'workload':<40} {'rep':>3} {'owner':<28} "
                f"{'att':>3} {'pricing':<9} {'beat age':>9} {'expires':>8}"
            )
            for (workload_id, repeat), owner, attempts, age, left in leases:
                print(
                    f"  {workload_id:<40} {repeat:>3} {owner:<28} "
                    f"{attempts:>3} {queue.pricing:<9} {age:>8.1f}s {left:>7.1f}s"
                )
        credit = _queue_partial_credit(queue)
        if credit is not None:
            print(
                f"\ncumulative partial credit: {credit:.6f} attempt-unit(s) "
                "saved vs unit billing across done cells"
            )
        histogram = queue.attempt_histogram()
        if histogram:
            print("\nattempts histogram:")
            print(
                bar_chart(
                    {f"{attempts} attempt(s)": float(count)
                     for attempts, count in histogram.items()},
                    unit=" cells",
                )
            )
        return 0
    finally:
        queue.close()


# -- profile --------------------------------------------------------------


def _cmd_profile(args: argparse.Namespace) -> int:
    registry = default_registry()
    if args.workload not in registry:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    try:
        vm = get_vm_type(args.vm)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    workload = registry.get(args.workload)
    model = PerformanceModel()
    breakdown = model.breakdown(vm, workload.profile)
    sar = record_sar_trace(
        vm, workload.profile, breakdown, interval_s=args.interval, seed=args.seed
    )
    matrix = sar.to_matrix()

    print(f"{args.workload} on {vm.name}: {breakdown.total_time_s:.0f}s simulated")
    print(
        f"compute {breakdown.compute_time_s:.0f}s, disk {breakdown.disk_time_s:.0f}s, "
        f"paging {'yes' if breakdown.paging else 'no'} "
        f"(memory ratio {breakdown.memory_ratio:.2f})\n"
    )
    print(
        line_chart(
            {
                "cpu user %": matrix[:, 0].tolist(),
                "iowait %": matrix[:, 1].tolist(),
                "mem commit %": matrix[:, 3].tolist(),
            },
            x_label=f"samples ({args.interval:.0f}s interval)",
            y_label="utilisation",
            y_min=0.0,
        )
    )
    summary = sar.aggregate()
    print(
        f"\nsummary: cpu {summary.cpu_user_pct:.0f}%, iowait "
        f"{summary.cpu_iowait_pct:.0f}%, mem commit {summary.mem_commit_pct:.0f}%, "
        f"disk util {summary.disk_util_pct:.0f}%, disk wait {summary.disk_wait_ms:.1f}ms"
    )
    return 0


# -- figure -----------------------------------------------------------------


def _cmd_figure(args: argparse.Namespace) -> int:
    chart = FIGURES[args.name].chart
    path = Path(args.dir) / f"{args.name}.json"
    if not path.exists():
        print(
            f"error: {path} not found — run scripts/build_cache.py first",
            file=sys.stderr,
        )
        return 1
    try:
        payload = json.loads(path.read_text())
        text = json.dumps(payload, indent=2) if chart is None else render_chart(chart, payload)
    except (ValueError, KeyError, TypeError) as error:
        # A truncated file fails to decode; a mis-shaped one lacks what
        # the chart reads.
        print(
            f"error: {path} is not a valid {args.name} figure "
            f"({type(error).__name__}: {error})",
            file=sys.stderr,
        )
        return 1
    print(text)
    return 0


# -- experiments -------------------------------------------------------------


def _cmd_experiments(args: argparse.Namespace) -> int:
    for name, figure in FIGURES.items():
        print(f"{name:<8} {figure.title}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``arrow`` argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="arrow",
        description="Low-level augmented Bayesian optimisation for cloud VM selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser(
        "catalog",
        help="show VM catalogs (bare: the paper's 18 types)",
        description="Bare 'arrow catalog' prints the paper's 18-type "
        "default catalog.  'arrow catalog list' enumerates every "
        "registered catalog; 'arrow catalog show NAME' prints one "
        "catalog's summary (type count, families, per-provider price "
        "ranges) and full table.",
    )
    catalog.add_argument(
        "action", nargs="?", choices=["list", "show"],
        help="list registered catalogs, or show one by name",
    )
    catalog.add_argument(
        "name", nargs="?",
        help="catalog name for 'show', e.g. 'aws-large'",
    )
    catalog.set_defaults(func=_cmd_catalog)

    workloads = sub.add_parser("workloads", help="list the 107 workloads")
    workloads.add_argument("--framework", choices=[f.value for f in Framework])
    workloads.add_argument("--category", choices=[c.value for c in Category])
    workloads.add_argument("--size", choices=[s.value for s in InputSize])
    workloads.add_argument("--application")
    workloads.set_defaults(func=_cmd_workloads)

    trace = sub.add_parser("trace", help="generate or summarise a benchmark trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_gen = trace_sub.add_parser("generate", help="sweep all workloads and save")
    trace_gen.add_argument("--seed", type=int, default=2018)
    trace_gen.add_argument(
        "--catalog", choices=catalog_names(), default=DEFAULT_CATALOG_NAME,
        help="VM catalog to sweep (default: the paper's 18 types)",
    )
    trace_gen.add_argument("--out", required=True)
    trace_gen.set_defaults(func=_cmd_trace_generate)
    trace_stats = trace_sub.add_parser("stats", help="summarise a trace")
    trace_stats.add_argument("--path", help="trace JSON (default: canonical)")
    trace_stats.add_argument(
        "--objective", choices=["time", "cost", "product"], default="time"
    )
    trace_stats.set_defaults(func=_cmd_trace_stats)

    search = sub.add_parser("search", help="run an optimiser on one workload")
    search.add_argument("workload", help='e.g. "als/Spark 2.1/medium"')
    _add_optimizer_flags(search)
    search.add_argument("--repeats", type=int, default=1)
    search.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for --repeats > 1 (results are identical "
        "for any worker count)",
    )
    search.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per repeat when running on local "
        "workers; a straggler past it is cancelled and completed serially",
    )
    search.add_argument(
        "--cache-dir",
        help="cache directory for --repeats campaigns; completed repeats "
        "persist across invocations and interruptions (each is recorded in "
        "a .queue file next to the cache as it finishes, a vector round's "
        "together). A cache is stamped with its schema, not with the code "
        "that wrote it: after a change that moves search results, use a "
        "fresh directory",
    )
    search.add_argument(
        "--resume", action="store_true",
        help="with --cache-dir: fold results an interrupted campaign "
        "recorded in its .queue file back in, under any --executor, and "
        "recompute only the cells it lost in flight",
    )
    search.add_argument(
        "--executor", choices=["auto", "serial", "queue", "vector"],
        default="auto",
        help="execution backend for --repeats campaigns: auto (serial, or "
        "the work queue's local workers from --workers), serial, queue — "
        "a durable SQLite work queue next to the cache (requires "
        "--cache-dir) that survives crashes, is kept after the run and "
        "admits external 'arrow queue-worker' processes — or vector, "
        "which steps every search in lock-step "
        "and batches per-round surrogate algebra across them "
        "(in-process, bit-identical results to serial)",
    )
    search.add_argument(
        "--queue-workers", type=int, default=None, metavar="N",
        help="with --executor queue: local pull-workers the coordinator "
        "forks (default: --workers; 0 = rely on an external fleet)",
    )
    search.add_argument(
        "--queue-lease", type=float, default=30.0, metavar="SECONDS",
        help="with --executor queue: heartbeat-free lease lifetime before "
        "a worker is presumed dead and its cell requeued",
    )
    search.add_argument(
        "--queue-max-attempts", type=int, default=3,
        help="with --executor queue: attempts per cell before it is "
        "parked for the coordinator to complete serially",
    )
    search.add_argument(
        "--queue-stall-timeout", type=float, default=60.0, metavar="SECONDS",
        help="with --executor queue: with work outstanding but no live "
        "workers or queue activity for this long, the coordinator "
        "completes the remaining cells itself",
    )
    search.set_defaults(func=_cmd_search)

    queue_worker = sub.add_parser(
        "queue-worker",
        help="pull and execute cells from a durable work queue",
        description="Join a grid's worker fleet: claim leased cells from "
        "the queue database an 'arrow search --executor queue' "
        "coordinator maintains, execute them with their stored "
        "deterministic seeds, and record results durably.  Safe to run "
        "many in parallel, on one box or across boxes sharing the "
        "filesystem; a killed worker's cells are requeued automatically.",
    )
    queue_worker.add_argument(
        "--queue-db", required=True,
        help="the queue database file (<cache>.queue next to the cache)",
    )
    _add_optimizer_flags(queue_worker)
    queue_worker.add_argument(
        "--owner", help="worker identity (default: host-pid-token)"
    )
    queue_worker.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="SECONDS",
        help="idle sleep between claim attempts",
    )
    queue_worker.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after this many cells (default: unbounded)",
    )
    queue_worker.add_argument(
        "--follow", action="store_true",
        help="keep polling after the queue drains instead of exiting "
        "(serve a campaign that is still enqueueing)",
    )
    queue_worker.add_argument(
        "--wait-for-db", type=float, default=0.0, metavar="SECONDS",
        help="wait up to this long for the queue database to appear "
        "(lets workers start before the coordinator)",
    )
    queue_worker.add_argument(
        "--allow-key-mismatch", action="store_true",
        help="serve a queue whose recorded grid key does not match the "
        "optimiser flags given here (DANGER: a mismatched worker "
        "records results the coordinator's settings never produced)",
    )
    queue_worker.set_defaults(func=_cmd_queue_worker)

    queue_status = sub.add_parser(
        "queue-status",
        help="inspect a durable work queue (read-only)",
        description="Per-state cell counts, active leases with heartbeat "
        "ages, and the attempt histogram of one queue database.  Opens "
        "the file read-only — safe while a grid is running.",
    )
    queue_status.add_argument(
        "--queue-db", required=True,
        help="the queue database file (<cache>.queue next to the cache)",
    )
    queue_status.set_defaults(func=_cmd_queue_status)

    profile = sub.add_parser("profile", help="simulate a run's sysstat time series")
    profile.add_argument("workload")
    profile.add_argument("vm", help='e.g. "c4.2xlarge"')
    profile.add_argument("--interval", type=float, default=1.0)
    profile.add_argument("--seed", type=int, default=0)
    profile.set_defaults(func=_cmd_profile)

    figure = sub.add_parser("figure", help="render a cached experiment figure")
    figure.add_argument("name", choices=list(FIGURES))
    figure.add_argument("--dir", default="results/figures")
    figure.set_defaults(func=_cmd_figure)

    experiments = sub.add_parser("experiments", help="list the experiment index")
    experiments.set_defaults(func=_cmd_experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
