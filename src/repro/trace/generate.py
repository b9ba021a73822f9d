"""Deterministic trace generation.

``generate_trace(seed)`` sweeps every workload across every VM through the
simulator, with each workload's interference-noise stream seeded from the
trace seed and the workload id — so the canonical trace is bit-identical
across processes and machines.  Each workload row is one array pass over
the catalog (:func:`~repro.simulator.cluster.simulate_runs`), equal bit
for bit to measuring its VMs one at a time.  ``default_trace()`` memoises
the canonical ``seed=2018`` trace used by all experiments.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict

import numpy as np

from repro.cloud.catalog import DEFAULT_CATALOG_NAME, Catalog, VMArrays, get_catalog
from repro.cloud.pricing import PriceList, default_price_list
from repro.cloud.vmtypes import VMType, default_catalog
from repro.simulator.cluster import simulate_runs
from repro.simulator.lowlevel import METRIC_NAMES
from repro.simulator.noise import InterferenceModel
from repro.trace.dataset import BenchmarkTrace
from repro.workloads.registry import WorkloadRegistry, default_registry

#: Seed of the canonical trace (the paper's data was collected in 2017-18).
DEFAULT_TRACE_SEED = 2018


def generate_trace(
    seed: int = DEFAULT_TRACE_SEED,
    registry: WorkloadRegistry | None = None,
    catalog: Catalog | tuple[VMType, ...] | None = None,
    prices: PriceList | None = None,
    time_sigma: float | None = None,
    metric_sigma: float | None = None,
) -> BenchmarkTrace:
    """Measure every workload on every VM once and record the results.

    Args:
        seed: master seed; each workload's noise stream is derived from it.
        registry: workloads to sweep (defaults to the canonical 107).
        catalog: VM types to sweep — a named :class:`Catalog` (which also
            supplies prices) or a plain tuple (defaults to the canonical 18).
        prices: price list for deployment costs.
        time_sigma: override the interference noise on execution time
            (``None`` keeps the model default; ``0.0`` gives a noise-free
            trace, useful in tests).
        metric_sigma: override the noise on low-level metrics, likewise.
    """
    registry = registry if registry is not None else default_registry()
    if isinstance(catalog, Catalog):
        catalog_name = catalog.name
        if prices is None:
            prices = catalog.prices
        catalog = catalog.vms
    else:
        catalog = catalog if catalog is not None else default_catalog()
        # A plain tuple only gets the default name when it *is* the
        # default catalog; ad-hoc tuples are recorded as "custom".
        catalog_name = (
            DEFAULT_CATALOG_NAME if catalog == default_catalog() else "custom"
        )
    prices = prices if prices is not None else default_price_list()

    vms = VMArrays(catalog, prices)
    n_w, n_v = len(registry), len(catalog)
    times = np.empty((n_w, n_v))
    costs = np.empty((n_w, n_v))
    metrics = np.empty((n_w, n_v, len(METRIC_NAMES)))

    noise_kwargs = {}
    if time_sigma is not None:
        noise_kwargs["time_sigma"] = time_sigma
    if metric_sigma is not None:
        noise_kwargs["metric_sigma"] = metric_sigma

    for row, workload in enumerate(registry):
        workload_seed = seed ^ zlib.crc32(workload.workload_id.encode())
        noise = InterferenceModel(seed=workload_seed, **noise_kwargs)
        times[row], costs[row], metrics[row] = simulate_runs(workload.profile, vms, noise)

    return BenchmarkTrace(
        registry=registry,
        catalog=catalog,
        times=times,
        costs=costs,
        metrics=metrics,
        seed=seed,
        catalog_name=catalog_name,
    )


# Bounded LRU memo for canonical traces.  A trace's bulk arrays scale
# with the catalog (107 workloads x up to ~390 types x metrics), and
# user-registered catalogs make the name space open-ended — an unbounded
# memo would pin every catalog a long-lived process ever touched.  Four
# slots comfortably cover the built-in catalogs plus one custom.
_CANONICAL_TRACES: OrderedDict[str, BenchmarkTrace] = OrderedDict()
_CANONICAL_TRACES_MAX = 4


def canonical_trace(catalog_name: str = DEFAULT_CATALOG_NAME) -> BenchmarkTrace:
    """The canonical trace (seed 2018) for a named catalog, memoised.

    ``canonical_trace()`` is the paper's dataset; other names sweep the
    same 107 workloads over that catalog's types with the same seeding
    scheme, so large-catalog searches replay deterministic data too.
    The memo is a small LRU (:data:`_CANONICAL_TRACES_MAX` entries):
    traces are deterministic, so evicting one only costs regeneration
    time, never correctness.
    """
    if catalog_name in _CANONICAL_TRACES:
        _CANONICAL_TRACES.move_to_end(catalog_name)
        return _CANONICAL_TRACES[catalog_name]
    trace = generate_trace(DEFAULT_TRACE_SEED, catalog=get_catalog(catalog_name))
    _CANONICAL_TRACES[catalog_name] = trace
    while len(_CANONICAL_TRACES) > _CANONICAL_TRACES_MAX:
        _CANONICAL_TRACES.popitem(last=False)
    return trace


def default_trace() -> BenchmarkTrace:
    """The canonical trace (seed 2018), generated once per process."""
    return canonical_trace(DEFAULT_CATALOG_NAME)
