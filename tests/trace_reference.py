"""Test reference for trace synthesis: one scalar measurement at a time.

The library evaluates the performance model, the low-level metrics, the
interference noise and the deployment cost over catalog-length arrays
(:func:`repro.simulator.cluster.simulate_runs`), one pass per workload.
This module keeps the textbook form the tests check it against: every
(workload, VM) cell is one measurement built from Python floats, with its
own ``normal(0, sigma)`` draws, exactly as the library measured before it
went row-wise.

* :func:`reference_breakdown` and :func:`reference_metrics` are the
  scalar performance and metric formulas;
* :class:`ReferenceCloud` measures one VM per call on its own noise
  stream (``arm_for`` re-seeds it, as :class:`SimulatedCloud` does);
* :func:`reference_trace` sweeps a registry over a catalog cell by cell,
  with :func:`~repro.trace.generate.generate_trace`'s per-workload seeds.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.cloud.catalog import Catalog
from repro.cloud.pricing import PriceList, default_price_list
from repro.cloud.vmtypes import VMType
from repro.simulator.noise import DEFAULT_METRIC_SIGMA, DEFAULT_TIME_SIGMA
from repro.simulator.perfmodel import (
    MEM_SAFE_FRACTION,
    MEM_STALL_FACTOR,
    PAGING_BANDWIDTH_FRACTION,
    PAGING_CHURN,
    PHASE_OVERLAP,
    PhaseBreakdown,
)
from repro.workloads.registry import WorkloadRegistry
from repro.workloads.spec import ResourceProfile, Workload


def reference_breakdown(vm: VMType, profile: ResourceProfile) -> PhaseBreakdown:
    """The phase decomposition of one run, in Python floats."""
    par = profile.parallel_fraction
    speedup = 1.0 / ((1.0 - par) + par / vm.vcpus)
    core_speed = vm.clock_factor**profile.cpu_gen_sensitivity

    memory_ratio = profile.working_set_gb / vm.ram_gb
    overflow_ratio = max(0.0, memory_ratio - MEM_SAFE_FRACTION)
    paging_gb = PAGING_CHURN * overflow_ratio * vm.ram_gb
    mem_stall = 1.0 + MEM_STALL_FACTOR * overflow_ratio

    compute_time = profile.cpu_seconds / (speedup * core_speed) * mem_stall

    bulk_gb = profile.io_gb + profile.shuffle_gb
    disk_time = (
        bulk_gb * 1024.0 / vm.disk_mbps
        + paging_gb * 1024.0 / (vm.disk_mbps * PAGING_BANDWIDTH_FRACTION)
    )

    longer, shorter = max(compute_time, disk_time), min(compute_time, disk_time)
    total = longer + (1.0 - PHASE_OVERLAP) * shorter

    return PhaseBreakdown(
        compute_time_s=compute_time,
        disk_time_s=disk_time,
        total_time_s=total,
        paging_gb=paging_gb,
        memory_ratio=memory_ratio,
        parallel_speedup=speedup,
    )


def reference_metrics(
    vm: VMType, profile: ResourceProfile, breakdown: PhaseBreakdown
) -> np.ndarray:
    """The six noise-free low-level metrics of one run, in metric order."""
    busy = breakdown.compute_time_s + breakdown.disk_time_s
    cpu_share = breakdown.compute_time_s / busy if busy > 0 else 0.0
    io_share = breakdown.disk_time_s / busy if busy > 0 else 0.0

    parallel_efficiency = breakdown.parallel_speedup / vm.vcpus
    cpu_user = 100.0 * cpu_share * (0.35 + 0.65 * parallel_efficiency)
    cpu_iowait = 100.0 * io_share * 0.9

    mem_commit = min(100.0 * breakdown.memory_ratio, 140.0)

    disk_util = 100.0 * min(1.0, breakdown.disk_time_s / breakdown.total_time_s)
    paging_surge = 1.0 + 0.5 * (breakdown.paging_gb / vm.ram_gb if vm.ram_gb else 0.0)
    disk_wait = (2.0 + 45.0 * (disk_util / 100.0) ** 3) * paging_surge

    task_count = vm.vcpus * (1.0 + 2.0 * profile.parallel_fraction)

    return np.array(
        [cpu_user, cpu_iowait, task_count, mem_commit, disk_util, disk_wait]
    )


class ReferenceCloud:
    """Measure one workload one VM at a time, drawing noise per call."""

    def __init__(
        self,
        workload: Workload,
        prices: PriceList | None = None,
        seed: int | np.random.Generator | None = None,
        time_sigma: float = DEFAULT_TIME_SIGMA,
        metric_sigma: float = DEFAULT_METRIC_SIGMA,
    ) -> None:
        self.workload = workload
        self.prices = prices if prices is not None else default_price_list()
        self.time_sigma = time_sigma
        self.metric_sigma = metric_sigma
        self._rng = np.random.default_rng(seed)

    def arm_for(self, spawn_key: tuple[int, ...]) -> None:
        self._rng = np.random.default_rng(np.random.default_rng(list(spawn_key)))

    def measure(self, vm: VMType) -> tuple[float, float, np.ndarray]:
        """``(execution time, cost, metric vector)`` of one noisy run."""
        profile = self.workload.profile
        breakdown = reference_breakdown(vm, profile)
        time_s = breakdown.total_time_s
        if self.time_sigma != 0.0:
            time_s = float(time_s * np.exp(self._rng.normal(0.0, self.time_sigma)))
        metrics = reference_metrics(vm, profile, breakdown)
        if self.metric_sigma != 0.0:
            metrics = metrics * np.exp(
                self._rng.normal(0.0, self.metric_sigma, size=metrics.shape)
            )
        cost = time_s * self.prices.price_per_second(vm)
        return time_s, cost, metrics


def reference_trace(
    seed: int,
    registry: WorkloadRegistry,
    catalog: Catalog,
    time_sigma: float = DEFAULT_TIME_SIGMA,
    metric_sigma: float = DEFAULT_METRIC_SIGMA,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(times, costs, metrics)`` of a trace, measured cell by cell."""
    n_w, n_v = len(registry), len(catalog.vms)
    times = np.empty((n_w, n_v))
    costs = np.empty((n_w, n_v))
    metrics = np.empty((n_w, n_v, 6))
    for row, workload in enumerate(registry):
        cloud = ReferenceCloud(
            workload,
            prices=catalog.prices,
            seed=seed ^ zlib.crc32(workload.workload_id.encode()),
            time_sigma=time_sigma,
            metric_sigma=metric_sigma,
        )
        for col, vm in enumerate(catalog.vms):
            times[row, col], costs[row, col], metrics[row, col] = cloud.measure(vm)
    return times, costs, metrics
