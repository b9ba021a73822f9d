"""Sysstat-style low-level metrics derived from the latent execution state.

The paper's Augmented BO consumes six low-level metric groups collected by
a sysstat daemon during each measured run (Section IV-A):

* workload progress — CPU utilisation (user time), I/O wait time, number
  of tasks in the task list,
* memory pressure — % of commits in memory,
* I/O pressure — disk utilisation and disk wait time.

We derive the same six from the :class:`PhaseBreakdown` the performance
model produced, so the metrics of a *measured* VM carry real information
about the workload's latent demands — which is exactly the property the
paper's surrogate exploits to predict performance on *unmeasured* VMs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.catalog import VMArrays
from repro.cloud.vmtypes import VMType
from repro.simulator.perfmodel import PhaseBreakdown, libm_pow
from repro.workloads.spec import ResourceProfile

#: Metric names in canonical vector order.
METRIC_NAMES: tuple[str, ...] = (
    "cpu_user_pct",
    "cpu_iowait_pct",
    "task_count",
    "mem_commit_pct",
    "disk_util_pct",
    "disk_wait_ms",
)

#: Memory commit saturates: the OS will not report more than ~140% commit.
_MEM_COMMIT_CAP_PCT = 140.0


@dataclass(frozen=True)
class LowLevelMetrics:
    """One run's low-level metric summary (time-averaged, as sysstat reports)."""

    cpu_user_pct: float
    cpu_iowait_pct: float
    task_count: float
    mem_commit_pct: float
    disk_util_pct: float
    disk_wait_ms: float

    def to_vector(self) -> np.ndarray:
        """Return the metrics as a float vector in :data:`METRIC_NAMES` order.

        The vector is built once per instance and memoised (the class is
        frozen, so it cannot go stale): the pairwise surrogate reads every
        measured VM's metrics on *every* search step, and rebuilding the
        array each time was a measurable constant in the hot path.  The
        returned array is marked read-only because it is shared.
        """
        cached = self.__dict__.get("_vector")
        if cached is None:
            cached = np.array(
                [
                    self.cpu_user_pct,
                    self.cpu_iowait_pct,
                    self.task_count,
                    self.mem_commit_pct,
                    self.disk_util_pct,
                    self.disk_wait_ms,
                ]
            )
            cached.flags.writeable = False
            object.__setattr__(self, "_vector", cached)
        return cached

    @classmethod
    def from_vector(cls, values: np.ndarray) -> LowLevelMetrics:
        """Inverse of :meth:`to_vector`.

        Raises:
            ValueError: if ``values`` does not have exactly 6 entries.
        """
        flat = np.asarray(values, dtype=float).ravel()
        if flat.shape != (len(METRIC_NAMES),):
            raise ValueError(
                f"expected {len(METRIC_NAMES)} metric values, got shape {flat.shape}"
            )
        return cls(*map(float, flat))


def derive_metrics(
    vm: VMType | VMArrays, profile: ResourceProfile, breakdown: PhaseBreakdown
) -> LowLevelMetrics | np.ndarray:
    """Derive noise-free low-level metrics for a run.

    CPU-user and I/O-wait shares follow the phase balance; memory commit
    tracks the working-set-to-RAM ratio (saturating, as real ``%commit``
    does); disk wait grows superlinearly with disk utilisation, spiking
    under paging — the signature visible in the paper's Figure 8.

    For one VM type this returns a :class:`LowLevelMetrics`.  For a
    :class:`~repro.cloud.catalog.VMArrays`, with the array ``breakdown``
    of the same VMs, it returns an ``(n_vms, 6)`` array in
    :data:`METRIC_NAMES` order.
    """
    if isinstance(vm, VMType):
        return LowLevelMetrics.from_vector(
            derive_metrics(VMArrays((vm,)), profile, breakdown)[0]
        )
    busy = breakdown.compute_time_s + breakdown.disk_time_s
    with np.errstate(divide="ignore", invalid="ignore"):
        cpu_share = np.where(busy > 0, breakdown.compute_time_s / busy, 0.0)
        io_share = np.where(busy > 0, breakdown.disk_time_s / busy, 0.0)
        paging_per_gb = np.where(vm.ram_gb != 0, breakdown.paging_gb / vm.ram_gb, 0.0)

    # Parallel efficiency limits achievable CPU utilisation: a workload
    # with speedup 3 on 8 cores cannot drive all 8 cores to 100%.
    parallel_efficiency = breakdown.parallel_speedup / vm.vcpus
    cpu_user = 100.0 * cpu_share * (0.35 + 0.65 * parallel_efficiency)
    cpu_iowait = 100.0 * io_share * 0.9

    mem_commit = np.minimum(100.0 * breakdown.memory_ratio, _MEM_COMMIT_CAP_PCT)

    disk_util = 100.0 * np.minimum(1.0, breakdown.disk_time_s / breakdown.total_time_s)
    paging_surge = 1.0 + 0.5 * paging_per_gb
    disk_wait = (2.0 + 45.0 * libm_pow(disk_util / 100.0, 3)) * paging_surge

    task_count = vm.vcpus * (1.0 + 2.0 * profile.parallel_fraction)

    columns = (cpu_user, cpu_iowait, task_count, mem_commit, disk_util, disk_wait)
    return np.stack(np.broadcast_arrays(*columns), axis=-1)
