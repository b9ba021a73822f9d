"""Execution-time model: where latent workload demands meet VM hardware.

The model composes three interacting phases:

* **compute** — Amdahl's law over the VM's vCPUs, with per-core speed
  ``clock_factor ** cpu_gen_sensitivity`` (clock-bound workloads feel the
  full family clock difference; I/O-shaped ones barely notice it),
* **disk** — bulk I/O plus shuffle traffic through the best available disk
  path (local SSD on third-generation families, EBS otherwise),
* **paging** — the performance cliff: once the working set exceeds a safe
  fraction of VM RAM, the overflow is churned through the disk several
  times over and the CPU stalls on memory pressure.  This is what makes
  e.g. ``lr`` 14x slower on ``c3.large`` than on ``c4.2xlarge`` (paper
  Figure 8) and what makes the objective non-smooth in the encoded
  instance space (the paper's fragility argument, Section III-B).

Compute and disk partially overlap, as they do in real pipelines: the
total is the longer phase plus half the shorter one.

All outputs here are noise-free; interference noise is applied separately
by :class:`repro.simulator.noise.InterferenceModel` so that execution time
and low-level metrics are perturbed independently (the metrics must not be
a clean invertible function of the measured time).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.cloud.catalog import VMArrays
from repro.cloud.vmtypes import VMType
from repro.workloads.spec import ResourceProfile

#: Fraction of VM RAM usable before paging starts (OS + framework overhead).
MEM_SAFE_FRACTION = 0.85

#: How many times each GiB of working-set overflow crosses the disk.
PAGING_CHURN = 16.0

#: Paging is random-access: it achieves only this fraction of the disk's
#: sequential bandwidth.
PAGING_BANDWIDTH_FRACTION = 0.3

#: CPU slowdown per unit of working-set overflow ratio (memory stalls).
MEM_STALL_FACTOR = 0.6

#: Fraction of the shorter phase that overlaps the longer one.
PHASE_OVERLAP = 0.5


def libm_pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` element by element through C's ``pow``.

    Python's float ``**`` calls libm ``pow``; ``np.power`` runs its own
    SIMD loop, which rounds differently on some inputs (about 5% of them
    on an AVX-512 host).  Traces are pinned bit for bit, so the model's
    two powers go through this.
    """
    flat = [value**exponent for value in np.ravel(base).tolist()]
    return np.array(flat).reshape(np.shape(base))


@dataclass(frozen=True, slots=True)
class PhaseBreakdown:
    """Noise-free decomposition of one workload's execution.

    This is the latent state shared by the execution-time model and the
    low-level metric derivation.  For one VM type every field is a float;
    for a :class:`~repro.cloud.catalog.VMArrays` every field is an array
    with one entry per VM.
    """

    compute_time_s: float | np.ndarray
    disk_time_s: float | np.ndarray
    total_time_s: float | np.ndarray
    paging_gb: float | np.ndarray
    memory_ratio: float | np.ndarray
    parallel_speedup: float | np.ndarray

    @property
    def paging(self) -> bool | np.ndarray:
        """Whether the working set overflowed the VM's safe RAM capacity."""
        return self.paging_gb > 0.0

    def row(self, index: int) -> PhaseBreakdown:
        """One VM's breakdown, with float fields, out of an array breakdown."""
        return PhaseBreakdown(
            *(float(getattr(self, f.name)[index]) for f in fields(self))
        )


class PerformanceModel:
    """Deterministic bottleneck-composition performance model.

    The model is stateless; parameters are module constants because the
    paper's phenomena depend on their relations, not their exact values,
    and a single canonical parameterisation keeps every experiment
    comparable.
    """

    def breakdown(
        self, vm: VMType | VMArrays, profile: ResourceProfile
    ) -> PhaseBreakdown:
        """Compute the full phase decomposition for ``profile`` on ``vm``.

        ``vm`` is one VM type (float fields) or a
        :class:`~repro.cloud.catalog.VMArrays` (one array entry per VM).
        """
        if isinstance(vm, VMType):
            return self.breakdown(VMArrays((vm,)), profile).row(0)
        par = profile.parallel_fraction
        speedup = 1.0 / ((1.0 - par) + par / vm.vcpus)
        core_speed = libm_pow(vm.clock_factor, profile.cpu_gen_sensitivity)

        memory_ratio = profile.working_set_gb / vm.ram_gb
        overflow_ratio = np.maximum(0.0, memory_ratio - MEM_SAFE_FRACTION)
        paging_gb = PAGING_CHURN * overflow_ratio * vm.ram_gb
        mem_stall = 1.0 + MEM_STALL_FACTOR * overflow_ratio

        compute_time = profile.cpu_seconds / (speedup * core_speed) * mem_stall

        bulk_gb = profile.io_gb + profile.shuffle_gb
        disk_time = (
            bulk_gb * 1024.0 / vm.disk_mbps
            + paging_gb * 1024.0 / (vm.disk_mbps * PAGING_BANDWIDTH_FRACTION)
        )

        longer = np.maximum(compute_time, disk_time)
        shorter = np.minimum(compute_time, disk_time)
        total = longer + (1.0 - PHASE_OVERLAP) * shorter

        return PhaseBreakdown(
            compute_time_s=compute_time,
            disk_time_s=disk_time,
            total_time_s=total,
            paging_gb=paging_gb,
            memory_ratio=memory_ratio,
            parallel_speedup=speedup,
        )

    def execution_time(
        self, vm: VMType | VMArrays, profile: ResourceProfile
    ) -> float | np.ndarray:
        """Noise-free execution time in seconds of ``profile`` on ``vm``."""
        return self.breakdown(vm, profile).total_time_s
