"""The measurable cloud: the black-box ``f`` that optimisers call.

In the paper, ``f(vm)`` deploys the workload on a VM type, runs it to
completion under a sysstat daemon, and returns the execution time (hence
deployment cost) and the collected low-level metrics — each call costs
real money, which is why search cost is counted in measurements.

:class:`SimulatedCloud` reproduces that interface over the performance
model.  :class:`MeasurementEnvironment` is the protocol optimisers depend
on, so they run unchanged against either a live simulation or a recorded
trace (:class:`repro.trace.dataset.TraceEnvironment`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.cloud.catalog import Catalog, VMArrays
from repro.cloud.pricing import PriceList, default_price_list, deployment_cost
from repro.cloud.vmtypes import VMType, default_catalog
from repro.simulator.lowlevel import LowLevelMetrics, derive_metrics
from repro.simulator.noise import InterferenceModel
from repro.simulator.perfmodel import PerformanceModel
from repro.workloads.spec import ResourceProfile, Workload

_MODEL = PerformanceModel()


@dataclass(frozen=True, slots=True)
class Measurement:
    """The outcome of running one workload once on one VM type."""

    vm: VMType
    execution_time_s: float
    cost_usd: float
    metrics: LowLevelMetrics


def simulate_runs(
    profile: ResourceProfile, vms: VMArrays, noise: InterferenceModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a workload once on every VM of ``vms``, in column order.

    Returns the execution times, the deployment costs and the
    ``(n_vms, 6)`` low-level metrics, with ``noise`` drawn in VM order:
    the same values as measuring the VMs one at a time.
    """
    breakdown = _MODEL.breakdown(vms, profile)
    times, metrics = noise.perturb(
        breakdown.total_time_s, derive_metrics(vms, profile, breakdown)
    )
    return times, deployment_cost(times, vms), metrics


@runtime_checkable
class MeasurementEnvironment(Protocol):
    """What an optimiser needs from the world: measure a VM, count the bill."""

    @property
    def catalog(self) -> tuple[VMType, ...]:
        """The VM types available for measurement."""
        ...

    @property
    def measurement_count(self) -> int:
        """How many measurement *attempts* have been charged so far.

        Failed attempts count too: the cloud bills a run that a spot
        reclamation killed.  Implementations must charge before the
        measurement can fail.
        """
        ...

    def measure(self, vm: VMType) -> Measurement:
        """Run the workload on ``vm`` and return the measured outcome.

        May raise on real clouds (or under a
        :class:`~repro.faults.models.FaultInjector`); the attempt is
        charged regardless.
        """
        ...

    def reset(self) -> None:
        """Reset the measurement counter (the trace/noise stream may continue)."""
        ...


class SimulatedCloud:
    """Live simulation of measuring one workload across the VM catalog.

    Each :meth:`measure` call draws fresh interference noise, mimicking
    repeated real executions.  Use a fixed ``seed`` for reproducible runs.
    """

    def __init__(
        self,
        workload: Workload,
        catalog: "Catalog | tuple[VMType, ...] | None" = None,
        prices: PriceList | None = None,
        noise: InterferenceModel | None = None,
        seed: int | None = None,
    ) -> None:
        if noise is not None and seed is not None:
            raise ValueError("pass either a noise model or a seed, not both")
        self.workload = workload
        if isinstance(catalog, Catalog):
            # A named catalog brings its own price list unless overridden.
            self._catalog = catalog.vms
            self._prices = prices if prices is not None else catalog.prices
        else:
            self._catalog = catalog if catalog is not None else default_catalog()
            self._prices = prices if prices is not None else default_price_list()
        self._noise = noise if noise is not None else InterferenceModel(seed=seed)
        self._arrays = VMArrays(self._catalog, self._prices)
        self._count = 0

    @property
    def catalog(self) -> tuple[VMType, ...]:
        return self._catalog

    @property
    def measurement_count(self) -> int:
        return self._count

    def _run(self, vms: VMArrays) -> list[Measurement]:
        self._count += len(vms)
        times, costs, metrics = simulate_runs(self.workload.profile, vms, self._noise)
        return [
            Measurement(
                vm=vm,
                execution_time_s=float(times[i]),
                cost_usd=float(costs[i]),
                metrics=LowLevelMetrics.from_vector(metrics[i]),
            )
            for i, vm in enumerate(vms.vms)
        ]

    def measure(self, vm: VMType) -> Measurement:
        """Simulate one full run of the workload on ``vm``.

        The attempt is charged up front, so a wrapper that makes this
        call fail (fault injection, a live cloud) still bills it.
        """
        return self._run(VMArrays((vm,), self._prices))[0]

    def reset(self) -> None:
        self._count = 0

    def arm_for(self, spawn_key: tuple[int, ...]) -> None:
        """Re-seed the interference stream for one batched measurement task.

        Makes the noise a task draws a pure function of its spawn key,
        independent of completion order and worker count.
        """
        self._noise.reseed(np.random.default_rng(list(spawn_key)))

    def measure_all(self) -> list[Measurement]:
        """Measure every VM in the catalog once (a brute-force sweep)."""
        return self._run(self._arrays)

    def noise_free_times(self) -> np.ndarray:
        """Ground-truth execution times per catalog VM (for analysis only)."""
        return _MODEL.execution_time(self._arrays, self.workload.profile)
