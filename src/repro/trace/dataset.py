"""Trace container and replay environment.

:class:`BenchmarkTrace` is the study's dataset: for each (workload, VM)
pair it records execution time, deployment cost, and the six low-level
metrics.  :class:`TraceEnvironment` adapts one workload's row of the trace
to the :class:`~repro.simulator.cluster.MeasurementEnvironment` protocol,
so optimisers replay against fixed recorded values — the paper's
evaluation semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.vmtypes import VMType, default_catalog
from repro.simulator.cluster import Measurement
from repro.simulator.lowlevel import METRIC_NAMES, LowLevelMetrics
from repro.workloads.registry import WorkloadRegistry, default_registry
from repro.workloads.spec import Workload


@dataclass(frozen=True)
class BenchmarkTrace:
    """Measurements of every workload on every VM type.

    Attributes:
        registry: the workloads, in row order.
        catalog: the VM types, in column order.
        times: ``(n_workloads, n_vms)`` execution times in seconds.
        costs: ``(n_workloads, n_vms)`` deployment costs in USD.
        metrics: ``(n_workloads, n_vms, n_metrics)`` low-level metrics in
            :data:`~repro.simulator.lowlevel.METRIC_NAMES` order.
        seed: the generation seed, recorded for provenance.
        catalog_name: name of the registered catalog the columns came
            from (``"aws-2017"`` for the paper's types), recorded so
            saved traces can be validated against the right catalog.
    """

    registry: WorkloadRegistry
    catalog: tuple[VMType, ...]
    times: np.ndarray
    costs: np.ndarray
    metrics: np.ndarray
    seed: int
    catalog_name: str = "aws-2017"
    _row_by_id: dict[str, int] = field(init=False, repr=False, compare=False)
    _column_by_name: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_w, n_v = len(self.registry), len(self.catalog)
        expected = {
            "times": (n_w, n_v),
            "costs": (n_w, n_v),
            "metrics": (n_w, n_v, len(METRIC_NAMES)),
        }
        for name, shape in expected.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValueError(f"{name} has shape {actual}, expected {shape}")
            # NaN compares false against every bound below, so a
            # doctored file (JSON accepts NaN and Infinity) would replay
            # non-finite objectives unless rejected here.
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"trace contains non-finite {name}")
        if np.any(self.times <= 0) or np.any(self.costs <= 0):
            raise ValueError("trace contains non-positive times or costs")
        object.__setattr__(
            self,
            "_row_by_id",
            {w.workload_id: i for i, w in enumerate(self.registry)},
        )
        columns: dict[str, int] = {}
        for i, vm in enumerate(self.catalog):
            columns.setdefault(vm.name, i)
        object.__setattr__(self, "_column_by_name", columns)

    # -- lookup ----------------------------------------------------------

    def row_of(self, workload: Workload | str) -> int:
        """Row index of ``workload`` (a :class:`Workload` or workload id)."""
        workload_id = workload.workload_id if isinstance(workload, Workload) else workload
        try:
            return self._row_by_id[workload_id]
        except KeyError:
            raise KeyError(f"workload {workload_id!r} is not in this trace") from None

    def column_of(self, vm: VMType | str) -> int:
        """Column index of ``vm`` (a :class:`VMType` or name)."""
        name = vm.name if isinstance(vm, VMType) else vm
        try:
            return self._column_by_name[name]
        except KeyError:
            raise KeyError(f"VM type {name!r} is not in this trace") from None

    def times_for(self, workload: Workload | str) -> np.ndarray:
        """Execution times of ``workload`` across the catalog (copy)."""
        return self.times[self.row_of(workload)].copy()

    def costs_for(self, workload: Workload | str) -> np.ndarray:
        """Deployment costs of ``workload`` across the catalog (copy)."""
        return self.costs[self.row_of(workload)].copy()

    def metrics_for(self, workload: Workload | str, vm: VMType | str) -> LowLevelMetrics:
        """Recorded low-level metrics of one (workload, VM) run."""
        return LowLevelMetrics.from_vector(
            self.metrics[self.row_of(workload), self.column_of(vm)]
        )

    def measurement(self, workload: Workload | str, vm: VMType | str) -> Measurement:
        """The full recorded measurement of one (workload, VM) pair."""
        row, col = self.row_of(workload), self.column_of(vm)
        return Measurement(
            vm=self.catalog[col],
            execution_time_s=float(self.times[row, col]),
            cost_usd=float(self.costs[row, col]),
            metrics=LowLevelMetrics.from_vector(self.metrics[row, col]),
        )

    # -- summaries ---------------------------------------------------------

    def objective_values(self, workload: Workload | str, objective: str) -> np.ndarray:
        """Raw objective row: ``"time"``, ``"cost"`` or ``"product"``."""
        row = self.row_of(workload)
        if objective == "time":
            return self.times[row].copy()
        if objective == "cost":
            return self.costs[row].copy()
        if objective == "product":
            return (self.times[row] * self.costs[row]).copy()
        raise ValueError(f"unknown objective {objective!r}; use 'time', 'cost' or 'product'")

    def best_vm(self, workload: Workload | str, objective: str = "time") -> VMType:
        """The optimal VM type for ``workload`` under ``objective``."""
        values = self.objective_values(workload, objective)
        return self.catalog[int(np.argmin(values))]

    def normalised(self, workload: Workload | str, objective: str = "time") -> np.ndarray:
        """Objective row divided by its minimum (1.0 = the optimal VM)."""
        values = self.objective_values(workload, objective)
        return values / values.min()

    def spread(self, workload: Workload | str, objective: str = "time") -> float:
        """Worst/best ratio of the objective for ``workload`` (Figure 3)."""
        values = self.objective_values(workload, objective)
        return float(values.max() / values.min())

    def environment(self, workload: Workload | str) -> TraceEnvironment:
        """A replay environment for one workload of this trace."""
        workload_obj = (
            workload
            if isinstance(workload, Workload)
            else self.registry.get(workload)
        )
        return TraceEnvironment(self, workload_obj)


class TraceEnvironment:
    """Replay one workload's recorded measurements, charging per call.

    Conforms to :class:`~repro.simulator.cluster.MeasurementEnvironment`.
    Re-measuring the same VM returns the identical recorded values but is
    charged again — optimisers are expected not to repeat measurements.
    """

    def __init__(self, trace: BenchmarkTrace, workload: Workload) -> None:
        self._trace = trace
        self._workload = workload
        self._count = 0

    @property
    def catalog(self) -> tuple[VMType, ...]:
        return self._trace.catalog

    @property
    def workload(self) -> Workload:
        """The workload this environment replays."""
        return self._workload

    @property
    def measurement_count(self) -> int:
        return self._count

    def measure(self, vm: VMType) -> Measurement:
        self._count += 1
        return self._trace.measurement(self._workload, vm)

    def reset(self) -> None:
        self._count = 0
