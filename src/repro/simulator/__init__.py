"""Simulation substrate standing in for the paper's AWS testbed.

The paper measures real workloads on real EC2 VMs with a sysstat daemon
collecting low-level metrics.  Offline, we replace that testbed with a
bottleneck-composition performance model: a workload's latent resource
profile meets a VM's hardware attributes and produces an execution time, a
deployment cost and the sysstat-style low-level metrics, all from the same
latent state (so the metrics genuinely carry signal about performance, as
they do on real machines).  See DESIGN.md section 2 for the substitution
rationale.
"""

from repro.simulator.perfmodel import PerformanceModel, PhaseBreakdown
from repro.simulator.lowlevel import (
    METRIC_NAMES,
    LowLevelMetrics,
    derive_metrics,
)
from repro.simulator.noise import InterferenceModel
from repro.simulator.cluster import (
    Measurement,
    MeasurementEnvironment,
    SimulatedCloud,
    simulate_runs,
)
from repro.simulator.sar import SarSample, SarTrace, record_sar_trace

__all__ = [
    "PerformanceModel",
    "PhaseBreakdown",
    "METRIC_NAMES",
    "LowLevelMetrics",
    "derive_metrics",
    "InterferenceModel",
    "Measurement",
    "MeasurementEnvironment",
    "SimulatedCloud",
    "simulate_runs",
    "SarSample",
    "SarTrace",
    "record_sar_trace",
]
