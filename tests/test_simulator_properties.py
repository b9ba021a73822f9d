"""Property-based tests of the performance model's physical invariants.

These pin down the simulator's *economics*: relations that must hold for
any workload, because the paper's phenomena (and the optimisers' sanity)
depend on them.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import VMArrays
from repro.cloud.pricing import deployment_cost
from repro.cloud.vmtypes import VMType, default_catalog, get_vm_type
from repro.simulator.cluster import simulate_runs
from repro.simulator.lowlevel import derive_metrics
from repro.simulator.noise import InterferenceModel
from repro.simulator.perfmodel import PerformanceModel
from repro.workloads.registry import default_registry
from repro.workloads.spec import ResourceProfile
from tests.trace_reference import ReferenceCloud, reference_breakdown, reference_metrics

MODEL = PerformanceModel()


def profiles():
    return st.builds(
        ResourceProfile,
        cpu_seconds=st.floats(1.0, 5000.0),
        parallel_fraction=st.floats(0.0, 1.0),
        working_set_gb=st.floats(0.0, 60.0),
        io_gb=st.floats(0.0, 500.0),
        shuffle_gb=st.floats(0.0, 200.0),
        cpu_gen_sensitivity=st.floats(0.0, 1.0),
    )


def vm_names():
    return st.sampled_from([f"{f}.{s}" for f in ("c3", "c4", "m3", "m4", "r3", "r4")
                            for s in ("large", "xlarge", "2xlarge")])


def _bigger(vm: VMType) -> VMType | None:
    order = ("large", "xlarge", "2xlarge")
    index = order.index(vm.size)
    if index == 2:
        return None
    return get_vm_type(f"{vm.family}.{order[index + 1]}")


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), vm_name=vm_names())
    def test_scaling_up_within_a_family_never_slows_down(self, profile, vm_name):
        """The next size up has 2x cores, 2x RAM, faster disk: it can never
        be slower (it can fail to be faster for serial workloads)."""
        vm = get_vm_type(vm_name)
        bigger = _bigger(vm)
        if bigger is None:
            return
        assert MODEL.execution_time(bigger, profile) <= MODEL.execution_time(
            vm, profile
        ) * (1 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), vm_name=vm_names(), factor=st.floats(1.01, 5.0))
    def test_more_io_never_makes_a_run_faster(self, profile, vm_name, factor):
        vm = get_vm_type(vm_name)
        heavier = profile.scaled(io=factor)
        assert MODEL.execution_time(vm, heavier) >= MODEL.execution_time(vm, profile) * (
            1 - 1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), vm_name=vm_names(), factor=st.floats(1.01, 5.0))
    def test_bigger_working_set_never_makes_a_run_faster(self, profile, vm_name, factor):
        vm = get_vm_type(vm_name)
        heavier = profile.scaled(working_set=factor)
        assert MODEL.execution_time(vm, heavier) >= MODEL.execution_time(vm, profile) * (
            1 - 1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), vm_name=vm_names(), factor=st.floats(1.01, 5.0))
    def test_more_cpu_work_never_makes_a_run_faster(self, profile, vm_name, factor):
        vm = get_vm_type(vm_name)
        heavier = profile.scaled(cpu=factor)
        assert MODEL.execution_time(vm, heavier) >= MODEL.execution_time(vm, profile) * (
            1 - 1e-9
        )


class TestCostRelations:
    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), vm_name=vm_names())
    def test_cost_is_time_times_price(self, profile, vm_name):
        vm = get_vm_type(vm_name)
        time_s = MODEL.execution_time(vm, profile)
        assert deployment_cost(time_s, vm) == pytest.approx(
            time_s * deployment_cost(1.0, vm)
        )

    @settings(max_examples=40, deadline=None)
    @given(profile=profiles())
    def test_scaling_up_can_increase_cost(self, profile):
        """Sizes cost 2x per step; unless the speedup is 2x, cost rises —
        this is why the cheapest-to-run VM is often a small one."""
        small = get_vm_type("c4.large")
        big = get_vm_type("c4.2xlarge")
        t_small = MODEL.execution_time(small, profile)
        t_big = MODEL.execution_time(big, profile)
        c_small = deployment_cost(t_small, small)
        c_big = deployment_cost(t_big, big)
        if t_small / t_big < 3.9:  # speedup below the 4x price ratio
            assert c_big > c_small * 0.999


class TestMetricInvariants:
    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), vm_name=vm_names())
    def test_metrics_always_within_ranges(self, profile, vm_name):
        vm = get_vm_type(vm_name)
        metrics = derive_metrics(vm, profile, MODEL.breakdown(vm, profile))
        vector = metrics.to_vector()
        assert np.all(np.isfinite(vector))
        assert 0 <= metrics.cpu_user_pct <= 100
        assert 0 <= metrics.cpu_iowait_pct <= 100
        assert 0 <= metrics.mem_commit_pct <= 140
        assert 0 <= metrics.disk_util_pct <= 100
        assert metrics.disk_wait_ms >= 0
        assert metrics.task_count > 0

    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), vm_name=vm_names())
    def test_mem_commit_tracks_memory_ratio(self, profile, vm_name):
        vm = get_vm_type(vm_name)
        breakdown = MODEL.breakdown(vm, profile)
        metrics = derive_metrics(vm, profile, breakdown)
        expected = min(100.0 * breakdown.memory_ratio, 140.0)
        assert metrics.mem_commit_pct == pytest.approx(expected)

    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), vm_name=vm_names())
    def test_paging_iff_ratio_above_safe_fraction(self, profile, vm_name):
        from repro.simulator.perfmodel import MEM_SAFE_FRACTION

        vm = get_vm_type(vm_name)
        breakdown = MODEL.breakdown(vm, profile)
        assert breakdown.paging == (breakdown.memory_ratio > MEM_SAFE_FRACTION)


class TestArrayPath:
    """The catalog-wide array formulas equal the scalar reference exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        profile=profiles(),
        working_set_gb=st.floats(4.0, 50.0),
        time_sigma=st.sampled_from([0.0, 0.03]),
        metric_sigma=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_catalog_pass_matches_reference(
        self, profile, working_set_gb, time_sigma, metric_sigma, seed
    ):
        # A working set of 4-50 GiB pages on c3.large (3.75 GiB of RAM)
        # and fits on r3.2xlarge (61 GiB), so every example covers both.
        profile = replace(profile, working_set_gb=working_set_gb)
        catalog = default_catalog()
        vms = VMArrays(catalog)
        breakdown = MODEL.breakdown(vms, profile)
        assert breakdown.paging.any() and not breakdown.paging.all()

        workload = replace(next(iter(default_registry())), profile=profile)
        times, costs, metrics = simulate_runs(
            profile, vms, InterferenceModel(time_sigma, metric_sigma, seed=seed)
        )
        reference = ReferenceCloud(
            workload, seed=seed, time_sigma=time_sigma, metric_sigma=metric_sigma
        )
        for col, vm in enumerate(catalog):
            expected = reference_breakdown(vm, profile)
            assert breakdown.row(col) == expected
            assert MODEL.breakdown(vm, profile) == expected
            assert np.array_equal(
                derive_metrics(vm, profile, expected).to_vector(),
                reference_metrics(vm, profile, expected),
            )
            time_s, cost, vector = reference.measure(vm)
            assert (times[col], costs[col]) == (time_s, cost)
            assert np.array_equal(metrics[col], vector)
