"""Unit tests for the simulated cloud environment."""

import numpy as np
import pytest

from repro.cloud.catalog import get_catalog
from repro.cloud.pricing import default_price_list
from repro.cloud.vmtypes import get_vm_type
from repro.simulator.cluster import MeasurementEnvironment, SimulatedCloud
from tests.trace_reference import ReferenceCloud, reference_breakdown


@pytest.fixture()
def workload(registry):
    return registry.get("kmeans/Spark 2.1/small")


class TestMeasurement:
    def test_measure_returns_consistent_cost(self, workload):
        cloud = SimulatedCloud(workload, seed=0)
        vm = get_vm_type("c4.xlarge")
        m = cloud.measure(vm)
        expected = m.execution_time_s * default_price_list().price_per_second(vm)
        assert m.cost_usd == pytest.approx(expected)
        assert m.vm is vm

    def test_measurements_are_charged(self, workload):
        cloud = SimulatedCloud(workload, seed=0)
        assert cloud.measurement_count == 0
        cloud.measure(get_vm_type("c4.large"))
        cloud.measure(get_vm_type("c4.large"))
        assert cloud.measurement_count == 2

    def test_reset_clears_counter_only(self, workload):
        cloud = SimulatedCloud(workload, seed=0)
        cloud.measure(get_vm_type("c4.large"))
        cloud.reset()
        assert cloud.measurement_count == 0

    def test_repeated_measurements_differ_by_noise(self, workload):
        cloud = SimulatedCloud(workload, seed=0)
        vm = get_vm_type("m4.large")
        a = cloud.measure(vm).execution_time_s
        b = cloud.measure(vm).execution_time_s
        assert a != b
        assert abs(a - b) / a < 0.3  # a few percent sigma

    def test_same_seed_reproduces_sequence(self, workload):
        values_a = [SimulatedCloud(workload, seed=9).measure(get_vm_type("c3.large")).execution_time_s]
        values_b = [SimulatedCloud(workload, seed=9).measure(get_vm_type("c3.large")).execution_time_s]
        assert values_a == values_b

    def test_measure_all_covers_catalog(self, workload, catalog):
        cloud = SimulatedCloud(workload, seed=0)
        measurements = cloud.measure_all()
        assert [m.vm for m in measurements] == list(catalog)
        assert cloud.measurement_count == 18

    def test_noise_free_times_close_to_measurements(self, workload, catalog):
        cloud = SimulatedCloud(workload, seed=0)
        truth = cloud.noise_free_times()
        measured = np.array([m.execution_time_s for m in cloud.measure_all()])
        assert np.all(np.abs(np.log(measured / truth)) < 0.25)

    def test_conforms_to_environment_protocol(self, workload):
        assert isinstance(SimulatedCloud(workload, seed=0), MeasurementEnvironment)

    def test_metrics_included_in_measurement(self, workload):
        cloud = SimulatedCloud(workload, seed=0)
        m = cloud.measure(get_vm_type("r3.large"))
        assert m.metrics.to_vector().shape == (6,)


class TestReferenceStream:
    """A live cloud consumes its noise stream as one-at-a-time measuring does."""

    def test_measurements_match_reference_before_and_after_arm_for(self, workload):
        catalog = get_catalog("multicloud")
        cloud = SimulatedCloud(workload, catalog=catalog, seed=4)
        reference = ReferenceCloud(workload, prices=catalog.prices, seed=4)

        def assert_same(measurement, vm):
            time_s, cost, metrics = reference.measure(vm)
            assert measurement.vm is vm
            assert measurement.execution_time_s == time_s
            assert measurement.cost_usd == cost
            assert np.array_equal(measurement.metrics.to_vector(), metrics)

        picks = [catalog.vms[i] for i in (5, 120, 5, 389)]
        for vm in picks:
            assert_same(cloud.measure(vm), vm)
        for measurement, vm in zip(cloud.measure_all(), catalog.vms):
            assert_same(measurement, vm)
        cloud.arm_for((3, 1))
        reference.arm_for((3, 1))
        for vm in picks:
            assert_same(cloud.measure(vm), vm)
        assert cloud.measurement_count == 2 * len(picks) + len(catalog)

    def test_noise_free_times_match_reference(self, workload):
        catalog = get_catalog("multicloud")
        cloud = SimulatedCloud(workload, catalog=catalog, seed=0)
        expected = [
            reference_breakdown(vm, workload.profile).total_time_s for vm in catalog.vms
        ]
        assert np.array_equal(cloud.noise_free_times(), expected)
