"""Unit tests for the benchmark trace container and replay environment."""

import numpy as np
import pytest

from repro.simulator.cluster import MeasurementEnvironment
from repro.trace.dataset import BenchmarkTrace


class TestShapeAndValidation:
    def test_canonical_trace_shape(self, trace):
        assert trace.times.shape == (107, 18)
        assert trace.costs.shape == (107, 18)
        assert trace.metrics.shape == (107, 18, 6)

    def test_all_values_positive(self, trace):
        assert np.all(trace.times > 0)
        assert np.all(trace.costs > 0)

    def test_mismatched_shapes_rejected(self, trace):
        with pytest.raises(ValueError, match="times has shape"):
            BenchmarkTrace(
                registry=trace.registry,
                catalog=trace.catalog,
                times=trace.times[:, :5],
                costs=trace.costs,
                metrics=trace.metrics,
                seed=0,
            )

    def test_non_positive_values_rejected(self, trace):
        bad_times = trace.times.copy()
        bad_times[0, 0] = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            BenchmarkTrace(
                registry=trace.registry,
                catalog=trace.catalog,
                times=bad_times,
                costs=trace.costs,
                metrics=trace.metrics,
                seed=0,
            )


    @pytest.mark.parametrize("name", ["times", "costs", "metrics"])
    def test_non_finite_values_rejected(self, trace, name):
        arrays = {"times": trace.times, "costs": trace.costs, "metrics": trace.metrics}
        arrays[name] = arrays[name].copy()
        arrays[name].flat[3] = np.nan
        with pytest.raises(ValueError, match=f"non-finite {name}"):
            BenchmarkTrace(
                registry=trace.registry, catalog=trace.catalog, seed=0, **arrays
            )


class TestLookup:
    def test_row_and_column_indexing(self, trace):
        workload = trace.registry.workloads[13]
        assert trace.row_of(workload) == 13
        assert trace.row_of(workload.workload_id) == 13
        vm = trace.catalog[7]
        assert trace.column_of(vm) == 7
        assert trace.column_of(vm.name) == 7

    def test_duplicate_vm_name_resolves_to_first_column(self, trace):
        catalog = trace.catalog[:3] + trace.catalog[:1]
        doubled = BenchmarkTrace(
            registry=trace.registry,
            catalog=catalog,
            times=trace.times[:, [0, 1, 2, 0]],
            costs=trace.costs[:, [0, 1, 2, 0]],
            metrics=trace.metrics[:, [0, 1, 2, 0]],
            seed=0,
        )
        assert doubled.column_of(catalog[0]) == 0
        assert doubled.column_of(catalog[3].name) == 0

    def test_unknown_workload_raises(self, trace):
        with pytest.raises(KeyError, match="not in this trace"):
            trace.row_of("nope/Spark 9/huge")

    def test_unknown_vm_raises(self, trace):
        with pytest.raises(KeyError) as error:
            trace.column_of("z9.nano")
        assert error.value.args == ("VM type 'z9.nano' is not in this trace",)

    def test_times_for_returns_copy(self, trace):
        workload = trace.registry.workloads[0]
        row = trace.times_for(workload)
        row[0] = -1
        assert trace.times_for(workload)[0] > 0

    def test_measurement_assembles_recorded_values(self, trace):
        workload = trace.registry.workloads[3]
        vm = trace.catalog[5]
        m = trace.measurement(workload, vm)
        assert m.execution_time_s == trace.times[3, 5]
        assert m.cost_usd == trace.costs[3, 5]
        assert np.array_equal(m.metrics.to_vector(), trace.metrics[3, 5])


class TestObjectives:
    def test_product_is_time_times_cost(self, trace):
        workload = trace.registry.workloads[0]
        product = trace.objective_values(workload, "product")
        assert np.allclose(product, trace.times[0] * trace.costs[0])

    def test_unknown_objective_rejected(self, trace):
        with pytest.raises(ValueError, match="unknown objective"):
            trace.objective_values(trace.registry.workloads[0], "latency")

    def test_normalised_minimum_is_one(self, trace, registry):
        for workload in list(registry)[::20]:
            for objective in ("time", "cost", "product"):
                norm = trace.normalised(workload, objective)
                assert norm.min() == pytest.approx(1.0)
                assert np.all(norm >= 1.0)

    def test_best_vm_attains_minimum(self, trace):
        workload = trace.registry.workloads[42]
        best = trace.best_vm(workload, "cost")
        col = trace.column_of(best)
        assert trace.costs[42, col] == trace.costs[42].min()

    def test_spread_is_max_over_min(self, trace):
        workload = trace.registry.workloads[10]
        times = trace.times[10]
        assert trace.spread(workload, "time") == pytest.approx(times.max() / times.min())


class TestTraceEnvironment:
    def test_conforms_to_protocol(self, trace):
        env = trace.environment(trace.registry.workloads[0])
        assert isinstance(env, MeasurementEnvironment)

    def test_environment_accepts_id_or_workload(self, trace):
        workload = trace.registry.workloads[1]
        env_a = trace.environment(workload)
        env_b = trace.environment(workload.workload_id)
        assert env_a.workload == env_b.workload

    def test_replay_returns_recorded_values(self, trace):
        workload = trace.registry.workloads[2]
        env = trace.environment(workload)
        vm = trace.catalog[4]
        m = env.measure(vm)
        assert m.execution_time_s == trace.times[2, 4]

    def test_replay_is_deterministic_across_calls(self, trace):
        env = trace.environment(trace.registry.workloads[0])
        vm = trace.catalog[0]
        assert env.measure(vm) == env.measure(vm)

    def test_every_measurement_is_charged(self, trace):
        env = trace.environment(trace.registry.workloads[0])
        for i in range(5):
            env.measure(trace.catalog[i])
        assert env.measurement_count == 5
        env.reset()
        assert env.measurement_count == 0
