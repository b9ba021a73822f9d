"""Unit tests for the experiment runner and its crash-safe cache."""

import json

import pytest

from repro.analysis import runner as runner_module
from repro.analysis.runner import (
    CACHE_SCHEMA_VERSION,
    ExperimentRunner,
    RunGrid,
    result_to_payload,
    run_seed,
)
from repro.core.baselines import RandomSearch
from repro.core.objectives import Objective


def random_factory(environment, objective, seed):
    return RandomSearch(environment, objective=objective, seed=seed)


@pytest.fixture()
def runner(trace, tmp_path):
    return ExperimentRunner(trace=trace, cache_dir=tmp_path / "cache")


WORKLOADS = ("kmeans/Spark 2.1/small", "scan/Hadoop 2.7/small")


class TestRunGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            RunGrid("k", random_factory, Objective.TIME, WORKLOADS, 0)
        with pytest.raises(ValueError, match="workload_ids"):
            RunGrid("k", random_factory, Objective.TIME, (), 1)
        with pytest.raises(ValueError, match="'/'"):
            RunGrid("a/b", random_factory, Objective.TIME, WORKLOADS, 1)


class TestRunSeed:
    def test_deterministic(self):
        assert run_seed("w", 3) == run_seed("w", 3)

    def test_varies_with_workload_and_repeat(self):
        assert run_seed("a", 0) != run_seed("b", 0)
        assert run_seed("a", 0) != run_seed("a", 1)

    def test_non_negative_31_bit(self):
        for repeat in range(20):
            seed = run_seed("some/workload/id", repeat)
            assert 0 <= seed < 2**31


class TestRunner:
    def test_runs_grid_and_returns_per_workload_results(self, runner):
        grid = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 3)
        results = runner.run(grid)
        assert set(results) == set(WORKLOADS)
        assert all(len(runs) == 3 for runs in results.values())
        assert all(r.search_cost == 18 for runs in results.values() for r in runs)

    def test_results_deterministic_across_runner_instances(self, trace, tmp_path):
        grid = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 2)
        a = ExperimentRunner(trace=trace, cache_dir=None).run(grid)
        b = ExperimentRunner(trace=trace, cache_dir=None).run(grid)
        for workload in WORKLOADS:
            assert [r.measured_vm_names for r in a[workload]] == [
                r.measured_vm_names for r in b[workload]
            ]

    def test_cache_roundtrip_preserves_results(self, runner, trace, tmp_path):
        grid = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 2)
        fresh = runner.run(grid)
        cached = runner.run(grid)  # second call must hit the cache
        for workload in WORKLOADS:
            for a, b in zip(fresh[workload], cached[workload]):
                assert a.measured_vm_names == b.measured_vm_names
                assert a.best_value == pytest.approx(b.best_value)
                assert a.stopped_by == b.stopped_by

    def test_cache_file_created(self, runner, tmp_path):
        grid = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 1)
        runner.run(grid)
        cache_file = tmp_path / "cache" / "random__time.json"
        assert cache_file.exists()
        payload = json.loads(cache_file.read_text())
        assert set(payload["results"]) == set(WORKLOADS)

    def test_incremental_repeats_extend_cache(self, runner):
        grid_small = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 2)
        grid_large = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 4)
        small = runner.run(grid_small)
        large = runner.run(grid_large)
        for workload in WORKLOADS:
            # The first two repeats are the cached ones, unchanged.
            assert [r.measured_vm_names for r in large[workload][:2]] == [
                r.measured_vm_names for r in small[workload]
            ]
            assert len(large[workload]) == 4

    def test_objectives_cached_separately(self, runner, tmp_path):
        runner.run(RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 1))
        runner.run(RunGrid("random", random_factory, Objective.COST, WORKLOADS, 1))
        assert (tmp_path / "cache" / "random__time.json").exists()
        assert (tmp_path / "cache" / "random__cost.json").exists()

    def test_optimal_value_matches_trace(self, runner, trace):
        workload = WORKLOADS[0]
        assert runner.optimal_value(workload, Objective.COST) == pytest.approx(
            trace.costs_for(workload).min()
        )

    def test_costs_to_optimum_structure(self, runner):
        grid = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 3)
        results = runner.run(grid)
        costs = runner.costs_to_optimum(results, Objective.TIME)
        assert set(costs) == set(WORKLOADS)
        # Full random sweeps always find the optimum somewhere.
        assert all(c is not None and 1 <= c <= 18 for cs in costs.values() for c in cs)

    def test_no_cache_dir_disables_caching(self, trace):
        runner = ExperimentRunner(trace=trace, cache_dir=None)
        grid = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 1)
        runner.run(grid)  # must simply not raise

    @pytest.mark.parametrize("executor", ["serial", "vector"])
    def test_payloads_are_encoded_only_when_stored(
        self, trace, tmp_path, monkeypatch, executor
    ):
        encoded = []

        def counting(result):
            encoded.append(result)
            return result_to_payload(result)

        monkeypatch.setattr(runner_module, "result_to_payload", counting)
        grid = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 2)
        plain = ExperimentRunner(trace=trace, cache_dir=None).run(grid, executor=executor)
        assert encoded == []
        cached = ExperimentRunner(trace=trace, cache_dir=tmp_path).run(
            grid, executor=executor
        )
        assert len(encoded) == 2 * len(WORKLOADS)
        assert _results_signature(plain) == _results_signature(cached)

    def test_cache_file_carries_schema_version(self, runner, tmp_path):
        grid = RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 1)
        runner.run(grid)
        payload = json.loads((tmp_path / "cache" / "random__time.json").read_text())
        assert payload["schema"] == CACHE_SCHEMA_VERSION
        assert set(payload["results"]) == set(WORKLOADS)


def _results_signature(results):
    return {
        workload: [
            (r.measured_vm_names, r.best_value, r.stopped_by) for r in runs
        ]
        for workload, runs in results.items()
    }


def _v1_body(payload: dict) -> dict:
    """The pre-schema layout: the result map at top level, with
    ``[vm, value]`` step pairs."""
    return {
        workload: {
            seed: {
                "optimizer": entry["optimizer"],
                "stopped_by": entry["stopped_by"],
                "steps": [[vm, value] for vm, value, _ in entry["steps"]],
            }
            for seed, entry in per_workload.items()
        }
        for workload, per_workload in payload["results"].items()
    }


class TestCacheRecovery:
    """A killed process must never poison the cache for the next one."""

    GRID = ("random", random_factory, Objective.TIME, WORKLOADS, 2)

    def test_truncated_cache_file_is_quarantined_and_recomputed(
        self, runner, tmp_path
    ):
        grid = RunGrid(*self.GRID)
        fresh = runner.run(grid)
        cache_file = tmp_path / "cache" / "random__time.json"
        # Simulate a crash mid-write: keep only the first half of the file.
        text = cache_file.read_text()
        cache_file.write_text(text[: len(text) // 2])

        recovered = runner.run(grid)
        assert _results_signature(recovered) == _results_signature(fresh)
        assert (tmp_path / "cache" / "random__time.corrupt").exists()
        # The rebuilt cache is valid again.
        assert json.loads(cache_file.read_text())["schema"] == CACHE_SCHEMA_VERSION

    def test_non_json_garbage_is_quarantined(self, runner, tmp_path):
        grid = RunGrid(*self.GRID)
        fresh = runner.run(grid)
        cache_file = tmp_path / "cache" / "random__time.json"
        cache_file.write_bytes(b"\x00\xff garbage \x80")
        assert _results_signature(runner.run(grid)) == _results_signature(fresh)

    def test_repeated_corruption_keeps_all_quarantine_files(self, runner, tmp_path):
        grid = RunGrid(*self.GRID)
        cache_file = tmp_path / "cache" / "random__time.json"
        for _ in range(2):
            runner.run(grid)
            cache_file.write_text("{broken")
        runner.run(grid)
        corrupts = sorted(p.name for p in (tmp_path / "cache").glob("random__time.corrupt*"))
        assert corrupts == ["random__time.corrupt", "random__time.corrupt-1"]

    @pytest.mark.parametrize(
        "stale",
        [
            pytest.param(_v1_body, id="v1"),
            pytest.param(lambda payload: {**payload, "schema": 2}, id="v2"),
            pytest.param(lambda payload: {**payload, "schema": 999}, id="schema-999"),
        ],
    )
    def test_unknown_schema_version_is_quarantined(
        self, runner, tmp_path, monkeypatch, stale
    ):
        """Only :data:`CACHE_SCHEMA_VERSION` is read: any other body,
        however close in shape, is set aside and every cell recomputed."""
        grid = RunGrid(*self.GRID)
        fresh = runner.run(grid)
        cache_file = tmp_path / "cache" / "random__time.json"
        fresh_bytes = cache_file.read_bytes()
        cache_file.write_text(json.dumps(stale(json.loads(fresh_bytes))))

        calls = {"n": 0}
        original = RandomSearch.run

        def counting_run(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(RandomSearch, "run", counting_run)
        recovered = runner.run(grid)
        assert calls["n"] == len(WORKLOADS) * 2
        assert _results_signature(recovered) == _results_signature(fresh)
        assert (tmp_path / "cache" / "random__time.corrupt").exists()
        assert cache_file.read_bytes() == fresh_bytes

    def test_malformed_entry_is_recomputed_in_place(self, runner, tmp_path):
        grid = RunGrid(*self.GRID)
        fresh = runner.run(grid)
        cache_file = tmp_path / "cache" / "random__time.json"
        payload = json.loads(cache_file.read_text())
        workload = WORKLOADS[0]
        payload["results"][workload]["0"]["steps"] = [["vm", "not-a-number", 1]]
        payload["results"][workload]["1"] = "nonsense"
        cache_file.write_text(json.dumps(payload))
        recovered = runner.run(grid)
        assert _results_signature(recovered) == _results_signature(fresh)
        # The intact workload's entries were trusted; the bad ones rewritten.
        rebuilt = json.loads(cache_file.read_text())
        assert rebuilt["results"][workload]["0"]["steps"][0][0] != "vm"


class TestFlushDurability:
    def test_cache_is_durable_before_the_record_is_removed(
        self, runner, tmp_path, monkeypatch
    ):
        """fsync the new cache bytes, rename, fsync the directory — and
        only then remove the queue file, the other copy of the cells."""
        import os

        from repro.parallel.checkpoint import GridCheckpoint

        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        real_clear = GridCheckpoint.clear
        cache_path = tmp_path / "cache" / "random__time.json"

        def fsync(fd):
            target = os.readlink(f"/proc/self/fd/{fd}")
            calls.append(("fsync", os.path.basename(target)))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        def clear(self):
            calls.append(("clear", self.path.name))
            real_clear(self)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(GridCheckpoint, "clear", clear)
        runner.run(RunGrid("random", random_factory, Objective.TIME, WORKLOADS, 1))
        tail = calls[calls.index(("fsync", "random__time.tmp")):]
        assert tail == [
            ("fsync", "random__time.tmp"),
            ("replace", "random__time.json"),
            ("fsync", "cache"),
            ("clear", "random__time.queue"),
        ]
        assert cache_path.exists()
        assert not cache_path.with_suffix(".queue").exists()


class TestChargeRoundTrip:
    """Fractional spot charges must cross the cache codec exactly."""

    def _spot_result(self, trace):
        from repro.cloud.spot import SpotMarket, SpotPolicy
        from repro.faults.models import FaultInjector, FaultPlan, SpotInterruptions
        from repro.faults.retry import RetryPolicy

        market = SpotMarket(seed=5, base_hazard=0.25, hazard_slope=0.5)
        plan = FaultPlan((SpotInterruptions(market=market),), seed=3)
        env = FaultInjector(trace.environment(WORKLOADS[0]), plan)
        return RandomSearch(
            env, seed=3, retry_policy=RetryPolicy.from_retries(5),
            spot=SpotPolicy(market=market),
        ).run()

    def test_charges_survive_json_with_no_float_drift(self, trace):
        from repro.analysis.runner import result_from_payload, result_to_payload

        result = self._spot_result(trace)
        charges = [s.charge for s in result.steps]
        assert any(c != 1.0 for c in charges), "spot run produced no discounts"
        assert any(f.charge != 1.0 for f in result.failure_events)

        wire = json.loads(json.dumps(result_to_payload(result)))
        decoded = result_from_payload(wire, result.objective, result.workload_id)
        # Exact equality, not approx: repr-based JSON floats round-trip
        # bit for bit, so resume bills exactly what the run billed.
        assert [s.charge for s in decoded.steps] == charges
        assert [f.charge for f in decoded.failure_events] == [
            f.charge for f in result.failure_events
        ]
        assert decoded.charged_cost == result.charged_cost
        # A second encode is byte-identical: queue hops cannot drift.
        assert json.dumps(result_to_payload(decoded), sort_keys=True) == json.dumps(
            result_to_payload(result), sort_keys=True
        )

    def test_on_demand_payload_has_no_charge_columns(self, trace):
        from repro.analysis.runner import result_to_payload

        result = RandomSearch(trace.environment(WORKLOADS[0]), seed=0).run()
        payload = result_to_payload(result)
        assert all(len(row) == 3 for row in payload["steps"])
        assert all(len(row) == 4 for row in payload.get("failures", []))
