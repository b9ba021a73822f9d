"""Unit tests for trace persistence."""

import json

import numpy as np
import pytest

from repro.trace.generate import generate_trace
from repro.trace.io import load_trace, save_trace


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(seed=99)


class TestRoundtrip:
    def test_save_load_is_identity(self, small_trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.times, small_trace.times)
        assert np.array_equal(loaded.costs, small_trace.costs)
        assert np.array_equal(loaded.metrics, small_trace.metrics)
        assert loaded.seed == small_trace.seed

    def test_loaded_trace_is_fully_functional(self, small_trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        workload = loaded.registry.workloads[0]
        assert loaded.best_vm(workload, "cost").name == small_trace.best_vm(
            workload, "cost"
        ).name

    def test_file_is_valid_json(self, small_trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(small_trace, path)
        document = json.loads(path.read_text())
        assert document["format_version"] == 1
        assert len(document["workloads"]) == 107
        assert len(document["vms"]) == 18


class TestValidation:
    def _corrupt(self, small_trace, tmp_path, mutate):
        path = tmp_path / "trace.json"
        save_trace(small_trace, path)
        document = json.loads(path.read_text())
        mutate(document)
        path.write_text(json.dumps(document))
        return path

    def test_wrong_format_version_rejected(self, small_trace, tmp_path):
        path = self._corrupt(
            small_trace, tmp_path, lambda d: d.update(format_version=2)
        )
        with pytest.raises(ValueError, match="format version"):
            load_trace(path)

    def test_mismatched_workloads_rejected(self, small_trace, tmp_path):
        def mutate(d):
            d["workloads"][0] = "other/Spark 2.1/small"

        path = self._corrupt(small_trace, tmp_path, mutate)
        with pytest.raises(ValueError, match="workload ids"):
            load_trace(path)

    def test_mismatched_vms_rejected(self, small_trace, tmp_path):
        def mutate(d):
            d["vms"][0] = "c5.large"

        path = self._corrupt(small_trace, tmp_path, mutate)
        with pytest.raises(ValueError, match="VM names"):
            load_trace(path)

    def test_mismatched_metric_names_rejected(self, small_trace, tmp_path):
        def mutate(d):
            d["metric_names"][0] = "cpu_steal_pct"

        path = self._corrupt(small_trace, tmp_path, mutate)
        with pytest.raises(ValueError, match="metric names"):
            load_trace(path)

    @pytest.mark.parametrize(
        "array, value", [("times", float("nan")), ("metrics", float("inf"))]
    )
    def test_non_finite_values_rejected(self, small_trace, tmp_path, array, value):
        """JSON parses NaN and Infinity, so a doctored file must not load
        and replay non-finite objectives."""

        def mutate(d):
            cell = d[array][2]
            if array == "metrics":
                cell = cell[4]
            cell[1] = value

        path = self._corrupt(small_trace, tmp_path, mutate)
        with pytest.raises(ValueError, match="non-finite"):
            load_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.json")
