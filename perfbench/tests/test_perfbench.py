"""Tests of the benchmark itself: wrappers, span analysis, metric names.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bindings() -> dict[tuple[int, str], object]:
    """Every binding install() may replace, keyed by owner and name."""
    bound = {}
    for point in tracing.TRACE_POINTS:
        module = sys.modules.get(point.module) or __import__(point.module, fromlist=["_"])
        owner_name, _, attribute = point.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            bound[(id(owner), attribute)] = owner.__dict__[attribute]
            continue
        original = getattr(module, attribute)
        for name, other in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in vars(other).items():
                    if value is original:
                        bound[(id(other), key)] = value
    return bound


def _tiny(cls, tmp_path: Path, n_workloads: int = 3):
    workload = cls(7, tmp_path)
    workload.setup()
    workload.workload_ids = workload.workload_ids[:n_workloads]
    workload.grids = workload._grids()
    workload.probe_cells = 1
    return workload


def _traced_pass(workload, tmp_path: Path):
    recorder = tracing.SpanRecorder(spool_dir=tmp_path / "spans")
    patches = tracing.install(recorder)
    try:
        start = tracing.perf_counter()
        result = workload.run_pass(1)
        end = tracing.perf_counter()
    finally:
        tracing.uninstall(patches)
    spans, counts = recorder.collect()
    return result, spans, tracing.layer_table(spans, counts, (start, end), recorder.root_pid)


def test_uninstall_restores_every_original():
    before = _bindings()
    patches = tracing.install(tracing.SpanRecorder())
    patched = _bindings()
    assert all(patched[key] is not value for key, value in before.items())
    tracing.uninstall(patches)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_patch_names_bound_by_import():
    import repro.parallel.vector as vector

    original = vector.predict_packed_many
    patches = tracing.install(tracing.SpanRecorder())
    try:
        assert vector.predict_packed_many is not original
        assert vector.predict_packed_many.__wrapped__ is original
    finally:
        tracing.uninstall(patches)
    assert vector.predict_packed_many is original


@pytest.mark.parametrize("cls", [workloads.PaperGrid, workloads.SpotQueueGrid])
def test_traced_and_untraced_passes_give_identical_digests(cls, tmp_path):
    workload = _tiny(cls, tmp_path)
    untraced = workload.run_pass(0)
    traced, spans, table = _traced_pass(workload, tmp_path)
    assert not untraced.errors and not workload.check(untraced)
    assert workloads.label_records(workload.trace, traced.results) == workloads.label_records(
        workload.trace, untraced.results
    )
    assert table["problems"] == []
    assert table["covered_s"] <= table["wall_s"]
    # The traced run computes exactly the declared per-layer metrics.
    layers = workloads.layer_metrics(
        table, table, workloads.result_counters(traced.results),
        {
            "analysis.cache_bytes": traced.cache_bytes,
            "parallel.queue_requeued": traced.requeued,
            "parallel.queue_idle_s": tracing.queue_idle_s(spans),
            "bench.untraced_wall_s": untraced.wall_s,
        },
    )
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(layers) == {m["name"] for m in contract["per_layer"]}
    if cls is workloads.SpotQueueGrid:
        # Forked pull-workers spooled their cells' spans to disk.
        worker_pids = {s[0] for s in spans if s[4] == "parallel.queue_worker"}
        assert worker_pids and tracing.os.getpid() not in worker_pids
        assert table["counts"]["parallel.queue_claims"] == len(workload.workload_ids) * workload.repeats
        assert tracing.queue_idle_s(spans) >= 0.0


def test_self_times_are_non_negative_and_nest(tmp_path):
    _result, spans, table = _traced_pass(_tiny(workloads.PaperGrid, tmp_path), tmp_path)
    selfs, problems = tracing.self_times(spans)
    assert problems == []
    assert min(selfs.values()) >= -1e-9
    by_key = {(s[0], s[2]): s for s in spans}
    for span in spans:
        if span[3] is not None:
            parent = by_key[(span[0], span[3])]
            assert parent[5] <= span[5] and span[6] <= parent[6]
    assert sum(table["self_s"].values()) == pytest.approx(
        sum(s[6] - s[5] for s in spans if s[3] is None)
    )


def test_self_time_analysis_flags_bad_nesting():
    spans = [
        (1, 1, 1, None, "outer", 0.0, 1.0, None),
        (1, 1, 2, 1, "inner", 0.2, 0.5, None),
        (1, 1, 3, 1, "late", 0.4, 1.5, None),
    ]
    selfs, problems = tracing.self_times(spans)
    assert selfs[(1, 2)] == pytest.approx(0.3)
    assert any("outside its parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def test_queue_idle_is_loop_time_outside_leases():
    spans = [
        (5, 1, 1, None, "parallel.queue_worker", 0.0, 10.0, None),
        (5, 1, 2, 1, "parallel.queue_claim", 1.0, 1.5, "lease"),
        (5, 1, 3, 1, "parallel.queue_complete", 4.0, 4.5, None),
        (5, 1, 4, 1, "parallel.queue_claim", 6.0, 6.5, None),
    ]
    assert tracing.queue_idle_s(spans) == pytest.approx(10.0 - 3.5)


def test_generator_spans_cover_only_resumptions():
    recorder = tracing.SpanRecorder()

    def numbers():
        yield 1
        yield 2

    point = tracing.TracePoint("m", "numbers", "test.gen")
    wrapped = tracing._wrap(recorder, point, numbers)
    assert inspect.isgeneratorfunction(wrapped)
    assert list(wrapped()) == [1, 2]
    assert [s[4] for s in recorder.spans] == ["test.gen"] * 3


def test_every_metric_name_is_well_formed():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in contract[key]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.match(name) for name in names), names
    assert {w["name"] for w in contract["workloads"]} == set(workloads.WORKLOADS)


def test_repetitions_must_reproduce_every_search():
    same = {"a": ["d1", 5, 1.0, 5.0], "b": ["d2", 6, 1.1, 6.0]}
    errors: list[str] = []
    labels, digest = run.merge_labels([{"labels": same}, {"labels": dict(same)}], errors)
    assert errors == [] and set(labels) == {"a", "b"}
    changed = {"a": ["d1", 5, 1.0, 5.0], "b": ["d3", 6, 1.1, 6.0]}
    _labels, other = run.merge_labels([{"labels": same}, {"labels": changed}], errors)
    assert errors == ["b: result differs between repetitions"]
    assert other == digest  # the digest reflects the first repetition


def test_end_to_end_scales_timings_by_the_calibration_kernel():
    def result(kernel_s):
        return {
            "peak_rss_mb": 100.0,
            "passes": [{
                "wall_s": 2.0, "searches": 10, "step_s": [0.004, 0.002],
                "cells_attempted": 10, "cells_failed": 0, "kernel_s": kernel_s,
            }],
        }

    labels = {"x": ["d", 4, 1.0, 4.0]}
    fast = run.end_to_end([1.0], [result(0.001)], labels)
    slow = run.end_to_end([1.0], [result(0.002)], labels)
    assert fast["searches_per_s"] == pytest.approx(5.0)
    assert slow["searches_per_s"] == pytest.approx(10.0)
    assert slow["step_ms_p90"] == pytest.approx(fast["step_ms_p90"] / 2)
