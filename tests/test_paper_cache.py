"""The committed paper cache is what the shipping code computes.

``results/cache`` holds every search behind the figure JSONs,
EXPERIMENTS.md and the SVGs.  Each test here recomputes one committed
cell of one cache file — picked by a hash of the file name — and
compares its payload byte for byte, so a change to any search that the
record holds fails here until the record is rebuilt.  CI recomputes the
whole ``--fast`` profile the same way (``scripts/build_cache.py --fast
--check``).
"""

from __future__ import annotations

import json
import shutil
import zlib
from pathlib import Path

import pytest

from repro.analysis.experiments import ablation_grids
from repro.analysis.figures import FIGURES
from repro.analysis.runner import (
    CACHE_SCHEMA_VERSION,
    ExperimentRunner,
    result_to_payload,
    run_seed,
)

CACHE_DIR = Path(__file__).resolve().parent.parent / "results" / "cache"
CACHE_FILES = sorted(path.name for path in CACHE_DIR.glob("*.json"))


class _RecordingRunner(ExperimentRunner):
    """Records every grid it runs, by cache file name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grids = {}

    def run(self, grid, *args, **kwargs):
        self.grids[self._cache_path(grid).name] = grid
        return super().run(grid, *args, **kwargs)


@pytest.fixture(scope="module")
def record_grids(trace, tmp_path_factory):
    """Every grid the record holds, by cache file name.

    The registry's figures are built at their ``--fast`` profile over a
    copy of the committed cache, so every cell is a cache hit and only
    the grids they ask for are recorded; the ablation grids are
    declared directly.
    """
    cache_copy = tmp_path_factory.mktemp("paper-cache") / "cache"
    shutil.copytree(CACHE_DIR, cache_copy)
    runner = _RecordingRunner(trace, cache_dir=cache_copy)
    for figure in FIGURES.values():
        figure.build(runner, fast=True)
    for grid in ablation_grids().values():
        runner.grids[runner._cache_path(grid).name] = grid
    return runner.grids


def test_every_cache_file_is_a_current_grid(record_grids):
    assert sorted(record_grids) == CACHE_FILES
    for name in CACHE_FILES:
        assert json.loads((CACHE_DIR / name).read_text())["schema"] == CACHE_SCHEMA_VERSION


@pytest.mark.parametrize("name", CACHE_FILES)
def test_committed_cell_recomputes(name, record_grids, trace):
    grid = record_grids[name]
    committed = json.loads((CACHE_DIR / name).read_text())["results"]
    cells = [
        (workload_id, int(repeat))
        for workload_id, entries in committed.items()
        for repeat in entries
    ]
    workload_id, repeat = cells[zlib.crc32(name.encode()) % len(cells)]
    # The cell exactly as the runner's engine runs it.
    result = grid.factory(
        trace.environment(workload_id), grid.objective, run_seed(workload_id, repeat)
    ).run()
    assert json.dumps(result_to_payload(result)) == json.dumps(
        committed[workload_id][str(repeat)]
    ), f"{name}: {workload_id} #{repeat} no longer recomputes"
