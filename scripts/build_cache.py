#!/usr/bin/env python3
"""Run every reproduction experiment and cache results under results/.

Usage::

    python scripts/build_cache.py [--fast] [--check]

``--fast`` uses tiny repeat counts (for smoke-testing the pipeline).
Every figure of the registry (:mod:`repro.analysis.figures`) is built
in experiment-index order with its own repeat profile, then every
ablation grid (:func:`repro.analysis.experiments.ablation_grids`).
Each figure's output lands in ``results/figures/<name>.json``; the raw
per-run cache lives in ``results/cache/`` and makes re-runs incremental.

``--check`` builds into a fresh temporary cache instead, writes nothing
under ``results/``, and compares every cell it computed with the
committed cell in ``results/cache/``, byte for byte; it exits 1 on any
difference or missing cell.  Seeds depend only on the workload and the
repeat, so ``--fast --check`` recomputes a subset of the committed
cells.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.experiments import ablation_grids
from repro.analysis.figures import FIGURES as REGISTRY
from repro.analysis.runner import ExperimentRunner

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
FIGURES = RESULTS / "figures"
CACHE = RESULTS / "cache"


def build(cache_dir: Path, fast: bool, figure_dir: Path | None) -> None:
    """Build every figure and ablation grid over one cache directory."""
    runner = ExperimentRunner(cache_dir=cache_dir)
    for name, figure in REGISTRY.items():
        start = time.time()
        result = figure.build(runner, fast=fast)
        if figure_dir is not None:
            (figure_dir / f"{name}.json").write_text(json.dumps(result, indent=1))
        print(f"[{time.strftime('%H:%M:%S')}] {name} done in {time.time() - start:.0f}s", flush=True)
    start = time.time()
    for grid in ablation_grids().values():
        runner.run(grid)
    print(f"[{time.strftime('%H:%M:%S')}] ablations done in {time.time() - start:.0f}s", flush=True)


def compare(fresh_dir: Path, committed_dir: Path) -> list[str]:
    """One line per recomputed cell that differs from, or is missing
    in, the committed cache."""
    problems = []
    cells = 0
    for fresh_path in sorted(fresh_dir.glob("*.json")):
        committed_path = committed_dir / fresh_path.name
        if not committed_path.exists():
            problems.append(f"{fresh_path.name}: not committed")
            continue
        committed = json.loads(committed_path.read_text())["results"]
        for workload_id, entries in json.loads(fresh_path.read_text())["results"].items():
            for repeat, entry in entries.items():
                cells += 1
                held = committed.get(workload_id, {}).get(repeat)
                if held is None:
                    problems.append(f"{fresh_path.name}: {workload_id} #{repeat} not committed")
                elif json.dumps(held) != json.dumps(entry):
                    problems.append(f"{fresh_path.name}: {workload_id} #{repeat} differs")
    print(f"compared {cells} cells: {len(problems)} differ or are missing")
    return problems


def main() -> int:
    fast = "--fast" in sys.argv
    if "--check" not in sys.argv:
        FIGURES.mkdir(parents=True, exist_ok=True)
        build(CACHE, fast, FIGURES)
        print("all experiments cached")
        return 0
    with tempfile.TemporaryDirectory(prefix="paper-record-") as tmp:
        build(Path(tmp), fast, None)
        problems = compare(Path(tmp), CACHE)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
