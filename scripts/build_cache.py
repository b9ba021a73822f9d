#!/usr/bin/env python3
"""Run every reproduction experiment and cache results under results/.

Usage::

    python scripts/build_cache.py [--fast]

``--fast`` uses tiny repeat counts (for smoke-testing the pipeline).
Every figure of the registry (:mod:`repro.analysis.figures`) is built
in experiment-index order with its own repeat profile.
Each figure's output lands in ``results/figures/<name>.json``; the raw
per-run cache lives in ``results/cache/`` and makes re-runs incremental.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.analysis.figures import FIGURES as REGISTRY
from repro.analysis.runner import ExperimentRunner

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
FIGURES = RESULTS / "figures"


def main() -> None:
    fast = "--fast" in sys.argv
    FIGURES.mkdir(parents=True, exist_ok=True)
    runner = ExperimentRunner(cache_dir=RESULTS / "cache")

    for name, figure in REGISTRY.items():
        start = time.time()
        result = figure.build(runner, fast=fast)
        (FIGURES / f"{name}.json").write_text(json.dumps(result, indent=1))
        print(f"[{time.strftime('%H:%M:%S')}] {name} done in {time.time() - start:.0f}s", flush=True)

    print("all experiments cached")


if __name__ == "__main__":
    main()
