"""Shared fixtures for the reproduction benchmark suite.

Every ``test_fig*`` / ``test_table*`` / ``test_sec3c*`` benchmark
regenerates one table or figure of the paper through its entry in
:mod:`repro.analysis.figures` and prints that entry's paper-vs-measured
rows.  Results are cached under
``results/cache`` (shared with ``scripts/build_cache.py``), so a
populated cache makes the whole suite fast; a cold cache computes
everything from scratch.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.trace.generate import default_trace

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def trace():
    """The canonical benchmark trace."""
    return default_trace()


@pytest.fixture(scope="session")
def runner():
    """Experiment runner over the canonical trace with the shared cache."""
    return ExperimentRunner(cache_dir=REPO_ROOT / "results" / "cache")


def show(title: str, rows: list[tuple[str, str, str]]) -> None:
    """Print a paper-vs-measured comparison block."""
    print(f"\n=== {title} ===")
    print(f"{'quantity':<46} {'paper':>16} {'measured':>16}")
    for quantity, paper, measured in rows:
        print(f"{quantity:<46} {paper:>16} {measured:>16}")
