"""The golden digest oracle: seeded search output must not drift.

``tests/golden/digests.json`` pins sha256 digests of canonical search
payloads and runner-cache bytes (see ``scripts/golden.py``, which builds
the matrix and re-accepts digests on purpose).  A refactor of the search
loop must leave every digest unchanged.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


def _load_golden():
    spec = importlib.util.spec_from_file_location("golden_oracle", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden()
RECORDED = golden.load()

pytestmark = pytest.mark.skipif(
    RECORDED["versions"] != golden.versions(),
    reason=(
        f"digests recorded with {RECORDED['versions']}, running "
        f"{golden.versions()}: float results are only bit-stable per toolchain"
    ),
)


@pytest.fixture(scope="module")
def payloads(trace):
    return dict(golden.search_payloads(trace))


def _recorded(prefix: str) -> dict[str, str]:
    return {k: v for k, v in RECORDED["digests"].items() if k.startswith(prefix)}


def test_search_digests_unchanged(payloads):
    current = {name: golden.digest(data) for name, data in payloads.items()}
    assert golden.diff(_recorded("search/"), current) == []


@pytest.fixture(scope="module")
def caches(trace):
    return golden.cache_digests(trace)


def test_cache_digests_unchanged(caches):
    assert golden.diff(_recorded("cache/"), caches) == []


@pytest.mark.parametrize("executor", ["pool", "queue"])
def test_process_executor_caches_equal_serial(caches, executor):
    """Two local queue workers, under ``auto`` (the ``pool`` label) or
    ``queue``, write the serial bytes."""
    grid = "cache/augmented-clean"
    assert caches[f"{grid}/{executor}"] == caches[f"{grid}/serial"]


@pytest.mark.parametrize(
    "grid",
    [
        key
        for key, (_, _, labels) in golden.CACHE_GRIDS.items()
        if {"serial", "vector"} <= set(labels)
    ],
)
def test_vector_cache_equals_serial(caches, grid):
    """The vectorized driver scores every round through the scorer the
    serial step uses, so every grid pinned under both executors writes
    the serial bytes: tree and GP groups, searches desynced by faults,
    HistoryBO's prior, Hybrid BO's switch from GP groups to tree groups,
    and warm-refit rounds scored alone."""
    assert caches[f"cache/{grid}/vector"] == caches[f"cache/{grid}/serial"]


def test_matrix_covers_the_pinned_behaviours(payloads):
    """The oracle is only as strong as what its cells exercise."""
    events = [
        (name, event)
        for name, data in payloads.items()
        for event in json.loads(data)["events"]
    ]

    def seen(predicate) -> set[str]:
        return {name for name, event in events if predicate(event)}

    q1 = seen(lambda e: True) - seen(lambda e: e[0] == "batch_suggested")
    batched = seen(lambda e: e[0] == "batch_suggested")
    assert q1 and batched
    # Spot revocations in both detail formats, and fallbacks.
    assert seen(lambda e: e[0] == "spot_revoked" and "remaining work" in e[3]) & q1
    assert seen(lambda e: e[0] == "spot_revoked" and "batch attempt" in e[3]) & batched
    assert seen(lambda e: e[0] == "fallback_to_ondemand") & q1
    assert seen(lambda e: e[0] == "fallback_to_ondemand") & batched
    # Quarantine for failures and for spot churn.
    quarantined = seen(lambda e: e[0] == "vm_quarantined")
    assert quarantined & q1 and quarantined & batched
    assert seen(lambda e: e[0] == "vm_quarantined" and "spot churn" in e[3]) & q1
    # Budget stops on both paths, and jittered waits in the payload.
    stopped = {name: json.loads(data) for name, data in payloads.items()}
    budget = {n for n, p in stopped.items() if p["stopped_by"] == "budget"}
    assert budget & q1 and budget & batched
    assert all(
        p.get("retry_wait_s", 0.0) > 0.0
        for n, p in stopped.items()
        if "/faulty" in n or "/spot/" in n
    )
