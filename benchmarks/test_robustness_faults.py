"""Robustness benchmark: search cost under rising measurement-failure rates.

Not a figure from the paper — a fault matrix for the fault-tolerant
measurement layer: Naive BO vs Augmented BO on one workload, with the
transient-failure rate swept from 0 to 40%.  The searches must complete
at every rate (degrading, not dying), and the *charged* cost — failed
attempts included — is the honest price of searching a flaky cloud.

The spot section compares the charged cost of the same search under
three pricing regimes — on-demand, pure spot (never falls back), and
spot with the on-demand fallback ladder — and records the result in
the ``spot`` section of ``BENCH_perf.json``, where
``scripts/check_perf_regression.py`` holds the saving ratio to a
>= 1.05x floor.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from conftest import REPO_ROOT, show
from repro.cloud.spot import SpotMarket, SpotPolicy
from repro.core.augmented_bo import AugmentedBO
from repro.core.naive_bo import NaiveBO
from repro.core.stopping import PredictionDeltaThreshold
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SpotInterruptions,
    TransientTimeouts,
)

WORKLOAD = "kmeans/Spark 2.1/small"
RATES = (0.0, 0.2, 0.4)
METHODS = (("naive-bo", NaiveBO), ("augmented-bo", AugmentedBO))


def run_search(trace, cls, rate: float, seed: int):
    environment = trace.environment(WORKLOAD)
    if rate > 0:
        plan = FaultPlan((TransientTimeouts(rate=rate),), seed=17 + seed)
        environment = FaultInjector(environment, plan)
    return cls(
        environment,
        stopping=PredictionDeltaThreshold(threshold=1.1),
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=1.0),
        seed=seed,
    ).run()


@pytest.mark.parametrize("method_name,cls", METHODS, ids=[m for m, _ in METHODS])
def test_search_degrades_gracefully_under_faults(trace, method_name, cls):
    optimum = trace.times_for(WORKLOAD).min()
    rows = []
    charged_by_rate = {}
    for rate in RATES:
        results = [run_search(trace, cls, rate, seed) for seed in range(3)]
        charged = [r.charged_cost for r in results]
        charged_by_rate[rate] = sum(charged) / len(charged)
        ratios = [r.best_value / optimum for r in results]
        rows.append(
            (
                f"{method_name} @ {rate:.0%} failure rate",
                "completes",
                f"charged {charged_by_rate[rate]:.1f}, "
                f"best {max(ratios):.2f}x opt",
            )
        )
        for result in results:
            # Degrade, never die: every search ends with a usable result.
            assert result.search_cost >= 1
            assert result.charged_cost >= result.search_cost
            assert result.best_value / optimum < 2.0
        if rate == 0.0:
            assert all(r.failure_count == 0 for r in results)
        else:
            assert any(r.failure_count > 0 for r in results)
    show(f"fault matrix — {method_name}", rows)
    # Failures make search strictly more expensive in charged attempts.
    assert charged_by_rate[RATES[-1]] > charged_by_rate[0.0]


def test_fault_matrix_is_deterministic(trace):
    a = run_search(trace, NaiveBO, 0.4, seed=1)
    b = run_search(trace, NaiveBO, 0.4, seed=1)
    assert a == b


# -- spot pricing ----------------------------------------------------------

SPOT_MARKET_SEED = 11
SPOT_SEEDS = (0, 1, 2)


def _store_bench(section: str, payload: dict) -> None:
    bench_path = REPO_ROOT / "BENCH_perf.json"
    bench = {}
    if bench_path.exists():
        try:
            bench = json.loads(bench_path.read_text())
        except json.JSONDecodeError:
            bench = {}
    payload.setdefault("cpu_count", os.cpu_count())
    payload.setdefault("clamped", False)
    bench[section] = payload
    bench_path.write_text(json.dumps(bench, indent=2) + "\n")


def run_spot_search(trace, seed: int, policy: SpotPolicy | None):
    """One Augmented BO search; spot pricing when ``policy`` is given.

    The spot runs layer a market-driven revocation plan over the same
    environment; objective values are untouched (the trace stays ground
    truth), so only the charge accounting and retry ladder differ.
    """
    environment = trace.environment(WORKLOAD)
    if policy is not None:
        plan = FaultPlan(
            (SpotInterruptions(market=policy.market),),
            seed=SPOT_MARKET_SEED + seed,
        )
        environment = plan.injector(environment)
    return AugmentedBO(
        environment,
        stopping=PredictionDeltaThreshold(threshold=1.1),
        retry_policy=RetryPolicy.from_retries(6),
        seed=seed,
        spot=policy,
    ).run()


def _policy(**overrides) -> SpotPolicy:
    # Hazard boosted above the default so revocations (and the fallback
    # ladder) actually fire within the benchmark's short searches; the
    # default market rarely revokes twice on one VM here.
    market = SpotMarket(seed=SPOT_MARKET_SEED, base_hazard=0.25, hazard_slope=0.5)
    return SpotPolicy(market=market, **overrides)


def test_spot_pricing_saves_charged_cost(trace):
    def mean_charged(policy_for) -> float:
        charges = [
            run_spot_search(trace, seed, policy_for()).charged_cost
            for seed in SPOT_SEEDS
        ]
        return sum(charges) / len(charges)

    on_demand_cost = mean_charged(lambda: None)
    # A fallback threshold no 6-retry ladder can reach: pure spot.
    spot_cost = mean_charged(lambda: _policy(fallback_after=1_000_000))
    spot_fallback_cost = mean_charged(lambda: _policy())
    saving_ratio = on_demand_cost / spot_fallback_cost

    show("spot pricing — augmented-bo charged cost", [
        ("on-demand", "baseline", f"{on_demand_cost:.2f}"),
        ("spot (no fallback)", "discounted", f"{spot_cost:.2f}"),
        ("spot + fallback", "discounted", f"{spot_fallback_cost:.2f}"),
        ("saving ratio", ">= 1.05 floor", f"{saving_ratio:.2f}x"),
    ])

    # Spot discounts must beat unit billing even after revocation churn
    # and partial-charge retries; the perf gate pins the same floor.
    assert saving_ratio >= 1.05
    assert spot_cost < on_demand_cost

    _store_bench("spot", {
        "workload": WORKLOAD,
        "seeds": len(SPOT_SEEDS),
        "on_demand_cost": round(on_demand_cost, 6),
        "spot_cost": round(spot_cost, 6),
        "spot_fallback_cost": round(spot_fallback_cost, 6),
        "saving_ratio": round(saving_ratio, 6),
    })


def test_spot_pricing_is_deterministic(trace):
    a = run_spot_search(trace, 1, _policy())
    b = run_spot_search(trace, 1, _policy())
    assert a == b
    assert a.charged_cost == b.charged_cost
