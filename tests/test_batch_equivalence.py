"""Batched-suggestion equivalence and determinism guarantees.

The contract under test:

* ``batch_size=1`` is the classic sequential loop, bit for bit — same
  :class:`~repro.core.result.SearchResult`, same cache payload bytes —
  on the GP path, the tree path, and under fault plans with quarantine
  active.
* ``batch_size=q`` commits outcomes in catalog-index order with
  per-measurement spawn-key seeding, so a round's outcomes are
  independent of the order its measurement tasks run in.
* The incrementally-grown observation buffers expose exactly the same
  state the per-access rebuilds used to.
* The ``begin_round``/``complete_round`` split runs real q>1 batch
  rounds (bit-identical to :meth:`run`) or refuses clearly.
* The two documented q>1 divergences hold: budget overshoot of at most
  ``q * (max_attempts - 1)`` charges, and a VM quarantined by a batch
  commit has run its whole retry schedule.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.runner import result_to_payload, valid_payload
from repro.cloud.spot import SpotMarket, SpotPolicy
from repro.core.acquisition import liar_value, top_q_indices
from repro.core.augmented_bo import AugmentedBO
from repro.core.baselines import RandomSearch
from repro.core.hybrid_bo import HybridBO
from repro.core.naive_bo import NaiveBO
from repro.core.stopping import EIThreshold
from repro.faults.models import FaultInjector, parse_fault_plan
from repro.faults.retry import RetryPolicy

OPTIMIZERS = (NaiveBO, AugmentedBO, HybridBO)

FAULT_SPEC = "transient:rate=0.4+outage:vm=c4.large"


def _payload_bytes(result) -> bytes:
    return json.dumps(result_to_payload(result), sort_keys=True).encode()


def _faulty_env(trace, workload_id, seed=3):
    plan = parse_fault_plan(FAULT_SPEC, seed=seed)
    return FaultInjector(trace.environment(workload_id), plan)


@pytest.mark.parametrize("cls", OPTIMIZERS)
def test_q1_bit_identical_clean(trace, cls):
    workload_id = next(iter(trace.registry)).workload_id
    baseline = cls(trace.environment(workload_id), seed=11).run()
    batched = cls(trace.environment(workload_id), seed=11, batch_size=1).run()
    assert batched == baseline
    assert _payload_bytes(batched) == _payload_bytes(baseline)
    # q=1 takes the sequential path: no batch events at all.
    assert not any(e.kind.startswith("batch_") for e in batched.events)


@pytest.mark.parametrize("cls", OPTIMIZERS)
def test_q1_bit_identical_under_faults(trace, cls):
    """q=1 equivalence with retries running and the breaker quarantining."""
    workload_id = next(iter(trace.registry)).workload_id
    kwargs = dict(
        seed=11,
        retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.1),
        quarantine_after=2,
    )
    baseline = cls(_faulty_env(trace, workload_id), **kwargs).run()
    batched = cls(_faulty_env(trace, workload_id), batch_size=1, **kwargs).run()
    assert batched == baseline
    assert _payload_bytes(batched) == _payload_bytes(baseline)
    # The scenario must actually exercise the fault machinery.
    assert baseline.failure_events
    assert "c4.large" in baseline.quarantined_vms


@pytest.mark.parametrize("cls", OPTIMIZERS)
def test_q4_exhausts_catalog_with_batch_events(trace, cls):
    workload_id = next(iter(trace.registry)).workload_id
    result = cls(trace.environment(workload_id), seed=7, batch_size=4).run()
    names = [step.vm_name for step in result.steps]
    assert result.stopped_by == "exhausted"
    assert len(names) == len(set(names)) == 18
    suggested = [e for e in result.events if e.kind == "batch_suggested"]
    measured = [e for e in result.events if e.kind == "batch_measured"]
    # 3 initial + 4 rounds of (4, 4, 4, 3).
    assert len(suggested) == len(measured) == 4
    assert suggested[0].detail.startswith("q=4: ")
    # The batch events survive the cache's payload codec.
    assert valid_payload(result_to_payload(result))


def batch_rounds_both_orders(build):
    """Every q>1 round's outcomes, with its tasks run in both orders.

    Drives two searches from ``build()`` (identically seeded, so in the
    same state) round by round.  Each round's picks run their
    :meth:`~repro.core.smbo.SequentialOptimizer.batch_measure_task` in
    pick order on one optimiser and in reverse on the other; the two
    outcome lists must be equal before the round is committed.
    """
    states = (build().start(), build().start())
    for state in states:
        while state.phase == "init":
            state.step()
    rounds = []
    iteration = 0
    while True:
        opened = [state.begin_round() for state in states]
        if opened[0] is None:
            assert opened[1] is None
            return rounds
        iteration += 1
        outcomes = []
        suggestions = []
        for state, candidates, order in zip(states, opened, (1, -1)):
            opt = state.optimizer
            acquisition, picked = opt._suggest_batch(candidates, opt.batch_size)
            suggestions.append((candidates, acquisition, picked))
            tasks = [opt.batch_measure_task((iteration, i)) for i in picked[::order]]
            outcomes.append(sorted(tasks, key=lambda outcome: outcome.index))
        assert outcomes[0] == outcomes[1]
        rounds.append(outcomes[0])
        for state, (candidates, acquisition, picked) in zip(states, suggestions):
            state.complete_round(candidates, acquisition, picked=picked)


def test_q4_deterministic_and_order_independent(trace):
    """Identical outcomes whatever order a round's tasks run in."""
    workload_id = next(iter(trace.registry)).workload_id
    kwargs = dict(
        seed=5,
        batch_size=4,
        retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.1),
        quarantine_after=2,
    )
    inline = AugmentedBO(_faulty_env(trace, workload_id), **kwargs).run()
    again = AugmentedBO(_faulty_env(trace, workload_id), **kwargs).run()
    assert inline == again
    assert _payload_bytes(again) == _payload_bytes(inline)
    rounds = batch_rounds_both_orders(
        lambda: AugmentedBO(_faulty_env(trace, workload_id), **kwargs)
    )
    assert rounds
    # The plan really injected faults into the batch tasks.
    assert any(outcome.failures for outcomes in rounds for outcome in outcomes)


def test_q4_respects_measurement_budget(trace):
    workload_id = next(iter(trace.registry)).workload_id
    result = AugmentedBO(
        trace.environment(workload_id), seed=7, batch_size=4, max_measurements=8
    ).run()
    assert result.stopped_by == "budget"
    # 3 initial + one full round of 4 + a 1-pick truncated round.
    assert len(result.steps) == 8


def test_q4_stopping_criterion_fires(trace):
    workload_id = next(iter(trace.registry)).workload_id
    result = NaiveBO(
        trace.environment(workload_id),
        seed=7,
        batch_size=4,
        stopping=EIThreshold(fraction=10.0),
    ).run()
    assert result.stopped_by == "criterion"
    assert any(e.kind == "stopping_rule_fired" for e in result.events)


def test_default_batch_hook_covers_baselines(trace):
    workload_id = next(iter(trace.registry)).workload_id
    result = RandomSearch(
        trace.environment(workload_id), seed=7, batch_size=3
    ).run()
    names = [step.vm_name for step in result.steps]
    assert result.stopped_by == "exhausted"
    assert len(names) == len(set(names)) == 18


def test_batch_constructor_validation(trace):
    workload_id = next(iter(trace.registry)).workload_id
    env = trace.environment(workload_id)
    with pytest.raises(ValueError, match="batch_size"):
        AugmentedBO(env, batch_size=0)
    with pytest.raises(ValueError, match="liar"):
        AugmentedBO(env, liar="median")


def test_liar_strategies_follow_batch_choice(trace):
    """All liar strategies run the GP batch path and cover the catalog."""
    workload_id = next(iter(trace.registry)).workload_id
    picks = {}
    for liar in ("min", "mean", "max"):
        result = NaiveBO(
            trace.environment(workload_id), seed=7, batch_size=4, liar=liar
        ).run()
        assert result.stopped_by == "exhausted"
        picks[liar] = tuple(step.vm_name for step in result.steps)
    # Strategies fantasize different values, so at least one ordering
    # should differ (all three agreeing would mean the liar is inert).
    assert len(set(picks.values())) > 1


# -- observation-buffer equivalence (the incremental-state refactor) ---------


@pytest.mark.parametrize("cls", OPTIMIZERS)
def test_observation_buffers_match_result(trace, cls):
    workload_id = next(iter(trace.registry)).workload_id
    optimizer = cls(trace.environment(workload_id), seed=11)
    result = optimizer.run()
    values = optimizer.measured_values
    assert isinstance(values, np.ndarray)
    assert not values.flags.writeable
    np.testing.assert_array_equal(
        values, [step.objective_value for step in result.steps]
    )
    assert optimizer.best_observed == min(step.objective_value for step in result.steps)
    catalog = list(optimizer._env.catalog)
    assert [catalog[i].name for i in optimizer.measured_indices] == [
        step.vm_name for step in result.steps
    ]
    assert [m is not None for m in optimizer.measured_measurements] == [True] * len(
        result.steps
    )
    assert len(optimizer.measured_indices) == len(values)


def test_buffers_reset_between_runs(trace):
    """A second run() starts from empty buffers, not stale state.

    (Back-to-back runs draw a fresh initial design from the advancing
    init stream, so the *results* legitimately differ — the invariant is
    that the buffers describe exactly the latest run.)
    """
    workload_id = next(iter(trace.registry)).workload_id
    optimizer = AugmentedBO(trace.environment(workload_id), seed=11)
    optimizer.run()
    second = optimizer.run()
    assert len(optimizer.measured_values) == len(second.steps)
    np.testing.assert_array_equal(
        optimizer.measured_values, [step.objective_value for step in second.steps]
    )


# -- acquisition helper units ------------------------------------------------


def test_liar_value_strategies():
    values = np.array([3.0, 1.0, 2.0])
    assert liar_value(values, "min") == 1.0
    assert liar_value(values, "mean") == 2.0
    assert liar_value(values, "max") == 3.0
    with pytest.raises(ValueError, match="liar"):
        liar_value(values, "median")
    with pytest.raises(ValueError, match="at least one"):
        liar_value(np.array([]), "min")


def test_top_q_indices_is_stable_and_argmax_first():
    scores = np.array([0.3, 0.9, 0.9, 0.1])
    assert top_q_indices(scores, 1) == [int(np.argmax(scores))]
    assert top_q_indices(scores, 3) == [1, 2, 0]
    assert top_q_indices(scores, 10) == [1, 2, 0, 3]
    with pytest.raises(ValueError, match="q"):
        top_q_indices(scores, 0)


# -- the round split at q > 1 --------------------------------------------------


def _drive_round_split(optimizer):
    """Drive a search through begin_round/complete_round, as a driver would."""
    state = optimizer.start()
    while not state.done:
        if state.phase == "init":
            state.step()
            continue
        candidates = state.begin_round()
        if candidates is None:
            break
        acquisition, picked = optimizer._suggest_batch(
            candidates, optimizer.batch_size
        )
        state.complete_round(candidates, acquisition, picked=picked)
    return state.result()


@pytest.mark.parametrize("faulty", [False, True])
def test_q4_round_split_runs_real_batch_rounds(trace, faulty):
    workload_id = next(iter(trace.registry)).workload_id

    def build():
        environment = (
            _faulty_env(trace, workload_id)
            if faulty
            else trace.environment(workload_id)
        )
        return AugmentedBO(
            environment, seed=7, batch_size=4,
            retry_policy=RetryPolicy(max_attempts=3),
        )

    expected = build().run()
    driven = _drive_round_split(build())
    assert driven == expected
    assert _payload_bytes(driven) == _payload_bytes(expected)
    assert any(e.kind == "batch_suggested" for e in driven.events)


def test_q4_round_split_without_picks_raises_before_applying(trace):
    workload_id = next(iter(trace.registry)).workload_id
    optimizer = AugmentedBO(trace.environment(workload_id), seed=7, batch_size=4)
    state = optimizer.start()
    while state.phase == "init":
        state.step()
    candidates = state.begin_round()
    events = len(optimizer._events)
    with pytest.raises(ValueError, match="batch_size=4"):
        state.complete_round(candidates, optimizer._score_candidates(candidates))
    assert len(optimizer._events) == events  # nothing was half-applied
    assert state.phase == "search"


# -- the documented q > 1 divergences -------------------------------------------

MAX_ATTEMPTS = 3


def _bounded_search(trace, pricing, q, seed, max_measurements=None):
    workload_id = "kmeans/Spark 2.1/small"
    spec = FAULT_SPEC
    kwargs = {}
    if pricing == "spot":
        spec += "+spot:market=5,base=0.25,slope=0.5"
        market = SpotMarket(seed=5, base_hazard=0.25, hazard_slope=0.5)
        kwargs["spot"] = SpotPolicy(market=market)
    environment = FaultInjector(
        trace.environment(workload_id), parse_fault_plan(spec, seed=seed)
    )
    return AugmentedBO(
        environment,
        seed=seed,
        batch_size=q,
        max_measurements=max_measurements,
        retry_policy=RetryPolicy(max_attempts=MAX_ATTEMPTS),
        quarantine_after=2,
        **kwargs,
    ).run()


@pytest.mark.parametrize("pricing", ["on-demand", "spot"])
def test_q4_budget_overshoot_is_bounded(trace, pricing):
    """Per-pick reservation overshoots by at most q * (max_attempts - 1)."""
    q = 4
    overshoots = []
    for seed in range(4):
        for budget in (6, 9, 12):
            result = _bounded_search(trace, pricing, q, seed, budget)
            assert result.charged_cost <= budget + q * (MAX_ATTEMPTS - 1)
            overshoots.append(result.charged_cost - budget)
    # The bound is exercised, not vacuous: some batch ran past the budget.
    assert max(overshoots) > 0


@pytest.mark.parametrize("pricing", ["on-demand", "spot"])
def test_batch_quarantine_bills_the_full_retry_schedule(trace, pricing):
    """A VM quarantined by a batch commit ran its whole retry schedule.

    The task finished its schedule before the commit landed the
    quarantine: it stopped only at a success or at ``max_attempts``,
    and every attempt it made was billed.
    """
    quarantines = continued = 0
    for seed in range(4):
        result = _bounded_search(trace, pricing, 4, seed)
        window = None
        for event in result.events:
            if event.kind == "batch_suggested":
                window = []
            elif event.kind == "batch_measured":
                for at, quarantine in enumerate(window):
                    if quarantine.kind != "vm_quarantined":
                        continue
                    mine = [e for e in window if e.vm_name == quarantine.vm_name]
                    # One measurement_started per billed attempt.
                    billed = [e for e in mine if e.kind == "measurement_started"]
                    succeeded = mine[-1].kind == "measurement_finished"
                    assert succeeded or len(billed) == MAX_ATTEMPTS
                    quarantines += 1
                    continued += any(
                        e.kind == "measurement_started"
                        and e.vm_name == quarantine.vm_name
                        for e in window[at:]
                    )
                window = None
            elif window is not None:
                window.append(event)
    assert quarantines
    # The divergence is real: some schedules ran on past the quarantine.
    assert continued


def test_live_quarantine_abandons_the_retry_schedule(trace):
    """The q=1 contrast: the live guard stops at the quarantine."""
    checked = 0
    for seed in range(4):
        result = _bounded_search(trace, "on-demand", 1, seed)
        for event in result.events:
            if event.kind == "vm_quarantined":
                failures = [
                    f for f in result.failure_events if f.vm_name == event.vm_name
                ]
                assert len(failures) == 2 < MAX_ATTEMPTS
                checked += 1
    assert checked
