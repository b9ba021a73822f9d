"""Optimizer-level spot pricing: retry ladder, partial credit, fallback.

The contract under test:

* With ``spot=None`` nothing changes: integer charged cost, no spot
  events — the on-demand path is the historic path.
* With a :class:`~repro.cloud.spot.SpotPolicy`, successes are charged
  the discounted price ratio, revocations bill only the progress made
  (at spot price) and bank a checkpoint, and retries that resume from
  the checkpoint are strictly cheaper than starting from scratch.
* After ``fallback_after`` revocations inside one observation's retry
  ladder the remaining attempts run on-demand (``fallback_to_ondemand``
  event) at full price.
* Spot runs are deterministic given the market seed and independent of
  the order a q=4 round's tasks run in, with the PR-7 batch-commit
  divergence pinned — not silently drifting — under revocations.
"""

from __future__ import annotations

import pytest

from repro.cloud.spot import SpotMarket, SpotPolicy
from repro.core.augmented_bo import AugmentedBO
from repro.core.baselines import RandomSearch
from repro.faults.models import FaultInjector, FaultPlan, SpotInterruptions
from repro.faults.retry import RetryPolicy
from tests.test_batch_equivalence import batch_rounds_both_orders

WORKLOAD = "kmeans/Spark 2.1/small"

#: High-hazard market: revocations reliably appear in an 18-VM sweep.
HOT_MARKET = dict(seed=5, base_hazard=0.25, hazard_slope=0.5)


def _spot_env(trace, market: SpotMarket, seed: int = 0):
    plan = FaultPlan((SpotInterruptions(market=market),), seed=seed)
    return FaultInjector(trace.environment(WORKLOAD), plan)


def _policy(**overrides) -> SpotPolicy:
    return SpotPolicy(market=SpotMarket(**HOT_MARKET), **overrides)


class TestOnDemandUnchanged:
    def test_no_spot_means_integer_unit_billing(self, trace):
        result = RandomSearch(trace.environment(WORKLOAD), seed=0).run()
        assert isinstance(result.charged_cost, int)
        assert result.charged_cost == result.search_cost
        assert all(step.charge == 1.0 for step in result.steps)
        kinds = {e.kind for e in result.events}
        assert "spot_revoked" not in kinds
        assert "fallback_to_ondemand" not in kinds


class TestSpotCharges:
    def test_success_charges_the_discounted_ratio(self, trace):
        # Spot policy over a clean environment (no revocation plan):
        # every measurement succeeds first try at the discounted price.
        market = SpotMarket(seed=5)
        result = RandomSearch(
            trace.environment(WORKLOAD), seed=0, spot=SpotPolicy(market=market)
        ).run()
        assert result.failure_count == 0
        for step in result.steps:
            assert step.charge == pytest.approx(1.0 - market.discount(step.vm_name))
        assert result.charged_cost < result.search_cost

    def test_objective_values_are_untouched_by_pricing(self, trace):
        # Spot pricing changes what a measurement *costs*, never what it
        # *returns* — the trace stays ground truth.
        on_demand = RandomSearch(trace.environment(WORKLOAD), seed=0).run()
        spot = RandomSearch(
            trace.environment(WORKLOAD), seed=0,
            spot=SpotPolicy(market=SpotMarket(seed=5)),
        ).run()
        assert [s.objective_value for s in spot.steps] == [
            s.objective_value for s in on_demand.steps
        ]
        assert spot.best_vm_name == on_demand.best_vm_name

    def test_spot_run_is_deterministic(self, trace):
        def run():
            market = SpotMarket(**HOT_MARKET)
            return RandomSearch(
                _spot_env(trace, market), seed=3,
                retry_policy=RetryPolicy.from_retries(5),
                spot=_policy(),
            ).run()

        a, b = run(), run()
        assert a == b
        assert a.charged_cost == b.charged_cost

    def test_revocations_bill_partial_progress(self, trace):
        market = SpotMarket(**HOT_MARKET)
        result = RandomSearch(
            _spot_env(trace, market), seed=3,
            retry_policy=RetryPolicy.from_retries(5), spot=_policy(),
        ).run()
        revoked = [e for e in result.events if e.kind == "spot_revoked"]
        assert revoked, "hot market produced no revocations"
        # Every revocation bills strictly less than a whole attempt at
        # the VM's spot price: only the progress made, discounted.
        revoked_failures = [
            f for f in result.failure_events if "revoked" in f.error
        ]
        assert revoked_failures
        for failure in revoked_failures:
            assert 0.0 <= failure.charge < 1.0 - market.discount(failure.vm_name) + 1e-9

    def test_resume_credit_makes_retries_strictly_cheaper(self, trace):
        def charged(credit: float) -> float:
            market = SpotMarket(**HOT_MARKET)
            result = RandomSearch(
                _spot_env(trace, market), seed=3,
                retry_policy=RetryPolicy.from_retries(5),
                spot=_policy(resume_credit=credit, fallback_after=1_000_000),
            ).run()
            assert any(e.kind == "spot_revoked" for e in result.events)
            return result.charged_cost

        # Identical market, identical revocation stream: the only
        # difference is whether retries resume from the checkpoint.
        assert charged(1.0) < charged(0.0)


class TestFallback:
    def test_fallback_event_after_threshold(self, trace):
        market = SpotMarket(**HOT_MARKET)
        result = RandomSearch(
            _spot_env(trace, market), seed=3,
            retry_policy=RetryPolicy.from_retries(5),
            spot=_policy(fallback_after=1),
        ).run()
        fallbacks = [e for e in result.events if e.kind == "fallback_to_ondemand"]
        assert fallbacks, "fallback_after=1 under a hot market never fell back"
        for event in fallbacks:
            assert "on-demand" in event.detail

    def test_fallback_disabled_by_large_threshold(self, trace):
        market = SpotMarket(**HOT_MARKET)
        result = RandomSearch(
            _spot_env(trace, market), seed=3,
            retry_policy=RetryPolicy.from_retries(5),
            spot=_policy(fallback_after=1_000_000),
        ).run()
        assert any(e.kind == "spot_revoked" for e in result.events)
        assert not any(e.kind == "fallback_to_ondemand" for e in result.events)


class TestRevocationQuarantine:
    def test_churn_quarantines_a_vm(self, trace):
        # Quarantine after 2 cumulative revocations of one VM, with
        # fallback effectively off and few ladder retries, so churn
        # accumulates across rounds.
        market = SpotMarket(seed=9, base_hazard=0.55, hazard_slope=0.4)
        plan = FaultPlan((SpotInterruptions(market=market),), seed=1)
        result = RandomSearch(
            FaultInjector(trace.environment(WORKLOAD), plan),
            seed=3,
            retry_policy=RetryPolicy.from_retries(1),
            spot=SpotPolicy(
                market=market, fallback_after=1_000_000, revocation_quarantine=2
            ),
        ).run()
        churn = [
            e for e in result.events
            if e.kind == "vm_quarantined" and "spot churn" in e.detail
        ]
        assert churn, "no churn quarantine under a 55%-hazard market"
        assert result.quarantined_vms


class TestBatchSpot:
    """q=4 under spot: deterministic, order-independent, divergence pinned."""

    def _kwargs(self, **extra):
        kwargs = dict(
            seed=5,
            retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.1),
            spot=_policy(),
        )
        kwargs.update(extra)
        return kwargs

    def test_q4_clean_spot_matches_serial(self, trace):
        # No revocation plan: the batch path has nothing to retry, so
        # q=4 must measure the same VMs and bill the same charges the
        # serial loop does (the PR-7 divergence is retry-scheduling
        # only).
        market = SpotMarket(seed=5)
        serial = AugmentedBO(
            trace.environment(WORKLOAD), seed=5, spot=SpotPolicy(market=market)
        ).run()
        batched = AugmentedBO(
            trace.environment(WORKLOAD), seed=5, batch_size=4,
            spot=SpotPolicy(market=market),
        ).run()
        assert sorted(batched.measured_vm_names) == sorted(serial.measured_vm_names)
        assert batched.charged_cost == pytest.approx(serial.charged_cost)
        assert batched.best_vm_name == serial.best_vm_name

    def test_q4_spot_deterministic_and_order_independent(self, trace):
        def build():
            market = SpotMarket(**HOT_MARKET)
            return AugmentedBO(
                _spot_env(trace, market), batch_size=4, **self._kwargs()
            )

        inline = build().run()
        again = build().run()
        assert inline == again
        assert any(e.kind == "spot_revoked" for e in inline.events)
        rounds = batch_rounds_both_orders(build)
        # Revocations reach the reordered tasks, not only the full run.
        assert any(
            failure.revocation
            for outcomes in rounds
            for outcome in outcomes
            for failure in outcome.failures
        )

    def test_q4_divergence_from_serial_is_pinned(self, trace):
        """The PR-7 batch-commit divergence, now with revocations.

        A batched task runs its full retry ladder before the commit
        lands quarantine/fallback state, so q=4 may retry (and be
        charged for) attempts the serial loop would have skipped.  The
        divergence is intentional; this pins it so a silent semantic
        change in either path fails loudly.
        """
        def run(batch_size: int):
            market = SpotMarket(**HOT_MARKET)
            return AugmentedBO(
                _spot_env(trace, market),
                batch_size=batch_size,
                **self._kwargs(),
            ).run()

        serial, batched = run(1), run(4)
        # Both paths are individually reproducible ...
        assert run(1) == serial
        assert run(4) == batched
        # ... and both saw revocations under the hot market.
        assert any(e.kind == "spot_revoked" for e in serial.events)
        assert any(e.kind == "spot_revoked" for e in batched.events)
        # The pinned divergence: same search, different retry schedule,
        # hence different charged totals.
        assert serial.charged_cost != batched.charged_cost
