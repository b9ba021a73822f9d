"""Unit tests for the seeded spot market (repro.cloud.spot)."""

import math
import zlib

import numpy as np
import pytest

from repro.cloud.catalog import get_catalog
from repro.cloud.spot import (
    PRICING_MODES,
    PriceQuote,
    SpotMarket,
    SpotPolicy,
    spot_twin,
)


@pytest.fixture(scope="module")
def catalog():
    return get_catalog("aws-2017")


class TestSpotMarket:
    def test_market_is_a_pure_function_of_its_seed(self, catalog):
        a, b = SpotMarket(seed=7), SpotMarket(seed=7)
        for vm in catalog.vms:
            assert a.discount(vm.name) == b.discount(vm.name)
            assert a.hazard(vm.name) == b.hazard(vm.name)
            assert a.quote(vm, 1.0, tick=3) == b.quote(vm, 1.0, tick=3)

    def test_different_seeds_quote_different_markets(self, catalog):
        a, b = SpotMarket(seed=7), SpotMarket(seed=8)
        discounts_a = [a.discount(vm.name) for vm in catalog.vms]
        discounts_b = [b.discount(vm.name) for vm in catalog.vms]
        assert discounts_a != discounts_b

    def test_discounts_stay_in_configured_range(self, catalog):
        market = SpotMarket(seed=3, min_discount=0.2, max_discount=0.6)
        for vm in catalog.vms:
            assert 0.2 <= market.discount(vm.name) <= 0.6

    def test_discount_keyed_by_name_not_catalog_position(self, catalog):
        # Growing the catalog must never move an existing VM's market.
        market = SpotMarket(seed=5)
        alone = market.discount(catalog.vms[0].name)
        for vm in catalog.vms:
            market.discount(vm.name)  # interleave other queries
        assert market.discount(catalog.vms[0].name) == alone

    @pytest.mark.parametrize("seed", [0, 1, 5, 2018, 2**31 - 1])
    def test_memoised_discount_matches_a_fresh_stream(self, seed):
        # The reference draws the tick-0 uniform from a new Philox
        # stream on every call, as the market did before memoising it.
        market = SpotMarket(seed=seed, min_discount=0.3, max_discount=0.7)
        for _ in range(2):  # cold, then memoised
            for vm in get_catalog("multicloud").vms:
                u = np.random.default_rng(
                    [seed, zlib.crc32(vm.name.encode()) & 0x7FFFFFFF]
                ).random()
                assert market.discount(vm.name) == 0.3 + float(u) * (0.7 - 0.3)

    def test_hazard_rises_with_discount(self, catalog):
        market = SpotMarket(seed=11, hazard_slope=0.5)
        by_discount = sorted(
            (market.discount(vm.name), market.hazard(vm.name))
            for vm in catalog.vms
        )
        hazards = [h for _, h in by_discount]
        assert hazards == sorted(hazards)
        assert hazards[-1] > hazards[0]

    def test_hazard_capped_below_one(self):
        market = SpotMarket(seed=0, base_hazard=0.9, hazard_slope=10.0)
        assert market.hazard("c3.large") == 0.95

    def test_quote_terms(self, catalog):
        market = SpotMarket(seed=2)
        vm = catalog.vms[0]
        quote = market.quote(vm, 2.0)
        assert isinstance(quote, PriceQuote)
        assert quote.pricing == "spot"
        assert quote.vm_name == vm.name
        assert quote.on_demand_price_per_hour == 2.0
        assert quote.price_per_hour == pytest.approx(
            2.0 * (1.0 - quote.discount), abs=1e-6
        )
        assert quote.price_ratio == pytest.approx(1.0 - quote.discount)
        assert 0.0 < quote.price_per_hour < 2.0

    def test_tick_zero_is_stable_later_ticks_wobble(self, catalog):
        market = SpotMarket(seed=2, volatility=0.1)
        vm = catalog.vms[0]
        base = market.quote(vm, 2.0, tick=0)
        assert market.quote(vm, 2.0, tick=0) == base
        wobbled = {market.quote(vm, 2.0, tick=t).price_per_hour for t in (1, 2, 3)}
        assert len(wobbled) == 3
        for price in wobbled:
            assert abs(price - base.price_per_hour) <= 0.1 * base.price_per_hour + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="discounts"):
            SpotMarket(min_discount=0.9, max_discount=0.5)
        with pytest.raises(ValueError, match="base_hazard"):
            SpotMarket(base_hazard=1.0)
        with pytest.raises(ValueError, match="hazard_slope"):
            SpotMarket(hazard_slope=-0.1)
        with pytest.raises(ValueError, match="volatility"):
            SpotMarket(volatility=1.0)


class TestSpotTwin:
    def test_twin_preserves_instance_space(self, catalog):
        twin = spot_twin(catalog, SpotMarket(seed=4))
        assert twin.name == catalog.name
        assert twin.vms == catalog.vms
        assert "spot twin" in twin.description

    def test_twin_prices_are_discounted(self, catalog):
        market = SpotMarket(seed=4)
        twin = spot_twin(catalog, market)
        for vm in catalog.vms:
            on_demand = catalog.prices.prices[vm.name]
            spot = twin.prices.prices[vm.name]
            assert spot < on_demand
            assert spot == pytest.approx(
                on_demand * (1.0 - market.discount(vm.name)), abs=1e-6
            )


class TestSpotPolicy:
    def test_pricing_modes(self):
        assert PRICING_MODES == ("on-demand", "spot")

    def test_expected_cost_below_on_demand_with_full_resume(self):
        policy = SpotPolicy(market=SpotMarket(seed=1))
        # With perfect checkpointing, every charged unit buys progress,
        # so completing on spot can never cost more than on-demand.
        for name in ("c3.large", "m3.xlarge", "r4.2xlarge"):
            assert 0.0 < policy.expected_attempt_cost(name) < 1.0

    def test_expected_cost_rises_as_resume_credit_falls(self):
        market = SpotMarket(seed=1, base_hazard=0.3)
        full = SpotPolicy(market=market, resume_credit=1.0)
        none = SpotPolicy(market=market, resume_credit=0.0)
        for name in ("c3.large", "m3.xlarge"):
            assert none.expected_attempt_cost(name) > full.expected_attempt_cost(name)

    def test_expected_cost_closed_form(self):
        market = SpotMarket(seed=1)
        policy = SpotPolicy(market=market, resume_credit=0.5)
        name = "c3.large"
        h, p, r = market.hazard(name), 1.0 - market.discount(name), 0.5
        expected = p * (1.0 - h / 2.0) / (1.0 - h * (1.0 - r / 2.0))
        assert policy.expected_attempt_cost(name) == pytest.approx(expected)
        assert math.isfinite(expected)

    def test_zero_hazard_expected_cost_is_the_price_ratio(self):
        market = SpotMarket(seed=1, base_hazard=0.0, hazard_slope=0.0)
        policy = SpotPolicy(market=market)
        assert policy.expected_attempt_cost("c3.large") == pytest.approx(
            1.0 - market.discount("c3.large")
        )

    def test_validation(self):
        market = SpotMarket(seed=0)
        with pytest.raises(ValueError, match="fallback_after"):
            SpotPolicy(market=market, fallback_after=0)
        with pytest.raises(ValueError, match="resume_credit"):
            SpotPolicy(market=market, resume_credit=1.5)
        with pytest.raises(ValueError, match="revocation_quarantine"):
            SpotPolicy(market=market, revocation_quarantine=0)
