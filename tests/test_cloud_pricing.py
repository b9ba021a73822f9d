"""Unit tests for pricing and deployment cost."""

import pytest

from repro.cloud.catalog import VMArrays
from repro.cloud.pricing import PriceList, default_price_list, deployment_cost
from repro.cloud.vmtypes import default_catalog, get_vm_type


class TestPriceStructure:
    def test_every_catalog_vm_has_a_price(self, catalog):
        prices = default_price_list()
        for vm in catalog:
            assert prices.price_per_hour(vm) > 0

    def test_price_doubles_with_size_within_family(self, catalog):
        prices = default_price_list()
        for family in ("c3", "c4", "m3", "m4", "r3", "r4"):
            large = prices.price_per_hour(f"{family}.large")
            assert prices.price_per_hour(f"{family}.xlarge") == pytest.approx(
                2 * large, rel=1e-6
            )
            assert prices.price_per_hour(f"{family}.2xlarge") == pytest.approx(
                4 * large, rel=1e-6
            )

    def test_c4_large_is_the_cheapest(self):
        assert default_price_list().cheapest() == "c4.large"

    def test_r3_2xlarge_is_the_most_expensive(self):
        assert default_price_list().most_expensive() == "r3.2xlarge"

    def test_memory_family_costs_more_than_compute(self):
        prices = default_price_list()
        assert prices.price_per_hour("r3.large") > prices.price_per_hour("c3.large")
        assert prices.price_per_hour("r4.large") > prices.price_per_hour("c4.large")

    def test_price_per_second_is_hourly_over_3600(self):
        prices = default_price_list()
        assert prices.price_per_second("c4.large") == pytest.approx(
            prices.price_per_hour("c4.large") / 3600
        )

    def test_accepts_vmtype_and_name(self):
        prices = default_price_list()
        vm = get_vm_type("m4.xlarge")
        assert prices.price_per_hour(vm) == prices.price_per_hour("m4.xlarge")

    def test_unknown_vm_raises(self):
        with pytest.raises(KeyError, match="x1.large"):
            default_price_list().price_per_hour("x1.large")


class TestDeploymentCost:
    def test_cost_is_time_times_unit_price(self):
        prices = default_price_list()
        cost = deployment_cost(7200.0, "c4.large", prices)
        assert cost == pytest.approx(2 * prices.price_per_hour("c4.large"))

    def test_zero_time_costs_nothing(self):
        assert deployment_cost(0.0, "c4.large") == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            deployment_cost(-1.0, "c4.large")

    def test_default_price_list_used_when_omitted(self):
        assert deployment_cost(3600.0, "c4.large") == pytest.approx(
            default_price_list().price_per_hour("c4.large")
        )

    def test_custom_price_list(self):
        custom = PriceList(prices={"c4.large": 1.0})
        assert deployment_cost(1800.0, "c4.large", custom) == pytest.approx(0.5)

    def test_same_time_cheaper_on_cheaper_vm(self):
        assert deployment_cost(100.0, "c4.large") < deployment_cost(100.0, "r3.2xlarge")

    def test_price_list_rejected_with_vm_arrays(self):
        vms = VMArrays([get_vm_type("c4.large")])
        with pytest.raises(ValueError, match="own price list"):
            deployment_cost(vms.vcpus, vms, PriceList(prices={"c4.large": 1.0}))


class TestPriceListContainer:
    def test_default_catalog_covers_exactly_18_prices(self):
        assert len(default_price_list().prices) == len(default_catalog())

    def test_default_price_list_is_cached(self):
        assert default_price_list() is default_price_list()
