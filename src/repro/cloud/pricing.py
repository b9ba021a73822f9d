"""On-demand pricing and deployment cost.

Prices are 2017-era us-east-1 on-demand rates (USD per hour), matching the
period of the paper's data collection.  The paper's observations depend on
their *structure*, which these rates preserve:

* within a family, price doubles with each size step,
* ``c4.large`` is the cheapest type and the ``2xlarge`` sizes the most
  expensive of each family (Figure 4 relies on both facts),
* memory-optimised capacity costs more per hour than compute-optimised.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.vmtypes import VMType, default_catalog

if TYPE_CHECKING:
    from repro.cloud.catalog import VMArrays

#: USD per hour for the "large" size of each family; doubles with size.
_LARGE_PRICE_USD = {
    "c3": 0.105,
    "c4": 0.100,
    "m3": 0.133,
    "m4": 0.108,
    "r3": 0.166,
    "r4": 0.133,
}


def _default_prices() -> dict[str, float]:
    prices = {}
    for vm in default_catalog():
        size_index = ("large", "xlarge", "2xlarge").index(vm.size)
        prices[vm.name] = round(_LARGE_PRICE_USD[vm.family] * (2**size_index), 4)
    return prices


@dataclass(frozen=True)
class PriceList:
    """Immutable mapping from VM type name to on-demand USD/hour."""

    prices: Mapping[str, float] = field(default_factory=_default_prices)

    def price_per_hour(self, vm: VMType | str) -> float:
        """Return the hourly price of ``vm`` (a :class:`VMType` or name)."""
        name = vm.name if isinstance(vm, VMType) else vm
        try:
            return self.prices[name]
        except KeyError:
            raise KeyError(f"no price for VM type {name!r}") from None

    def price_per_second(self, vm: VMType | str) -> float:
        """Return the per-second price of ``vm``."""
        return self.price_per_hour(vm) / 3600.0

    def cheapest(self) -> str:
        """Return the name of the cheapest VM type."""
        return min(self.prices, key=self.prices.__getitem__)

    def most_expensive(self) -> str:
        """Return the name of the most expensive VM type."""
        return max(self.prices, key=self.prices.__getitem__)


_DEFAULT_PRICE_LIST = PriceList()


def default_price_list() -> PriceList:
    """Return the canonical 2017-era price list used by the paper."""
    return _DEFAULT_PRICE_LIST


def deployment_cost(
    execution_time_s: float | np.ndarray,
    vm: VMType | str | VMArrays,
    prices: PriceList | None = None,
) -> float | np.ndarray:
    """Cost in USD of running a workload for ``execution_time_s`` on ``vm``.

    The paper bills per-second (cost = time x unit price); we follow that
    convention rather than AWS's historical per-hour rounding, since the
    paper's cost figures are continuous.

    ``vm`` is one VM type (or its name), priced from ``prices``, or a
    :class:`~repro.cloud.catalog.VMArrays` with one execution time per
    VM, priced by its own price list; ``prices`` must then be omitted.

    Raises:
        ValueError: if an execution time is negative, or if ``prices`` is
            given with a :class:`~repro.cloud.catalog.VMArrays`.
    """
    times = np.asarray(execution_time_s)
    if np.any(times < 0):
        raise ValueError(f"execution time must be non-negative, got {times.min()}")
    if isinstance(vm, (VMType, str)):
        price_list = prices if prices is not None else _DEFAULT_PRICE_LIST
        return execution_time_s * price_list.price_per_second(vm)
    if prices is not None:
        raise ValueError("a VMArrays is priced by its own price list; omit prices")
    return execution_time_s * vm.price_per_s
