"""Seeded spot (preemptible) markets over any catalog.

Cloud providers sell spare capacity at a steep discount with one catch:
the instance can be *revoked* mid-run.  This module models that trade
deterministically so every existing catalog gains a spot twin without
new data files:

* :class:`SpotMarket` — a pure function of its seed.  Each VM type gets
  a discount depth (hashed from its name, so adding a VM never shifts
  another's market), a price-volatility stream, and a revocation hazard
  that *rises with the discount*: the cheaper the capacity, the sooner
  the provider wants it back.
* :class:`PriceQuote` — one VM's market terms at one tick: discounted
  hourly price, discount depth, and the per-attempt revocation hazard.
* :class:`SpotPolicy` — how a search consumes the market: the retry
  ladder's fallback threshold (revocations per observation before the
  search pays on-demand price for a guaranteed run), the resume credit
  (fraction of a revoked run's completed work a retry may reuse), and
  the revocation-churn quarantine threshold for the circuit breaker.

Everything is arithmetic over ``numpy`` Philox streams keyed by
``(market seed, crc32(vm name))``: two processes with the same seed
quote the same market, which is what keeps spot searches bit-identical
across worker counts and completion orders.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.cloud.catalog import Catalog
from repro.cloud.pricing import PriceList
from repro.cloud.vmtypes import VMType

#: The two pricing modes a search (or a single attempt) can run under.
PRICING_MODES = ("on-demand", "spot")


@dataclass(frozen=True, slots=True)
class PriceQuote:
    """One VM's spot-market terms at one tick.

    Attributes:
        vm_name: the quoted VM type.
        pricing: ``"spot"`` (quotes for on-demand capacity are the
            degenerate quote: zero discount, zero hazard).
        on_demand_price_per_hour: the catalog's posted hourly price.
        price_per_hour: the discounted (and volatility-perturbed at
            ``tick > 0``) spot price.
        discount: fraction knocked off the on-demand price at tick 0.
        hazard_rate: per-attempt probability the instance is revoked
            mid-run.
    """

    vm_name: str
    pricing: str
    on_demand_price_per_hour: float
    price_per_hour: float
    discount: float
    hazard_rate: float

    @property
    def price_ratio(self) -> float:
        """Spot price as a fraction of on-demand (``1 - discount``)."""
        return 1.0 - self.discount


def _vm_stream(seed: int, vm_name: str, *extra: int) -> np.random.Generator:
    """A Philox stream keyed by the market seed and the VM's name hash."""
    return np.random.default_rng(
        [seed, zlib.crc32(vm_name.encode()) & 0x7FFFFFFF, *extra]
    )


# Sized for every (seed, name) pair a process quotes in practice: the
# largest catalog has 390 types.
@lru_cache(maxsize=1 << 14)
def _tick0_uniform(seed: int, vm_name: str) -> float:
    """The first draw of the VM's stream, behind every discount.

    Memoised at module level (a frozen, slotted :class:`SpotMarket` has
    nowhere to keep it): building the Philox stream costs ~60x the
    lookup, and a spot attempt reads the discount several times.
    """
    return float(_vm_stream(seed, vm_name).random())


@dataclass(frozen=True, slots=True)
class SpotMarket:
    """A seeded, deterministic spot market over VM-type names.

    Attributes:
        seed: root seed; the whole market is a pure function of it.
        min_discount: shallowest discount any VM is quoted.
        max_discount: deepest discount any VM is quoted.
        base_hazard: per-attempt revocation probability at zero discount.
        hazard_slope: extra hazard per unit of discount — deep discounts
            mean capacity the provider reclaims eagerly.
        volatility: half-width of the tick-to-tick price wobble, as a
            fraction of the tick-0 spot price (tick 0 is never wobbled,
            so catalog pricing stays stable).
    """

    seed: int = 0
    min_discount: float = 0.35
    max_discount: float = 0.8
    base_hazard: float = 0.02
    hazard_slope: float = 0.25
    volatility: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_discount <= self.max_discount < 1.0:
            raise ValueError(
                "discounts must satisfy 0 <= min <= max < 1, got "
                f"[{self.min_discount}, {self.max_discount}]"
            )
        if not 0.0 <= self.base_hazard < 1.0:
            raise ValueError(f"base_hazard must be in [0, 1), got {self.base_hazard}")
        if self.hazard_slope < 0.0:
            raise ValueError(f"hazard_slope must be >= 0, got {self.hazard_slope}")
        if not 0.0 <= self.volatility < 1.0:
            raise ValueError(f"volatility must be in [0, 1), got {self.volatility}")

    def discount(self, vm_name: str) -> float:
        """The VM's discount depth — hashed from its name, not its
        catalog position, so catalogs can grow without moving markets."""
        u = _tick0_uniform(self.seed, vm_name)
        return self.min_discount + u * (self.max_discount - self.min_discount)

    def hazard(self, vm_name: str) -> float:
        """Per-attempt revocation probability; rises with the discount."""
        raw = self.base_hazard + self.hazard_slope * self.discount(vm_name)
        return min(raw, 0.95)

    def quote(
        self, vm: VMType | str, on_demand_price_per_hour: float, tick: int = 0
    ) -> PriceQuote:
        """The VM's spot terms at ``tick`` (0 = the stable base quote)."""
        name = vm.name if isinstance(vm, VMType) else vm
        discount = self.discount(name)
        price = on_demand_price_per_hour * (1.0 - discount)
        if tick > 0 and self.volatility > 0.0:
            wobble = float(_vm_stream(self.seed, name, tick).random())
            price *= 1.0 + self.volatility * (2.0 * wobble - 1.0)
        return PriceQuote(
            vm_name=name,
            pricing="spot",
            on_demand_price_per_hour=on_demand_price_per_hour,
            price_per_hour=round(price, 6),
            discount=discount,
            hazard_rate=self.hazard(name),
        )

    def price_list(self, prices: PriceList) -> PriceList:
        """The spot twin of an on-demand price list (tick-0 quotes)."""
        return PriceList(
            prices={
                name: self.quote(name, hourly).price_per_hour
                for name, hourly in prices.prices.items()
            }
        )


def spot_twin(catalog: Catalog, market: SpotMarket) -> Catalog:
    """A catalog priced at ``market``'s tick-0 spot quotes.

    Same name, same VM tuple, same canonical order — encoders, traces
    and grid keys see an identical instance space; only the price list
    changes.  The twin is *not* registered: spot pricing is a view of a
    catalog, not a new catalog.
    """
    return Catalog(
        name=catalog.name,
        vms=catalog.vms,
        prices=market.price_list(catalog.prices),
        description=(
            f"{catalog.description} [spot twin, market seed {market.seed}]"
        ).strip(),
    )


@dataclass(frozen=True, slots=True)
class SpotPolicy:
    """How a search consumes a :class:`SpotMarket`.

    Attributes:
        market: the market quoting discounts and hazards.
        fallback_after: revocations *within one observation's retry
            ladder* before the remaining attempts run on-demand at full
            price (guaranteed, never revoked).
        resume_credit: fraction of a revoked run's newly completed work
            the retry resumes from (1.0 = perfect checkpointing, 0.0 =
            every retry starts from scratch).
        revocation_quarantine: cumulative revocations of one VM before
            the circuit breaker quarantines it for churn (price-aware
            mode); ``None`` disables churn quarantine.
    """

    market: SpotMarket
    fallback_after: int = 2
    resume_credit: float = 1.0
    revocation_quarantine: int | None = 6

    def __post_init__(self) -> None:
        if self.fallback_after < 1:
            raise ValueError(
                f"fallback_after must be >= 1, got {self.fallback_after}"
            )
        if not 0.0 <= self.resume_credit <= 1.0:
            raise ValueError(
                f"resume_credit must be in [0, 1], got {self.resume_credit}"
            )
        if self.revocation_quarantine is not None and self.revocation_quarantine < 1:
            raise ValueError(
                "revocation_quarantine must be >= 1 or None, got "
                f"{self.revocation_quarantine}"
            )

    def expected_attempt_cost(self, vm_name: str) -> float:
        """Expected charge (in on-demand attempt units) to *complete*
        one measurement of ``vm_name`` on spot with resume credit.

        With per-attempt hazard ``h``, price ratio ``p = 1 - discount``
        and resume credit ``r``, a revocation at uniform fraction ``g``
        of the remaining work bills ``p*g`` and resumes from ``r*g``, so
        the expected completion cost solves

            W = (1 - h) * p + h * E_g[p*g + (1 - r*g) * W]

        giving the closed form ``W = p * (1 - h/2) / (1 - h*(1 - r/2))``.
        The optimiser charges this — not the nominal spot price — when
        reserving budget for a pick, so acquisition reflects revocation
        risk, not just the discount.
        """
        h = self.market.hazard(vm_name)
        p = 1.0 - self.market.discount(vm_name)
        return p * (1.0 - h / 2.0) / (1.0 - h * (1.0 - self.resume_credit / 2.0))
