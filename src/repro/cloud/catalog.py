"""Named VM catalogs: the paper's 18 types and generated large catalogs.

The paper searches a fixed 18-type 2017 AWS catalog, but the optimisers
and hot paths are written for *any* finite instance space.  This module
makes the instance space pluggable:

* :class:`Catalog` bundles an ordered tuple of :class:`~repro.cloud.vmtypes.VMType`
  with its :class:`~repro.cloud.pricing.PriceList` under a stable name,
* a process-wide registry maps names to lazily built catalogs
  (:func:`get_catalog` / :func:`catalog_names` / :func:`register_catalog`),
* three catalogs ship built in:

  - ``aws-2017`` — the paper's 18 types, bit-identical to
    :func:`~repro.cloud.vmtypes.default_catalog` and
    :func:`~repro.cloud.pricing.default_price_list`;
  - ``aws-large`` — ~200 deterministic generated AWS-style types (five
    archetypes × seven generations × six sizes) for stress-testing the
    candidate axis;
  - ``multicloud`` — ~400 types across three providers (the aws-large
    set plus two Selectel/Timeweb-style providers) with per-provider
    pricing structure.

Generated catalogs are pure arithmetic over the spec tables below — no
randomness — so every process, machine and CI run builds byte-identical
catalogs, which keeps grid keys and cached results stable.
"""

from __future__ import annotations

import difflib
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.cloud.pricing import PriceList, default_price_list
from repro.cloud.vmtypes import (
    SIZE_LADDER,
    VMType,
    default_catalog,
    unknown_vm_message,
)

#: Name of the catalog every default path uses (the paper's).
DEFAULT_CATALOG_NAME = "aws-2017"


class VMArrays:
    """Column-aligned float arrays of the VM attributes the simulator reads.

    The performance model, the low-level metrics and the deployment cost
    evaluate over these arrays, one workload at a time across a whole
    catalog.  A single VM is a one-element instance, so one copy of each
    formula serves both a trace sweep and a single measurement.

    Args:
        vms: the VM types, in column order.
        prices: the price list behind :attr:`price_per_s` (the default
            list when ``None``).  It is read on first use only, so
            price-free callers (the performance model alone) accept types
            the list does not price.
    """

    def __init__(self, vms: Sequence[VMType], prices: PriceList | None = None) -> None:
        self.vms = tuple(vms)
        self.vcpus = np.array([vm.vcpus for vm in self.vms], dtype=float)
        self.ram_gb = np.array([vm.ram_gb for vm in self.vms], dtype=float)
        self.clock_factor = np.array([vm.clock_factor for vm in self.vms], dtype=float)
        self.disk_mbps = np.array([vm.disk_mbps for vm in self.vms], dtype=float)
        self._prices = prices if prices is not None else default_price_list()

    def __len__(self) -> int:
        return len(self.vms)

    @cached_property
    def price_per_s(self) -> np.ndarray:
        """On-demand USD per second of each VM."""
        return np.array([self._prices.price_per_second(vm) for vm in self.vms])


@dataclass(frozen=True)
class Catalog:
    """An ordered, priced, named set of VM types.

    The tuple order is canonical: encoders, traces and grid keys all
    index VMs by their position here, so a catalog name pins the whole
    candidate space byte-for-byte.
    """

    name: str
    vms: tuple[VMType, ...]
    prices: PriceList
    description: str = ""
    _by_name: dict[str, VMType] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.vms:
            raise ValueError(f"catalog {self.name!r} has no VM types")
        by_name = {vm.name: vm for vm in self.vms}
        if len(by_name) != len(self.vms):
            raise ValueError(f"catalog {self.name!r} has duplicate VM names")
        object.__setattr__(self, "_by_name", by_name)

    def __len__(self) -> int:
        return len(self.vms)

    def __iter__(self) -> Iterator[VMType]:
        return iter(self.vms)

    def __getitem__(self, index: int) -> VMType:
        return self.vms[index]

    @property
    def families(self) -> tuple[str, ...]:
        """Distinct families in first-appearance order (the encoding order)."""
        return tuple(dict.fromkeys(vm.family for vm in self.vms))

    @property
    def providers(self) -> tuple[str, ...]:
        """Distinct providers in first-appearance order."""
        return tuple(dict.fromkeys(vm.provider for vm in self.vms))

    def get(self, name: str) -> VMType:
        """Look up a VM type by name.

        Raises:
            KeyError: on unknown names; the message names this catalog
                and suggests the closest known types.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                unknown_vm_message(name, self.name, tuple(self._by_name))
            ) from None

    def price_range(self, provider: str | None = None) -> tuple[float, float]:
        """(min, max) hourly price, optionally restricted to one provider."""
        vms = [vm for vm in self.vms if provider is None or vm.provider == provider]
        if not vms:
            raise ValueError(f"catalog {self.name!r} has no provider {provider!r}")
        hourly = [self.prices.price_per_hour(vm) for vm in vms]
        return min(hourly), max(hourly)


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], Catalog]] = {}
_CACHE: dict[str, Catalog] = {}


def register_catalog(name: str, factory: Callable[[], Catalog]) -> None:
    """Register a lazily built catalog under ``name``.

    Raises:
        ValueError: if ``name`` is already registered.
    """
    if name in _REGISTRY:
        raise ValueError(f"catalog {name!r} is already registered")
    _REGISTRY[name] = factory


def catalog_names() -> tuple[str, ...]:
    """Registered catalog names, in registration order."""
    return tuple(_REGISTRY)


def get_catalog(name: str = DEFAULT_CATALOG_NAME) -> Catalog:
    """Return the catalog registered under ``name`` (built once per process).

    Raises:
        ValueError: on unknown names, suggesting the closest registered one.
    """
    if name not in _REGISTRY:
        close = difflib.get_close_matches(name, _REGISTRY, n=3, cutoff=0.4)
        hint = f"; did you mean {', '.join(close)}?" if close else ""
        raise ValueError(
            f"unknown catalog {name!r}; registered: {', '.join(_REGISTRY)}{hint}"
        )
    if name not in _CACHE:
        catalog = _REGISTRY[name]()
        if catalog.name != name:
            raise ValueError(
                f"catalog factory for {name!r} built a catalog named {catalog.name!r}"
            )
        _CACHE[name] = catalog
    return _CACHE[name]


# -- built-in catalogs ------------------------------------------------------

def _build_aws_2017() -> Catalog:
    return Catalog(
        name=DEFAULT_CATALOG_NAME,
        vms=default_catalog(),
        prices=default_price_list(),
        description="The paper's 18 EC2 types (6 families x 3 sizes, 2017 era).",
    )


#: Archetype spec for generated AWS-style families: letter ->
#: (RAM GiB for the 2-vCPU size, clock factor, USD/hour for that size,
#: always ships local SSD).  Values extend the paper's c/m/r structure
#: with storage- (i) and memory-heavy (x) archetypes.
_AWS_LARGE_ARCHETYPES: dict[str, tuple[float, float, float, bool]] = {
    "c": (3.75, 1.00, 0.100, False),
    "m": (8.0, 0.90, 0.110, False),
    "r": (15.25, 0.88, 0.135, False),
    "i": (15.25, 0.92, 0.155, True),
    "x": (30.5, 0.85, 0.240, False),
}
_AWS_LARGE_GENERATIONS = tuple(range(3, 10))

#: Provider spec for the multicloud catalog: provider ->
#: (family prefix, archetype table, generations, price multiplier per
#: size step).  Families are prefixed so encodings never collide with
#: the AWS family namespace; the per-size price multiplier differs per
#: provider (prices stay strictly monotone in size).
_MULTICLOUD_PROVIDERS: dict[str, tuple[str, dict[str, tuple[float, float, float, bool]], tuple[int, ...], float]] = {
    "selectel": (
        "sel-",
        {
            "c": (4.0, 0.95, 0.082, False),
            "m": (8.0, 0.88, 0.094, False),
            "r": (16.0, 0.85, 0.118, True),
        },
        tuple(range(1, 7)),
        1.9,
    ),
    "timeweb": (
        "tw-",
        {
            "c": (4.0, 0.93, 0.071, False),
            "m": (8.0, 0.86, 0.083, False),
            "r": (16.0, 0.83, 0.104, True),
        },
        tuple(range(1, 7)),
        1.85,
    ),
}


def _generate_family(
    family: str,
    generation: int,
    gen_anchor: int,
    sizes: tuple[str, ...],
    ram_large_gb: float,
    clock_base: float,
    price_large: float,
    always_ssd: bool,
    provider: str,
    size_price_factor: float,
) -> tuple[list[VMType], dict[str, float]]:
    """One generated family: VMs across ``sizes`` plus their prices.

    Attributes are pure arithmetic in the generation offset and size
    index: newer generations clock faster, push more EBS bandwidth and
    cost slightly less per hour; each size step doubles vCPUs and RAM.
    """
    age = generation - gen_anchor
    clock = round(clock_base * (1.0 + 0.05 * age), 4)
    has_ssd = always_ssd or generation == gen_anchor
    vms, prices = [], {}
    for size_index, size in enumerate(sizes):
        vcpus = 2 << size_index
        ebs = round(70.0 * (1.55**size_index) * (1.0 + 0.2 * age), 1)
        ssd = round(130.0 * (1.7**size_index), 1) if has_ssd else 0.0
        vm = VMType(
            name=f"{family}.{size}",
            family=family,
            generation=generation,
            size=size,
            vcpus=vcpus,
            ram_gb=ram_large_gb * (2**size_index),
            clock_factor=clock,
            ebs_mbps=ebs,
            local_ssd=has_ssd,
            local_ssd_mbps=ssd,
            provider=provider,
        )
        vms.append(vm)
        prices[vm.name] = round(
            price_large * (size_price_factor**size_index) * (1.0 - 0.04 * age), 4
        )
    return vms, prices


def _generate_aws_like() -> tuple[list[VMType], dict[str, float]]:
    vms: list[VMType] = []
    prices: dict[str, float] = {}
    for letter, (ram, clock, price, ssd) in _AWS_LARGE_ARCHETYPES.items():
        for generation in _AWS_LARGE_GENERATIONS:
            family_vms, family_prices = _generate_family(
                family=f"{letter}{generation}",
                generation=generation,
                gen_anchor=_AWS_LARGE_GENERATIONS[0],
                sizes=SIZE_LADDER,
                ram_large_gb=ram,
                clock_base=clock,
                price_large=price,
                always_ssd=ssd,
                provider="aws",
                size_price_factor=2.0,
            )
            vms.extend(family_vms)
            prices.update(family_prices)
    return vms, prices


def _build_aws_large() -> Catalog:
    vms, prices = _generate_aws_like()
    return Catalog(
        name="aws-large",
        vms=tuple(vms),
        prices=PriceList(prices=prices),
        description=(
            "Generated AWS-style catalog: 5 archetypes x 7 generations x "
            "6 sizes (210 types), deterministic arithmetic attributes."
        ),
    )


def _build_multicloud() -> Catalog:
    vms, prices = _generate_aws_like()
    for provider, (prefix, archetypes, generations, size_factor) in _MULTICLOUD_PROVIDERS.items():
        for letter, (ram, clock, price, ssd) in archetypes.items():
            for generation in generations:
                family_vms, family_prices = _generate_family(
                    family=f"{prefix}{letter}{generation}",
                    generation=generation,
                    gen_anchor=generations[0],
                    sizes=SIZE_LADDER[:5],
                    ram_large_gb=ram,
                    clock_base=clock,
                    price_large=price,
                    always_ssd=ssd,
                    provider=provider,
                    size_price_factor=size_factor,
                )
                vms.extend(family_vms)
                prices.update(family_prices)
    return Catalog(
        name="multicloud",
        vms=tuple(vms),
        prices=PriceList(prices=prices),
        description=(
            "Three-provider catalog (~400 types): the aws-large set plus "
            "Selectel- and Timeweb-style providers with their own family "
            "namespaces and per-provider pricing."
        ),
    )


register_catalog(DEFAULT_CATALOG_NAME, _build_aws_2017)
register_catalog("aws-large", _build_aws_large)
register_catalog("multicloud", _build_multicloud)
