"""Cloud substrate: the instance spaces the optimisers search over.

This package models the *published* side of the cloud — VM types, their
on-demand prices, and the numeric encoding of the instance space
described in Section V-A of the paper.  The default catalog is the
paper's 18 EC2 types (families c3, c4, m3, m4, r3, r4 in sizes large,
xlarge, 2xlarge); :mod:`repro.cloud.catalog` adds a named registry of
pluggable catalogs (generated large AWS-style and multi-provider sets)
that thread through the encoder, simulator, traces and CLI.
"""

from repro.cloud.vmtypes import (
    SIZE_LADDER,
    VM_FAMILIES,
    VM_SIZES,
    VMType,
    default_catalog,
    get_vm_type,
)
from repro.cloud.pricing import PriceList, default_price_list, deployment_cost
from repro.cloud.encoding import InstanceEncoder
from repro.cloud.catalog import (
    DEFAULT_CATALOG_NAME,
    Catalog,
    VMArrays,
    catalog_names,
    get_catalog,
    register_catalog,
)
from repro.cloud.spot import (
    PRICING_MODES,
    PriceQuote,
    SpotMarket,
    SpotPolicy,
    spot_twin,
)

__all__ = [
    "SIZE_LADDER",
    "VM_FAMILIES",
    "VM_SIZES",
    "VMType",
    "default_catalog",
    "get_vm_type",
    "PriceList",
    "default_price_list",
    "deployment_cost",
    "InstanceEncoder",
    "DEFAULT_CATALOG_NAME",
    "Catalog",
    "VMArrays",
    "catalog_names",
    "get_catalog",
    "register_catalog",
    "PRICING_MODES",
    "PriceQuote",
    "SpotMarket",
    "SpotPolicy",
    "spot_twin",
]
