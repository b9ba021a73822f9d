"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cloud.vmtypes import default_catalog
from repro.trace.generate import canonical_trace, default_trace, generate_trace
from repro.workloads.registry import default_registry


@pytest.fixture(scope="session")
def catalog():
    """The canonical 18-VM catalog."""
    return default_catalog()


@pytest.fixture(scope="session")
def registry():
    """The canonical 107-workload registry."""
    return default_registry()


@pytest.fixture(scope="session")
def trace():
    """The canonical benchmark trace (seed 2018), built once per session."""
    return default_trace()


@pytest.fixture(scope="session")
def large_trace():
    """The canonical trace over the 210-type ``aws-large`` catalog."""
    return canonical_trace("aws-large")


@pytest.fixture(scope="session")
def clean_trace():
    """A noise-free trace, for tests that assert exact model behaviour."""
    return generate_trace(seed=7, time_sigma=0.0, metric_sigma=0.0)
