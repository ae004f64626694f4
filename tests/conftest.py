"""Shared fixtures: a small materialized benchmark suite and configs.

The suite fixture uses a reduced scale (a few thousand instructions per
benchmark) so the whole test run stays fast; the paper-claim integration
tests that need statistical stability request the larger session-scoped
``claims_suite``.  Both are the memoized ``suite(scale)`` the experiment
modules replay, so a test and a module share one memo entry per trace.
"""

from __future__ import annotations

import pytest

from repro.common.config import CacheConfig
from repro.experiments.workloads import suite

SMALL_SCALE = 4_000
CLAIMS_SCALE = 30_000


@pytest.fixture(scope="session")
def small_suite():
    """All six benchmarks at a fast test scale."""
    return suite(SMALL_SCALE)


@pytest.fixture(scope="session")
def claims_suite():
    """Larger traces for the paper-claim shape assertions."""
    return suite(CLAIMS_SCALE)


@pytest.fixture(scope="session")
def small_by_name(small_suite):
    return {trace.name: trace for trace in small_suite}


@pytest.fixture
def l1_config():
    """The baseline 4KB / 16B-line L1 geometry."""
    return CacheConfig(4096, 16)
