"""Checks that hold after every test, and shared fixtures."""

import os

import pytest

from ckq import frt


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """A test must leave no exited child behind: whoever forks reaps."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    assert pid == 0, f"child process {pid} exited and was never reaped"


@pytest.fixture
def fresh_frt_caches():
    """Empties frt's caches before and after a test that patches what they
    are built from, so that no patched build outlives the test."""
    caches = (frt.exchange_relations, frt.full_relations, frt.quadratic_system,
              frt.reduction_system, frt.coproduct_table)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
