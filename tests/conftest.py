"""Fixtures shared by the test modules."""

import pytest

from repro.machine import blocks


@pytest.fixture
def fresh_factory_cache(monkeypatch):
    """An empty :class:`~repro.machine.blocks.FactoryCache` for one test.

    Machines booted from one program image adopt the blocks and traces
    earlier machines of that image compiled, and the table that holds
    them lives in the process-wide factory cache.  An engine counter
    (``compiled``, ``traces_compiled``, ``trace_bailouts``, ...) would
    then depend on which tests ran earlier in the same process; a test
    that asserts one starts from this fixture.
    """
    cache = blocks.FactoryCache()
    monkeypatch.setattr(blocks, "_FACTORY_CACHE", cache)
    return cache
