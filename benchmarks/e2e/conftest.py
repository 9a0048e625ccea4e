"""Fixtures for the end-to-end benchmark's smoke test."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def assemble_report():
    """Overrides the parent conftest's report rebuild: the smoke test writes
    nothing under ``results/``, so there is no report to refresh."""
    yield
