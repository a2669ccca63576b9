"""Fixtures shared by the test modules."""

import gc

import pytest


@pytest.fixture
def collector_off():
    """The cycle collector off for one test, so whatever the test drops is
    freed by reference counting or stays alive until ``gc.collect()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
