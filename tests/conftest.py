"""Fixtures shared by the test modules."""

import gc
import time

import pytest

from conftorus.specseq import SpectralEngine


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


@pytest.fixture(scope="session")
def oracle_reports():
    """The coinvariant engine, the matching engine's oracle, for every
    n <= 7: {n: (report, seconds taken, basis masks)}, the masks being
    those of the coinvariant bases the report eliminated.  Built once, for
    every module that checks the production engine against it; the
    engines themselves are dropped, so their memos do not weigh on the
    collector for the rest of the session."""
    out = {}
    for n in range(8):
        t0 = time.perf_counter()
        eng = SpectralEngine(n)
        rep = eng.report()
        out[n] = (rep, time.perf_counter() - t0, [m for b in eng._bases.values() for m in b])
    return out
