"""Nothing the package builds waits for the cycle collector: with the
collector off, a finished bidegree space, Arnold degree or suite run is
freed by reference counting when its last reference goes, and a full
collection afterwards finds no garbage."""

import gc

import pytest

from conftorus import oracle, series, specseq

WORK = {
    "e3_dims-4-verified": lambda: specseq.verify_against_series(4, specseq.e3_dims(4)),
    "invariants-n3-2-1": lambda: specseq.SpectralEngine(3).invariants(2, 1),
    "arnold_conf_betti-5": lambda: oracle.arnold_conf_betti(5),
    "run_selftest-4-arnold": lambda: oracle.run_selftest(4, include_arnold=True),
    "property_checks-8": lambda: series.property_checks(8),
}


@pytest.mark.parametrize("work", WORK.values(), ids=list(WORK))
def test_leaves_no_cyclic_garbage(collector_off, work):
    # collected here, not in the fixture: pytest drops the traceback of a
    # failed earlier test just before this body runs
    gc.collect()
    work()
    assert gc.collect() == 0
