"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  All comparisons are exact; the stated runtime budgets are
asserted with the wall clock.
"""

import time

import pytest

from conftorus import oracle, series
from conftorus.specseq import e3_dims, purity_check
from conftorus.series import w


class Budget:
    def __init__(self):
        self.t0 = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0


def _line(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{tag} failed: {detail}"


@pytest.fixture(scope="module")
def engine_reports():
    """Engine reports for n = 0..5 with their construction times."""
    reports, times = {}, {}
    for n in range(6):
        clock = Budget()
        reports[n] = e3_dims(n)
        times[n] = clock.elapsed
    return reports, times


def test_criterion_1_series_closed_forms():
    clock = Budget()
    two_var = series.macdonald_zeta(series.PUNCTURED_TORUS_HC, 8) == \
        series.expand(series.sym_gf_betti(), 8)
    four_var = series.cheah_zeta(series.PUNCTURED_TORUS_HODGE, 8) == \
        series.expand(series.sym_gf_hodge(), 8)
    took = clock.elapsed
    _line(
        "1-series-closed-forms",
        two_var and four_var and took < 1.0,
        f"(two_var={two_var}, four_var={four_var}, {took:.3f}s < 1s)",
    )


def test_criterion_2_vakil_wood():
    clock = Budget()
    z = series.macdonald_zeta(series.PUNCTURED_TORUS_HC, 10)
    ok = series.vakil_wood_conf(z, 10) == series.expand(series.conf_gf_betti(), 10)
    took = clock.elapsed
    _line("2-vakil-wood", ok and took < 1.0, f"({took:.3f}s < 1s)")


def test_criterion_3_engine_betti_n_le_3_one_n_at_a_time():
    """Criterion 3's small lists, each n on its own and before the n <= 5
    fixture: a fault that breaks n = 2 fails here at once, even where it
    would make a larger n run on without end."""
    expected = {0: [1], 1: [1, 2], 2: [1, 2, 2], 3: [1, 2, 4, 4]}
    for n, want in expected.items():
        got = list(e3_dims(n).betti)
        _line(f"3-engine-betti-n{n}", got == want, f"({got} == {want})")


def test_criterion_3_engine_series_betti(engine_reports, oracle_reports):
    """The production engine and its oracle, the paper's coinvariant route,
    each against the series and within the same budgets."""
    reports, times = engine_reports
    z = series.macdonald_zeta(series.PUNCTURED_TORUS_HC, 5)
    k = series.vakil_wood_conf(z, 5)
    expected = {1: [1, 2], 2: [1, 2, 2], 3: [1, 2, 4, 4]}
    mismatch, in_budget, notes = [], [], []
    for name, reps, secs in (
        ("engine", reports, times),
        ("oracle", {n: oracle_reports[n][0] for n in range(6)},
         {n: oracle_reports[n][1] for n in range(6)}),
    ):
        for n in range(6):
            if list(reps[n].betti) != series.decode_betti(k[n], n):
                mismatch.append((name, n))
        for n, want in expected.items():
            if list(reps[n].betti) != want:
                mismatch.append((name, n))
        small = sum(secs[n] for n in range(5))
        in_budget.append(small < 10.0 and secs[5] < 600.0)
        notes.append(f"{name} n<=4 in {small:.2f}s < 10s, n=5 in {secs[5]:.2f}s < 600s")
    _line(
        "3-engine-series-betti",
        not mismatch and all(in_budget),
        f"(mismatches={mismatch}, {', '.join(notes)})",
    )


def test_criterion_4_purity(engine_reports):
    reports, _ = engine_reports
    bad = []
    for n in range(6):
        ok, violations = purity_check(reports[n])
        if not ok:
            bad.append((n, violations))
        for (p, q), d in reports[n].e3_inv.items():
            if d and p + 2 * q != w(p + q):
                bad.append((n, "weight", (p, q)))
    _line("4-purity-and-weight", not bad, f"(violations={bad})")


def test_criterion_5_hodge_agreement(engine_reports):
    reports, _ = engine_reports
    z4 = series.cheah_zeta(series.PUNCTURED_TORUS_HODGE, 4)
    k4 = series.vakil_wood_conf(z4, 4)
    bad = []
    for n in range(5):
        if reports[n].hodge != series.decode_hodge(k4[n], n):
            bad.append(n)
    _line("5-hodge-agreement", not bad, f"(mismatches={bad})")


def test_criterion_6_euler_characteristic(engine_reports):
    reports, _ = engine_reports
    bad = []
    for n in range(6):
        chi = sum((-1) ** i * h for i, h in enumerate(reports[n].betti))
        if chi != (-1) ** n:
            bad.append(n)
    k = series.vakil_wood_conf(
        series.macdonald_zeta(series.PUNCTURED_TORUS_HC, 5), 5
    )
    for n in range(6):
        if k[n].substitute_one("u") != series.MultiPoly.monomial((-1) ** n):
            bad.append(("series", n))
    _line("6-euler-characteristic", not bad, f"(failures={bad})")


def test_criterion_7_genus_zero_oracle():
    clock = Budget()
    bad = []
    for n in range(2, 8):
        dims = oracle.arnold_conf_betti(n)
        if dims != [1, 1] + [0] * (len(dims) - 2):
            bad.append((n, dims))
    took = clock.elapsed
    _line(
        "7-genus-zero-oracle",
        not bad and took < 30.0,
        f"(failures={bad}, {took:.2f}s < 30s)",
    )


def test_criterion_8_identity_suite():
    clock = Budget()
    results = series.property_checks()
    results += oracle.run_selftest(5, include_arnold=False)
    failed = [r for r in results if not r["passed"]]
    took = clock.elapsed
    _line(
        "8-identity-suite",
        not failed and took < 900.0,
        f"({len(results)} checks, failures={[r['name'] for r in failed]}, "
        f"{took:.1f}s < 900s)",
    )


def test_criterion_9_engine_series_n6(oracle_reports):
    # beyond the paper's n <= 5: engine and oracle against series at n = 6
    clock = Budget()
    engine = e3_dims(6)
    took = clock.elapsed
    k = series.vakil_wood_conf(series.macdonald_zeta(series.PUNCTURED_TORUS_HC, 6), 6)
    k4 = series.vakil_wood_conf(
        series.cheah_zeta(series.PUNCTURED_TORUS_HODGE, 6), 6
    )
    oracle_report, oracle_took, _ = oracle_reports[6]
    ok, details = True, []
    for name, report, secs in (("engine", engine, took), ("oracle", oracle_report, oracle_took)):
        betti_ok = list(report.betti) == series.decode_betti(k[6], 6)
        hodge_ok = report.hodge == series.decode_hodge(k4[6], 6)
        pure, violations = purity_check(report)
        table_ok = list(report.betti) == [1, 2, 4, 5, 7, 8, 4]
        ok &= betti_ok and hodge_ok and pure and table_ok
        details.append(
            f"{name}: betti={report.betti}, betti_match={betti_ok}, "
            f"hodge_match={hodge_ok}, violations={violations}, {secs:.2f}s"
        )
    _line("9-engine-series-n6", ok, f"({'; '.join(details)})")
