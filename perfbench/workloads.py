"""The benchmark workloads: inputs from a seed, the fixed work, its checks.

Every workload calls only public conftorus callables, always through the
module attribute (``specseq.e3_dims``, never a copied binding), so the
tracer's wrappers see each call.  The seed only permutes the order of
independent units of work; the results, and therefore the checks, are the
same for every seed.  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable

from conftorus import oracle, series, specseq

# Betti numbers of the unordered configuration space of n points on the
# punctured torus, as computed by both engines at the commit that defined
# this benchmark.
EXPECTED_BETTI = {
    0: [1],
    1: [1, 2],
    2: [1, 2, 2],
    3: [1, 2, 4, 4],
    4: [1, 2, 4, 5, 3],
    5: [1, 2, 4, 5, 7, 6],
}

SELFTEST_CHECKS = 13  # results run_selftest returns without the Arnold check
PROPERTY_CHECKS = 6  # results series.property_checks returns


@dataclass
class Checks:
    """Correctness checks of one pass, plus the results they looked at."""

    items: list = field(default_factory=list)  # (name, passed, detail)
    results: dict = field(default_factory=dict)

    def check(self, name, passed, detail=""):
        self.items.append((name, bool(passed), "" if passed else str(detail)))

    @contextlib.contextmanager
    def unit(self, name):
        """Run one unit of work; an exception becomes one failed check."""
        try:
            yield
        except Exception as exc:  # the benchmark reports, it does not crash
            self.check(f"{name} raised", False, repr(exc))

    @property
    def failed(self):
        return [item for item in self.items if not item[1]]


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# -- crosscheck: engine against series for n = 0..5 ---------------------------


def crosscheck_inputs(seed, smoke):
    rng = random.Random(seed)
    ns = _shuffled(rng, range(4 if smoke else 6))
    bidegrees = {
        n: _shuffled(rng, [(p, q) for q in range(comb(n, 2) + 1) for p in range(2 * n + 1)])
        for n in sorted(ns)
    }
    return {
        "ns": ns,
        "bidegrees": bidegrees,
        "expected_betti": {n: EXPECTED_BETTI[n] for n in ns},
    }


def _crosscheck_report(checks, n, report, expected):
    cmp = specseq.verify_against_series(n, report)
    checks.check(
        f"n={n} betti engine == series",
        cmp["engine_betti"] == cmp["series_betti"],
        f"engine {cmp['engine_betti']} series {cmp['series_betti']}",
    )
    hodge_bad = [m for m in cmp["mismatches"] if m["what"] != "betti"]
    checks.check(f"n={n} hodge engine == series", not hodge_bad, hodge_bad)
    pure, violations = specseq.purity_check(report)
    checks.check(f"n={n} purity", pure and report.purity_ok, violations)
    checks.check(f"n={n} betti table", list(report.betti) == expected,
                 f"got {report.betti}, want {expected}")
    checks.results[n] = {
        "betti": list(report.betti),
        "hodge": [[i, a, b, d] for (i, a, b), d in sorted(report.hodge.items())],
    }


def crosscheck(inputs):
    checks = Checks()
    for n in inputs["ns"]:
        with checks.unit(f"n={n}"):
            report = specseq.e3_dims(n)
            _crosscheck_report(checks, n, report, inputs["expected_betti"][n])
    return checks


def crosscheck_traced(inputs):
    """Same work as :func:`crosscheck`, with the bidegrees of each engine
    requested in seed order before the report assembles them."""
    checks = Checks()
    for n in inputs["ns"]:
        with checks.unit(f"n={n}"):
            engine = specseq.SpectralEngine(n)
            for p, q in inputs["bidegrees"][n]:
                engine.invariants(p, q)
            report = engine.report()
            _crosscheck_report(checks, n, report, inputs["expected_betti"][n])
    return checks


# -- verify: the series property checks and the algebra identity suite -------


def verify_inputs(seed, smoke):
    rng = random.Random(seed)
    return {
        "suites": _shuffled(rng, ["property_checks", "selftest"]),
        "t_order": 8 if smoke else 10,
        "n_max": 3 if smoke else 5,
    }


def verify(inputs):
    checks = Checks()
    for suite in inputs["suites"]:
        with checks.unit(suite):
            if suite == "property_checks":
                results, want = series.property_checks(inputs["t_order"]), PROPERTY_CHECKS
            else:
                results = oracle.run_selftest(inputs["n_max"], include_arnold=False)
                want = SELFTEST_CHECKS
            checks.check(f"{suite} ran {want} checks", len(results) == want,
                         f"ran {len(results)}")
            for r in results:
                checks.check(f"{suite}: {r['name']}", r["passed"], r.get("counterexample"))
            checks.results[suite] = [[r["name"], r["passed"]] for r in results]
    return checks


# -- genus0: the genus-zero oracle for n = 2..7 ------------------------------


def genus0_inputs(seed, smoke):
    rng = random.Random(seed)
    ns = _shuffled(rng, range(2, 5 if smoke else 8))
    return {
        "ns": ns,
        "degrees": {n: _shuffled(rng, range(n + 1)) for n in sorted(ns)},
    }


def _genus0_table(checks, n, dims):
    want = [1, 1] + [0] * (n - 2)
    checks.check(f"n={n} genus-zero table", dims == want, f"got {dims}, want {want}")
    checks.results[n] = dims


def genus0(inputs):
    checks = Checks()
    for n in inputs["ns"]:
        with checks.unit(f"n={n}"):
            _genus0_table(checks, n, oracle.arnold_conf_betti(n))
    return checks


def genus0_traced(inputs):
    """Same degrees as :func:`genus0` (0..n, the first dead one being n),
    requested in seed order from one ArnoldAlgebra per n."""
    checks = Checks()
    for n in inputs["ns"]:
        with checks.unit(f"n={n}"):
            alg = oracle.ArnoldAlgebra(n)
            order = inputs["degrees"][n]
            quotient = {q: alg.quotient_dim(q) for q in order}
            live = [q for q in range(n + 1) if quotient[q]]
            checks.check(f"n={n} first dead degree is n", live == list(range(n)),
                         f"live degrees {live}")
            invariant = {q: alg.invariant_dim(q) for q in order if quotient[q]}
            _genus0_table(checks, n, [invariant[q] for q in live])
    return checks


# -- series_deep: expansions and decoders to a high t-order ------------------


def series_deep_inputs(seed, smoke):
    rng = random.Random(seed)
    t_order = 8 if smoke else 56
    return {"t_order": t_order, "decode_order": _shuffled(rng, range(t_order + 1))}


def series_deep(inputs):
    checks = Checks()
    t_order = inputs["t_order"]
    k = {}
    with checks.unit("expansions"):
        # a fixed order: which expansion runs first changes peak memory
        for which, zeta, data, closed_form in (
            ("betti", series.macdonald_zeta, series.PUNCTURED_TORUS_HC, series.conf_gf_betti),
            ("hodge", series.cheah_zeta, series.PUNCTURED_TORUS_HODGE, series.conf_gf_hodge),
        ):
            z = zeta(data, t_order)
            closed = series.expand(closed_form(), t_order)
            k[which] = series.vakil_wood_conf(z, t_order)
            checks.check(f"{which}: vakil-wood == closed form", k[which] == closed)
    if len(k) < 2:
        return checks
    for n in inputs["decode_order"]:
        with checks.unit(f"t^{n}"):
            betti = series.decode_betti(k["betti"][n], n)
            hodge = series.decode_hodge(k["hodge"][n], n)
            chi = sum((-1) ** i * h for i, h in enumerate(betti))
            checks.check(f"t^{n} euler characteristic", chi == (-1) ** n, f"chi = {chi}")
            collapsed = [0] * len(betti)
            for (i, _a, _b), d in hodge.items():
                if i >= len(collapsed):
                    collapsed.extend([0] * (i + 1 - len(collapsed)))
                collapsed[i] += d
            checks.check(f"t^{n} hodge sums to betti", collapsed == betti,
                         f"hodge {collapsed}, betti {betti}")
            checks.results[n] = {
                "betti": betti,
                "hodge": [[i, a, b, d] for (i, a, b), d in sorted(hodge.items())],
            }
    return checks


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # (seed, smoke) -> inputs
    run: Callable  # inputs -> Checks, the timed work
    run_traced: Callable  # inputs -> Checks, the same work under the tracer
    targets: tuple  # tracer keys of every callable the traced pass reaches


_ENGINE = (
    "gcalg.BidegreeSpace.__init__",
    "gcalg.BidegreeSpace.reduce_mask",
    "linalg.kernel_of_columns",
    "linalg.rank_of_rows",
    "specseq.SpectralEngine.invariants",
)
_SERIES = (
    "series.macdonald_zeta",
    "series.cheah_zeta",
    "series.expand",
    "series.vakil_wood_conf",
    "series.decode_betti",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "crosscheck", crosscheck_inputs, crosscheck, crosscheck_traced,
            _ENGINE + _SERIES + (
                "series.decode_hodge",
                "specseq.SpectralEngine.d_rank",
                "specseq.SpectralEngine.report",
                "specseq.verify_against_series",
                "specseq.purity_check",
            ),
        ),
        Workload(
            "verify", verify_inputs, verify, verify,
            _ENGINE + _SERIES + (
                "gcalg.BidegreeSpace.reduce",
                "gcalg.differential",
                "gcalg.sn_act",
                "gcalg.symmetrize",
                "gcalg.multiply",
                "series.property_checks",
                "oracle.run_selftest",
            ),
        ),
        Workload(
            "genus0", genus0_inputs, genus0, genus0_traced,
            (
                "oracle.ArnoldAlgebra.degree",
                "oracle.ArnoldAlgebra.invariant_dim",
                "linalg.rank_of_rows",
            ),
        ),
        Workload(
            "series_deep", series_deep_inputs, series_deep, series_deep,
            _SERIES + ("series.decode_hodge",),
        ),
    )
}
