"""Batch command-line front end.

Commands: betti, hodge, purity, series, selftest.  Output is deterministic
(sorted keys, ascending n); exit code is 0 exactly when every requested
check passes.  Reports stream per n so long ranges yield partial output
early.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from . import oracle, series
from .specseq import e3_dims, verify_against_series

N_CAP = 5


def _parse_n(spec_str):
    if ".." in spec_str:
        lo, hi = (int(s) for s in spec_str.split("..", 1))
    else:
        lo = hi = int(spec_str)
    if lo < 0:
        raise ValueError("n must be nonnegative")
    if hi < lo:
        raise ValueError(f"empty range {spec_str}")
    return list(range(lo, hi + 1))


def _check_cap(ns, allow_n6, parser):
    big = [n for n in ns if n > N_CAP]
    if big and not allow_n6:
        parser.error(
            f"n={max(big)} exceeds the default cap of {N_CAP}; "
            "pass --allow-n6 to proceed"
        )
    if big:
        print(
            f"warning: n={max(big)} needs substantial memory and time",
            file=sys.stderr,
        )


def _add_common(p, t_order=False):
    p.add_argument("--n", required=True, help="single value or range A..B")
    p.add_argument(
        "--engine",
        choices=["spectral", "series", "both"],
        default="both",
    )
    p.add_argument(
        "--format", choices=["json", "csv", "table"], default="table"
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--allow-n6", action="store_true")
    p.add_argument("--modular-prescreen", action="store_true")
    if t_order:
        p.add_argument("--t-order", type=int, default=None)


def _series_tables(n_max):
    z = series.macdonald_zeta(series.PUNCTURED_TORUS_HC, n_max)
    k = series.vakil_wood_conf(z, n_max)
    z4 = series.cheah_zeta(series.PUNCTURED_TORUS_HODGE, n_max)
    k4 = series.vakil_wood_conf(z4, n_max)
    return k, k4


def _engine_reports(ns, workers, prescreen):
    """Yield (n, SpectralReport) in ascending n, possibly computed in
    parallel across n."""
    if workers > 1 and len(ns) > 1:
        fn = partial(e3_dims, modular_prescreen=prescreen)
        with ProcessPoolExecutor(max_workers=workers) as ex:
            futures = [(n, ex.submit(fn, n)) for n in ns]
            for n, fut in futures:
                yield n, fut.result()
    else:
        for n in ns:
            yield n, e3_dims(n, modular_prescreen=prescreen)


def cmd_betti(args, parser):
    ns = _parse_n(args.n)
    _check_cap(ns, args.allow_n6, parser)
    failed = False
    k = k4 = None
    if args.engine in ("series", "both"):
        k, _ = _series_tables(max(ns))
    emit_csv_header = args.format == "csv"

    def emit(n, betti, doc):
        nonlocal emit_csv_header
        if args.format == "json":
            print(json.dumps(doc, sort_keys=True))
        elif args.format == "csv":
            if emit_csv_header:
                print("n,i,h_i")
                emit_csv_header = False
            for i, h in enumerate(betti):
                print(f"{n},{i},{h}")
        else:
            print(f"n={n}: h = {','.join(map(str, betti))}"
                  + ("" if doc.get("match") is None
                     else f"  [{'match' if doc['match'] else 'MISMATCH'}]"))

    if args.engine == "series":
        for n in ns:
            betti = series.decode_betti(k[n], n)
            emit(n, betti, {"n": n, "betti": betti})
    else:
        for n, rep in _engine_reports(ns, args.workers, args.modular_prescreen):
            doc = rep.to_json_dict()
            if args.engine == "both":
                sb = series.decode_betti(k[n], n)
                match = sb == list(rep.betti)
                rep.series_match = match
                doc = rep.to_json_dict()
                doc["match"] = match
                if not match:
                    failed = True
            emit(n, rep.betti, doc)
    return 1 if failed else 0


def cmd_hodge(args, parser):
    ns = _parse_n(args.n)
    _check_cap(ns, args.allow_n6, parser)
    failed = False
    k4 = None
    if args.engine in ("series", "both"):
        _, k4 = _series_tables(max(ns))
    emit_csv_header = args.format == "csv"

    def emit(n, table, doc):
        nonlocal emit_csv_header
        if args.format == "json":
            print(json.dumps(doc, sort_keys=True))
        elif args.format == "csv":
            if emit_csv_header:
                print("n,i,a,b,dim")
                emit_csv_header = False
            for (i, a, b), d in sorted(table.items()):
                print(f"{n},{i},{a},{b},{d}")
        else:
            cells = " ".join(
                f"h^{{{a},{b}}}(H^{i})={d}" for (i, a, b), d in sorted(table.items())
            )
            tail = "" if doc.get("match") is None else (
                "  [match]" if doc["match"] else "  [MISMATCH]")
            print(f"n={n}: {cells}{tail}")

    if args.engine == "series":
        for n in ns:
            table = series.decode_hodge(k4[n], n)
            doc = {
                "n": n,
                "hodge": [
                    {"i": i, "a": a, "b": b, "dim": d}
                    for (i, a, b), d in sorted(table.items())
                ],
            }
            emit(n, table, doc)
    else:
        for n, rep in _engine_reports(ns, args.workers, args.modular_prescreen):
            doc = rep.to_json_dict()
            if args.engine == "both":
                st = series.decode_hodge(k4[n], n)
                match = st == rep.hodge
                rep.series_match = match
                doc = rep.to_json_dict()
                doc["match"] = match
                if not match:
                    failed = True
            emit(n, rep.hodge, doc)
    return 1 if failed else 0


def cmd_purity(args, parser):
    ns = _parse_n(args.n)
    _check_cap(ns, args.allow_n6, parser)
    failed = False
    for n, rep in _engine_reports(ns, args.workers, args.modular_prescreen):
        if not rep.purity_ok:
            failed = True
        if args.format == "json":
            print(json.dumps(rep.to_json_dict(), sort_keys=True))
        elif args.format == "csv":
            print(f"{n},{'pure' if rep.purity_ok else 'violated'}")
        else:
            verdict = "pure" if rep.purity_ok else f"VIOLATED at {rep.violations}"
            print(f"n={n}: {verdict}")
    return 1 if failed else 0


_SERIES_CHOICES = {
    "Z": lambda order: series.macdonald_zeta(series.PUNCTURED_TORUS_HC, order),
    "K": lambda order: series.vakil_wood_conf(
        series.macdonald_zeta(series.PUNCTURED_TORUS_HC, order), order
    ),
    "Z4": lambda order: series.cheah_zeta(series.PUNCTURED_TORUS_HODGE, order),
    "K4": lambda order: series.vakil_wood_conf(
        series.cheah_zeta(series.PUNCTURED_TORUS_HODGE, order), order
    ),
}


def cmd_series(args, parser):
    order = args.t_order if args.t_order is not None else 10
    coeffs = _SERIES_CHOICES[args.which](order)
    if args.format == "csv":
        print("n,u,x,y,value")
    for n, poly in enumerate(coeffs):
        if args.format == "json":
            print(json.dumps(series.coefficient_json(poly, n), sort_keys=True))
        elif args.format == "csv":
            doc = series.coefficient_json(poly, n)
            for c in doc["coefficients"]:
                print(f"{n},{c['u']},{c['x']},{c['y']},{c['value']}")
        else:
            print(f"t^{n}: {poly.as_string()}")
    return 0


def cmd_selftest(args, parser):
    ns = _parse_n(args.n)
    _check_cap(ns, args.allow_n6, parser)
    n_max = max(ns)
    results = list(series.property_checks())
    results += oracle.run_selftest(n_max)
    for n in range(0, min(n_max, N_CAP) + 1):
        verdict = verify_against_series(n)
        results.append(
            {
                "name": f"engine_matches_series_n{n}",
                "n_range": str(n),
                "passed": verdict["match"],
                **(
                    {}
                    if verdict["match"]
                    else {"counterexample": json.dumps(verdict["mismatches"])}
                ),
            }
        )
    failed = [r for r in results if not r["passed"]]
    if args.format == "json":
        print(json.dumps({"n_max": n_max, "results": results,
                          "all_passed": not failed}, sort_keys=True))
    elif args.format == "csv":
        print("name,passed")
        for r in results:
            print(f"{r['name']},{int(r['passed'])}")
    else:
        for r in results:
            mark = "PASS" if r["passed"] else "FAIL"
            extra = r.get("counterexample", "")
            print(f"{mark} {r['name']} {extra}".rstrip())
        print(f"{len(results) - len(failed)}/{len(results)} passed")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conftorus",
        description=(
            "Exact cohomology of unordered configuration spaces of a "
            "punctured torus: spectral engine, generating functions, and "
            "cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("betti", "hodge", "purity"):
        p = sub.add_parser(name)
        _add_common(p)
    p = sub.add_parser("series")
    p.add_argument("--which", choices=sorted(_SERIES_CHOICES), default="K")
    p.add_argument("--t-order", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv", "table"],
                   default="table")
    p = sub.add_parser("selftest")
    p.add_argument("--n", required=True)
    p.add_argument("--format", choices=["json", "csv", "table"],
                   default="table")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--allow-n6", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be >= 1")
    try:
        ns = _parse_n(args.n) if hasattr(args, "n") else None
    except ValueError as exc:
        parser.error(str(exc))
    handler = {
        "betti": cmd_betti,
        "hodge": cmd_hodge,
        "purity": cmd_purity,
        "series": cmd_series,
        "selftest": cmd_selftest,
    }[args.command]
    return handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
