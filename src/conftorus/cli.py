"""Batch command-line front end.

Commands: betti, hodge, purity, series, selftest.  Output is deterministic
(sorted keys, ascending n); exit code is 0 exactly when every requested
check passes.  Reports stream per n, so a long range prints its first
results early.  An inconsistent engine page (negative E3), an undecodable
series coefficient or a series exponent past what a packed key holds ends
the run with a message on stderr and exit 1.  An engine/series mismatch in
``betti`` or ``hodge`` prints ``n=N: series MISMATCH <json list of
mismatches>`` on stderr, and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from . import oracle, series
from .specseq import NegativeE3Error, e3_dims, hodge_json, verify_against_series

def _parse_n(spec_str):
    """``--n`` converter: N or A..B as the list of n, ascending."""
    lo, dots, hi = spec_str.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or A..B, got {spec_str!r}"
        ) from None
    if lo < 0:
        raise argparse.ArgumentTypeError("n must be nonnegative")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {spec_str}")
    return list(range(lo, hi + 1))


def _glue_negative_n(argv):
    """``argv`` with ``--n -<digit>...`` glued into ``--n=-<digit>...``, so
    that argparse does not take a spec such as ``-1..3`` for a flag."""
    out = []
    for tok in argv:
        if out and out[-1] == "--n" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--n={tok}"
        else:
            out.append(tok)
    return out


def _parse_t_order(text):
    """``--t-order`` converter: an integer >= 0."""
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if order < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {order}")
    return order


class _Numbers(NamedTuple):
    """How ``betti`` or ``hodge`` decodes and prints its numbers.
    Series functions are named, not held, so they are looked up per run."""

    builder: str  # builder of the K table in :mod:`series`
    decode: str  # decoder of one K coefficient in :mod:`series`
    field: str  # SpectralReport field, and the JSON key of a series-only run
    to_json: Callable
    csv_header: str
    csv_rows: Callable  # value -> CSV rows after the leading "n,"
    cells: Callable  # value -> table cells


_NUMBERS = {
    "betti": _Numbers(
        "conf_series_betti", "decode_betti", "betti", list, "n,i,h_i",
        lambda betti: (f"{i},{h}" for i, h in enumerate(betti)),
        lambda betti: "h = " + ",".join(map(str, betti)),
    ),
    "hodge": _Numbers(
        "conf_series_hodge", "decode_hodge", "hodge", hodge_json, "n,i,a,b,dim",
        lambda hodge: (f"{i},{a},{b},{d}" for (i, a, b), d in sorted(hodge.items())),
        lambda hodge: " ".join(
            f"h^{{{a},{b}}}(H^{i})={d}" for (i, a, b), d in sorted(hodge.items())
        ),
    ),
}


def cmd_numbers(args):
    """``betti`` and ``hodge``: the engine's numbers, the series' numbers, or
    both with the verdict of :func:`verify_against_series`, which covers the
    Betti list and the Hodge table.  Exit 1 on a mismatch or a purity
    violation."""
    spec = _NUMBERS[args.command]
    if args.engine == "series":
        k = getattr(series, spec.builder)(max(args.ns))
        reports = ((n, None) for n in args.ns)
    else:
        reports = ((n, e3_dims(n)) for n in args.ns)
    if args.format == "csv":
        print(spec.csv_header)
    failed = False
    for n, rep in reports:
        if rep is None:
            value = getattr(series, spec.decode)(k[n], n)
            doc = {"n": n, spec.field: spec.to_json(value)}
        else:
            value = getattr(rep, spec.field)
            if args.engine == "both":
                verdict = verify_against_series(n, rep)
                rep.series_match = verdict["match"]
                if not rep.series_match:
                    mismatches = json.dumps(verdict["mismatches"])
                    print(f"n={n}: series MISMATCH {mismatches}", file=sys.stderr)
            doc = rep.to_json_dict()
            if rep.series_match is not None:
                doc["match"] = rep.series_match
            if not rep.purity_ok:
                print(f"n={n}: purity VIOLATED at {rep.violations}", file=sys.stderr)
            failed |= rep.series_match is False or not rep.purity_ok
        if args.format == "json":
            print(json.dumps(doc, sort_keys=True))
        elif args.format == "csv":
            for row in spec.csv_rows(value):
                print(f"{n},{row}")
        else:
            match = doc.get("match")
            tail = "" if match is None else "  [match]" if match else "  [MISMATCH]"
            print(f"n={n}: {spec.cells(value)}{tail}")
    return 1 if failed else 0


def cmd_purity(args):
    failed = False
    for rep in map(e3_dims, args.ns):
        failed |= not rep.purity_ok
        if args.format == "json":
            print(rep.to_json())
        elif args.format == "csv":
            print(f"{rep.n},{'pure' if rep.purity_ok else 'violated'}")
        else:
            verdict = "pure" if rep.purity_ok else f"VIOLATED at {rep.violations}"
            print(f"n={rep.n}: {verdict}")
    return 1 if failed else 0


_SERIES_CHOICES = {
    "Z": lambda order: series.macdonald_zeta(series.PUNCTURED_TORUS_HC, order),
    "K": series.conf_series_betti,
    "Z4": lambda order: series.cheah_zeta(series.PUNCTURED_TORUS_HODGE, order),
    "K4": series.conf_series_hodge,
}


def cmd_series(args):
    coeffs = _SERIES_CHOICES[args.which](args.t_order)
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


def cmd_selftest(args):
    n_max = max(args.ns)
    results = list(series.property_checks())
    results += oracle.run_selftest(n_max)
    for n in range(0, n_max + 1):
        verdict = verify_against_series(n)
        cex = None if verdict["match"] else json.dumps(verdict["mismatches"])
        results.append(series.check_result(f"engine_matches_series_n{n}", str(n), cex))
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
    for name, handler in (
        ("betti", cmd_numbers),
        ("hodge", cmd_numbers),
        ("purity", cmd_purity),
        ("series", cmd_series),
        ("selftest", cmd_selftest),
    ):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        if name == "series":
            p.add_argument("--which", choices=sorted(_SERIES_CHOICES), default="K")
            p.add_argument("--t-order", type=_parse_t_order, default=10)
        else:
            p.add_argument(
                "--n", dest="ns", metavar="N", type=_parse_n, required=True,
                help="single value or range A..B",
            )
        if name in ("betti", "hodge"):
            p.add_argument(
                "--engine", choices=["spectral", "series", "both"], default="both"
            )
        p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_glue_negative_n(sys.argv[1:] if argv is None else argv))
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``).  Point stdout at devnull
        # so the flush at interpreter exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (NegativeE3Error, series.DecodeError, OverflowError) as err:
        # a verdict on the numbers, or a series order past what a packed key
        # holds, not a usage error: report it, exit 1
        print(f"conftorus {args.command}: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
