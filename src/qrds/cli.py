"""Command-line front end.

Subcommands:

* ``series``  — evaluate a named series exactly, JSON or CSV
* ``hecke``   — evaluate an indefinite theta form, with its block table
* ``ideals``  — weighted ideal-count generating function of a field
* ``verify``  — run theorem / corollary / sigma checks, or everything
* ``bailey``  — check a Bailey pair against its defining relation
* ``report``  — descriptive coefficient-density report

Exit codes: 0 all requested checks passed (or output produced), 1 at least
one check failed, 2 bad usage (unknown id or pair, bad weight, negative
order, ...), 3 an internal fault, 141 (128 + SIGPIPE) the reader closed
stdout before the output was written.  Arguments are checked before any
computation starts, so an exception the engine raises itself, such as
``InvariantViolation``, a ratio chain past its level budget
(``NoStabilization``), a form/pair mismatch in the pipeline table
(``FormPairMismatch``) or a ``ValueError`` from a broken invariant, is never
taken for bad usage: it is reported as ``internal error: ...`` with its
traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from fractions import Fraction

from .bailey import bailey_step, pair_catalog, pair_labels, verify_pair_relation
from .catalog import catalog_ids, eval_named, normalize_id
from .errors import UnknownId, UnknownPair
from .hecke import eval_blocks, hecke_catalog
from .ideals import IdealQuery, ideal_series
from .series import LaurentSeries
from .verify import (
    lacunarity_report,
    verify_all,
    verify_corollary,
    verify_sigma,
    verify_theorem,
)


class UsageError(Exception):
    """A command-line argument outside its domain."""


_USAGE_ERRORS = (UsageError, UnknownId, UnknownPair)


def _emit_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_series(f: LaurentSeries, head: dict, as_csv: bool) -> None:
    if as_csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(("exp", "num", "den"))
        writer.writerows(f.to_csv_rows())
    else:
        _emit_json({**head, **f.to_payload()})


def _cmd_series(args) -> int:
    sid = normalize_id(args.id)
    f = eval_named(sid, args.order)
    _emit_series(f, {"id": sid}, args.csv)
    return 0


def _cmd_hecke(args) -> int:
    sid = normalize_id(args.id)
    block_set = hecke_catalog(sid)
    f = eval_blocks(block_set, args.order)
    if args.csv:
        _emit_series(f, {}, True)
    else:
        _emit_json({"id": sid, **block_set.to_payload(), "series": f.to_payload()})
    return 0


def _parse_weight(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"weight {text!r} has a zero denominator") from None
    except ValueError:
        raise UsageError(f"weight {text!r} is not a rational number") from None


def _check_args(args) -> None:
    """Reject out-of-domain arguments before any computation starts."""
    if getattr(args, "order", 0) < 0:
        raise UsageError("--order must be >= 0")
    if getattr(args, "nmax", 0) < 0:
        raise UsageError("--nmax must be >= 0")
    if args.command == "ideals":
        if args.modulus < 1:
            raise UsageError("--modulus must be >= 1")
        if not 0 <= args.residue < args.modulus:
            raise UsageError("--residue must lie in [0, modulus)")
        _parse_weight(args.weight)
    if args.command == "report" and not args.lacunarity:
        raise UsageError("choose a report kind (--lacunarity)")


def _cmd_ideals(args) -> int:
    weight = _parse_weight(args.weight)
    query = IdealQuery(
        args.d,
        args.residue,
        args.modulus,
        "neg" if args.neg_norm else "all",
    )
    f = ideal_series(query, args.order, weight=weight)
    head = {
        "d": args.d,
        "residue": args.residue,
        "modulus": args.modulus,
        "restriction": query.restriction,
        "weight": str(weight),
    }
    _emit_series(f, head, args.csv)
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        reports = verify_all(args.order)
    elif args.theorem is not None:
        reports = [verify_theorem(args.theorem, args.order)]
    elif args.corollary is not None:
        reports = [verify_corollary(args.corollary, args.order)]
    else:
        reports = [verify_sigma(args.order)]
    if args.json:
        payload = [r.to_payload() for r in reports]
        _emit_json(payload if args.all else payload[0])
    else:
        for r in reports:
            if r.ok:
                print(f"{r.report_id}: pass ({r.elapsed_ms} ms)")
            else:
                e, lhs, rhs = r.first_mismatch
                leg = next(l.name for l in r.legs if not l.ok)
                print(
                    f"{r.report_id}: FAIL at q^{e} ({leg}: {lhs} != {rhs}, "
                    f"{r.elapsed_ms} ms)"
                )
    return 0 if all(r.ok for r in reports) else 1


def _cmd_bailey(args) -> int:
    pair = pair_catalog(args.pair)
    if args.step:
        pair = bailey_step(pair)
    payload = {"pair": pair.label, "rel": pair.rel}
    failures = verify_pair_relation(pair, n_max=args.nmax, order=args.order) if args.check else []
    if args.check:
        payload.update({
            "n_max": args.nmax,
            "order": args.order,
            "status": "pass" if not failures else "fail",
            "failures": [
                {"n": n, "exp": e, "beta": str(b), "sum": str(s)}
                for n, (e, b, s) in failures
            ],
        })
    if args.json:
        _emit_json(payload)
    elif not args.check:
        print(f"{pair.label}: Bailey pair relative to a = {pair.rel}")
    elif not failures:
        print(f"{pair.label}: relation holds for n <= {args.nmax} at order {args.order}")
    else:
        n, (e, b, s) = failures[0]
        print(f"{pair.label}: FAIL at n = {n}, q^{e}: beta = {b}, sum = {s}")
    return 0 if not failures else 1


def _cmd_report(args) -> int:
    _emit_json(lacunarity_report(normalize_id(args.id), args.order))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrds",
        description="Exact q-series identities: double sums, theta forms, ideal counts.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_format(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="JSON output (default)")
        fmt.add_argument("--csv", action="store_true", help="CSV output: exp,num,den")

    p = sub.add_parser("series", help="evaluate a named series exactly")
    p.add_argument("--id", required=True, help=f"one of {', '.join(catalog_ids())}")
    p.add_argument("--order", type=int, required=True, help="highest exponent to compute")
    add_format(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("hecke", help="evaluate an indefinite theta form with its block table")
    p.add_argument("--id", required=True)
    p.add_argument("--order", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("ideals", help="weighted ideal-count generating function")
    p.add_argument("--d", type=int, required=True, choices=(2, 3, 6),
                   help="squarefree part of the field")
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--neg-norm", action="store_true",
                   help="count representatives of negative norm")
    p.add_argument("--weight", default="1", help="rational weight, e.g. 1/2")
    add_format(p)
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("verify", help="run identity checks")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--theorem", type=int, choices=range(1, 13), metavar="1..12")
    which.add_argument("--corollary", type=int, choices=range(1, 5), metavar="1..4")
    which.add_argument("--sigma", action="store_true")
    which.add_argument("--all", action="store_true")
    p.add_argument("--order", type=int, default=400)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bailey", help="inspect or check a Bailey pair")
    p.add_argument("--pair", required=True, help=f"one of {', '.join(pair_labels())}")
    p.add_argument("--check", action="store_true", help="verify the defining relation")
    p.add_argument("--step", action="store_true",
                   help="apply the iteration step (both parameters to infinity) first")
    p.add_argument("--nmax", type=int, default=25)
    p.add_argument("--order", type=int, default=300)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bailey)

    p = sub.add_parser("report", help="descriptive series reports")
    p.add_argument("--lacunarity", action="store_true", help="dyadic nonzero-density profile")
    p.add_argument("--id", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        _check_args(args)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early; keep the interpreter's last flush quiet
        sys.stdout = open(os.devnull, "w")
        return 141  # 128 + SIGPIPE
    except _USAGE_ERRORS as exc:
        # str() of a KeyError subclass is the repr of its message
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
