"""Command-line front end.

Subcommands:

* ``series``  — evaluate a named series exactly, JSON or CSV
* ``hecke``   — evaluate an indefinite theta form, with its block table
* ``ideals``  — weighted ideal-count generating function of a field
* ``verify``  — run theorem / corollary / sigma checks, or everything
* ``bailey``  — check a Bailey pair against its defining relation
* ``report``  — descriptive coefficient-density report

Exit codes: 0 all requested checks passed (or output produced), 1 at least
one check failed, 2 bad usage, 3 an internal fault, 141 (128 + SIGPIPE) the
reader closed stdout before the output was written.  Bad usage is argparse's
alone: each argument's ``type=`` applies the engine's own rule (an order
below 0, a modulus below 1, a weight that is not a rational number, an id or
pair outside its registry), and the one rule that reads two arguments,
residue in [0, modulus), is checked right after parsing; each prints a usage
line and ``error: argument --x: ...`` before any computation starts.  So
every exception the engine raises itself, such as ``InvariantViolation``, a
ratio chain past its level budget (``NoStabilization``), a form/pair
mismatch in the pipeline table (``FormPairMismatch``), a name missing from
one of its own tables (``UnknownId``, ``UnknownPair``) or a ``ValueError``
from a broken invariant, is reported as ``internal error: ...`` with its
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


def _known(find):
    """argparse ``type=`` reading a name with the engine's lookup ``find``:
    its unknown-name error is argparse's error message."""
    def parse(text: str):
        try:
            return find(text)
        except (UnknownId, UnknownPair) as exc:
            raise argparse.ArgumentTypeError(exc.args[0]) from None
    return parse


def _int_at_least(low: int):
    """argparse ``type=`` for an int >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _hecke_id(text: str) -> str:
    """The key of a series id that has a block set."""
    hecke_catalog(text)
    return normalize_id(text)


def _parse_weight(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"weight {text!r} has a zero denominator") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"weight {text!r} is not a rational number") from None


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
    f = eval_named(args.id, args.order)
    _emit_series(f, {"id": args.id}, args.csv)
    return 0


def _cmd_hecke(args) -> int:
    block_set = hecke_catalog(args.id)
    f = eval_blocks(block_set, args.order)
    if args.csv:
        _emit_series(f, {}, True)
    else:
        _emit_json({"id": args.id, **block_set.to_payload(), "series": f.to_payload()})
    return 0


def _cmd_ideals(args) -> int:
    query = IdealQuery(
        args.d,
        args.residue,
        args.modulus,
        "neg" if args.neg_norm else "all",
    )
    f = ideal_series(query, args.order, weight=args.weight)
    head = {
        "d": args.d,
        "residue": args.residue,
        "modulus": args.modulus,
        "restriction": query.restriction,
        "weight": str(args.weight),
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
    pair = bailey_step(args.pair) if args.step else args.pair
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
    _emit_json(lacunarity_report(args.id, args.order))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrds",
        description="Exact q-series identities: double sums, theta forms, ideal counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    nonneg = _int_at_least(0)

    def add_format(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="JSON output (default)")
        fmt.add_argument("--csv", action="store_true", help="CSV output: exp,num,den")

    p = sub.add_parser("series", help="evaluate a named series exactly")
    p.add_argument("--id", type=_known(normalize_id), required=True,
                   help=f"one of {', '.join(catalog_ids())}")
    p.add_argument("--order", type=nonneg, required=True, help="highest exponent to compute")
    add_format(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("hecke", help="evaluate an indefinite theta form with its block table")
    p.add_argument("--id", type=_known(_hecke_id), required=True)
    p.add_argument("--order", type=nonneg, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("ideals", help="weighted ideal-count generating function")
    p.add_argument("--d", type=int, required=True, choices=(2, 3, 6),
                   help="squarefree part of the field")
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--modulus", type=_int_at_least(1), required=True)
    p.add_argument("--order", type=nonneg, required=True)
    p.add_argument("--neg-norm", action="store_true",
                   help="count representatives of negative norm")
    p.add_argument("--weight", type=_parse_weight, default="1", help="rational weight, e.g. 1/2")
    add_format(p)
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("verify", help="run identity checks")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--theorem", type=int, choices=range(1, 13), metavar="1..12")
    which.add_argument("--corollary", type=int, choices=range(1, 5), metavar="1..4")
    which.add_argument("--sigma", action="store_true")
    which.add_argument("--all", action="store_true")
    p.add_argument("--order", type=nonneg, default=400)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bailey", help="inspect or check a Bailey pair")
    p.add_argument("--pair", type=_known(pair_catalog), required=True,
                   help=f"one of {', '.join(pair_labels())}")
    p.add_argument("--check", action="store_true", help="verify the defining relation")
    p.add_argument("--step", action="store_true",
                   help="apply the iteration step (both parameters to infinity) first")
    p.add_argument("--nmax", type=nonneg, default=25)
    p.add_argument("--order", type=nonneg, default=300)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bailey)

    p = sub.add_parser("report", help="descriptive series reports")
    p.add_argument("--lacunarity", action="store_true", required=True,
                   help="dyadic nonzero-density profile")
    p.add_argument("--id", type=_known(normalize_id), required=True)
    p.add_argument("--order", type=nonneg, required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "ideals" and not 0 <= args.residue < args.modulus:
        parser.error(f"argument --residue: must lie in [0, {args.modulus}), got {args.residue}")
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early; keep the interpreter's last flush quiet
        sys.stdout = open(os.devnull, "w")
        return 141  # 128 + SIGPIPE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
