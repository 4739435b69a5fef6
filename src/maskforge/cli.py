"""Command-line front end.

Subcommands: analyze | decompose | converge | smooth | refine.  Reports come
in two blocks: human-readable lines and a machine JSON block (only the machine
block is stable for tooling; --format json emits just that block).

Exit codes: 0 success, 2 parse error, 3 invalid digit set, 4 class
precondition failed (or verification failure), 5 shape error, 6 internal
error (a bug guard fired: an exact identity failed or the two sum-rule
checkers disagreed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .decompose import MaskDecomposition, decompose_levels, decompose_to_class
from .errors import (InternalIdentityViolation, MaskforgeError,
                     MethodDisagreement, NotInClass, ShapeMismatch,
                     UserDigitsInvalid)
from .maskfile import (ParseError, format_rational, load_mask_file,
                       mask_terms_from_json, read_sequence_csv,
                       write_refined_csv)
from .subdivision import Sequence, check_c1, check_convergence, refine
from .sumrules import DEFAULT_ORDER_CAP, sum_rule_order

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIGITS = 3
EXIT_CLASS = 4
EXIT_SHAPE = 5
EXIT_INTERNAL = 6


def _precision_bits() -> int:
    raw = os.environ.get("MASKFORGE_PRECISION_BITS", "128")
    try:
        bits = int(raw)
    except ValueError:
        raise ParseError(
            f"MASKFORGE_PRECISION_BITS must be an integer, got {raw!r}") from None
    return max(bits, 32)


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ParseError(f"{flag} must be at least {least}, got {value}")


def _emit(human: list, machine: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(machine, indent=2))
        return
    for line in human:
        print(line)
    print("MACHINE " + json.dumps(machine, separators=(",", ":")))


def _load_mask(args):
    digits_override = None
    if getattr(args, "digits", None):
        try:
            with open(args.digits) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read digits file: {exc}") from None
        if isinstance(payload, list):
            digits_override = {"digits": payload}
        elif isinstance(payload, dict):
            digits_override = {k: payload[k] for k in ("digits", "dual_digits")
                               if k in payload}
        else:
            raise ParseError("digits file must hold a list or an object")
    return load_mask_file(args.maskfile, digits_override)


def cmd_analyze(args) -> int:
    _at_least("--cap", args.cap, 0)
    mask, ctx = _load_mask(args)
    order, table = sum_rule_order(mask, ctx, cap=args.cap, with_table=True)
    taus = mask.polyphase_split(ctx)
    zero = (0,) * ctx.dim
    tau_values = [tau.eval_at_rational(zero) for tau in taus]
    machine = {
        "m": ctx.m,
        "digits": [list(d) for d in ctx.digits],
        "dual_digits": [list(d) for d in ctx.dual_digits],
        "mask_value_at_zero": mask.value_at_zero().to_json(),
        "polyphase_values_at_zero": [v.to_json() for v in tau_values],
        "sum_rule_order": order,
        "order_cap": args.cap,
        "derivative_table": table.to_json() if table else None,
    }
    human = [
        f"dilation determinant size m = {ctx.m}",
        f"digits: {machine['digits']}",
        f"dual digits: {machine['dual_digits']}",
        f"mask value at 0: {machine['mask_value_at_zero']}",
        f"polyphase values at 0: {machine['polyphase_values_at_zero']}",
        (f"sum-rule order: {order} (scanned up to {args.cap})" if order >= 0
         else f"sum-rule order: -1 (not in the order-0 class; scanned up to {args.cap})"),
    ]
    _emit(human, machine, args.format)
    return EXIT_OK


def _read_decomposition(doc: dict, mask, ctx) -> MaskDecomposition:
    order = int(doc["order"])
    entries = {}
    for item in doc["entries"]:
        j_t = tuple(int(x) for x in item["j"])
        k_t = tuple(int(x) for x in item["k"])
        if len(j_t) != order or len(k_t) != order:
            raise ParseError("entry index length does not match order")
        entries[(j_t, k_t)] = mask_terms_from_json(item["mask"], ctx.dim)
    expected = ctx.dim ** (2 * order)
    if len(entries) != expected:
        raise ParseError(f"expected {expected} entries, found {len(entries)}")
    return MaskDecomposition(source=mask, ctx=ctx, order=order, entries=entries,
                             achieved_class=int(doc.get("achieved_class", -1)))


def cmd_decompose(args) -> int:
    _at_least("--order", args.order, 1)
    if args.levels is not None:
        _at_least("--levels", args.levels, 1)
    mask, ctx = _load_mask(args)
    if args.verify_only:
        try:
            with open(args.verify_only) as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read decomposition: {exc}") from None
        dec = _read_decomposition(doc, mask, ctx)
        identity = dec.identity_holds()
        values = dec.value_constraint_holds()
        classes = dec.entries_reach(dec.achieved_class)
        machine = {"identity_exact": identity, "value_constraint": values,
                   "class_certified": classes,
                   "achieved_class": dec.achieved_class}
        _emit([f"identity exact: {'yes' if identity else 'NO'}",
               f"value constraint: {'yes' if values else 'NO'}",
               f"entry classes certified: {'yes' if classes else 'NO'}"],
              machine, args.format)
        return EXIT_OK if (identity and values and classes) else EXIT_CLASS

    scan_cap = max(args.order, (args.levels or 1), DEFAULT_ORDER_CAP)
    order = sum_rule_order(mask, ctx, cap=scan_cap)
    if args.levels is not None:
        if args.levels > order + 1:
            print(f"error: {args.levels} levels need sum-rule order >= "
                  f"{args.levels - 1}, mask has {order}", file=sys.stderr)
            return EXIT_CLASS
        dec = decompose_levels(mask, ctx, args.levels, order)
    else:
        need = args.order if args.order >= 2 else 0
        if order < need:
            print(f"error: --order {args.order} needs sum-rule order >= {need}, "
                  f"mask has {order}", file=sys.stderr)
            return EXIT_CLASS
        source = min(order, args.order)
        dec = decompose_to_class(mask, ctx, source)
        if source == 0 and dec.entries_reach(0):
            dec.achieved_class = 0
    achieved = dec.achieved_class
    doc = dec.to_json()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2)
    machine = {"identity_exact": True, "achieved_class": achieved,
               "entry_count": len(doc["entries"]),
               "out": args.out}
    human = [f"identity exact: yes",
             f"achieved class: {achieved}",
             f"entries: {len(doc['entries'])}"
             + (f" (written to {args.out})" if args.out else "")]
    if not args.out and args.format != "json":
        machine["decomposition"] = doc
    _emit(human, machine, args.format)
    return EXIT_OK


def cmd_converge(args) -> int:
    _at_least("--lmax", args.lmax, 1)
    mask, ctx = _load_mask(args)
    report = check_convergence(mask, ctx, power_cap=args.lmax,
                               precision_bits=_precision_bits())
    machine = report.to_json()
    human = [f"verdict: {report.verdict}"]
    if report.certificate_power:
        norm = dict(report.norms)[report.certificate_power]
        human.append(f"certificate: power L={report.certificate_power}, "
                     f"norm <= {format_rational(norm.hi)}")
    for reason in report.reasons:
        human.append(f"reason: {reason}")
    _emit(human, machine, args.format)
    return EXIT_OK


def cmd_smooth(args) -> int:
    _at_least("--lmax", args.lmax, 1)
    mask, ctx = _load_mask(args)
    report = check_c1(mask, ctx, power_cap=args.lmax,
                      precision_bits=_precision_bits())
    machine = report.to_json()
    human = [f"verdict: {report.verdict}"]
    if report.certificate_power:
        product = dict(report.products)[report.certificate_power]
        human.append(f"certificate: power L={report.certificate_power}, "
                     f"growth*norm <= {format_rational(product.hi)}")
    for reason in report.reasons:
        human.append(f"reason: {reason}")
    _emit(human, machine, args.format)
    return EXIT_OK


def cmd_refine(args) -> int:
    _at_least("--rounds", args.rounds, 0)
    mask, ctx = _load_mask(args)
    if not all(c.is_rational() for c in mask.terms.values()):
        print("error: refine needs a rational-coefficient mask", file=sys.stderr)
        return EXIT_SHAPE
    if args.data:
        seq = read_sequence_csv(args.data, ctx.dim)
        if seq.width != 1:
            print("error: refine acts on scalar sequences", file=sys.stderr)
            return EXIT_SHAPE
    else:
        seq = Sequence.delta(ctx.dim)
    _, points = refine(mask, ctx, seq, args.rounds)
    if args.out:
        write_refined_csv(args.out, points)
        print(f"wrote {len(points)} rows to {args.out}")
    else:
        for grid, vec in points:
            print(",".join([*(format_rational(g) for g in grid),
                            *(format_rational(v) for v in vec)]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskforge",
        description="Exact-arithmetic analysis of multivariate subdivision masks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("maskfile", help="mask JSON file")
        p.add_argument("--digits", help="JSON file overriding digit sets")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="sum-rule order and polyphase data")
    common(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP,
                   help="largest sum-rule order to scan for")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="difference-scheme decomposition")
    common(p)
    p.add_argument("--order", type=int, default=1,
                   help="1: plain decomposition; n>=2: entries lifted to class n-1")
    p.add_argument("--levels", type=int,
                   help="iterated decomposition indexed by axis tuples")
    p.add_argument("--out", help="write decomposition JSON here")
    p.add_argument("--verify-only", metavar="DECJSON",
                   help="re-verify an emitted decomposition against the mask")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("converge", help="convergence certificate")
    common(p)
    p.add_argument("--lmax", type=int, default=8)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("smooth", help="C1 certificate")
    common(p)
    p.add_argument("--lmax", type=int, default=8)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("refine", help="iterate the scheme over sample data")
    common(p)
    p.add_argument("--data", help="sequence CSV (defaults to the unit impulse)")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--out", help="refined CSV path")
    p.set_defaults(func=cmd_refine)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UserDigitsInvalid as exc:
        print(f"error: invalid digit set: {exc}", file=sys.stderr)
        return EXIT_DIGITS
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotInClass as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLASS
    except ShapeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (InternalIdentityViolation, MethodDisagreement) as exc:
        print(f"error: internal error (bug guard): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MaskforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
