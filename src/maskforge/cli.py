"""Command-line front end.

Subcommands: analyze | decompose | converge | smooth | refine.  Reports come
in two blocks: human-readable lines and a machine JSON block (only the machine
block is stable for tooling; --format json emits just that block).  refine
prints its rows as text; with --format json it writes them only to --out and
prints {"rounds", "rows", "mass", "out"}, mass the exact sum of the refined
data, and without --out it exits 2.

Exit codes: 0 success, 2 parse error, 3 invalid digit set, 4 class
precondition failed (or verification failure), 5 shape error, 6 internal
error (a bug guard fired: an exact identity failed or the two sum-rule
checkers disagreed), 7 size budget exceeded (refine stopped before a round
that would form too many products, a mask or decomposition file names
cyclotomic orders whose lcm is over the parser's limit of 840,
MASKFORGE_PRECISION_BITS is over 8,192, or a value to print has more
decimal digits than the interpreter prints in one integer).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .decompose import MaskDecomposition, decompose_levels, decompose_to_class
from .errors import (BudgetExceeded, InternalIdentityViolation,
                     MaskforgeError, MethodDisagreement, NotInClass,
                     ShapeMismatch, UserDigitsInvalid)
from .maskfile import (ParseError, format_ratio, format_rational,
                       load_mask_file, output_file, read_sequence_csv,
                       refined_rows, write_refined_csv)
from .subdivision import Sequence, check_c1, check_convergence, refine
from .sumrules import DEFAULT_ORDER_CAP, sum_rule_order

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIGITS = 3
EXIT_CLASS = 4
EXIT_SHAPE = 5
EXIT_INTERNAL = 6
EXIT_BUDGET = 7

# MASKFORGE_PRECISION_BITS is read as at least 32 and refused above this: the
# enclosures slow with it, and millions of bits run for minutes
PRECISION_BITS_LIMIT = 8192


def _precision_bits() -> int:
    raw = os.environ.get("MASKFORGE_PRECISION_BITS", "128")
    try:
        bits = int(raw)
    except ValueError:
        raise ParseError(
            f"MASKFORGE_PRECISION_BITS must be an integer, got {raw!r}") from None
    if bits > PRECISION_BITS_LIMIT:
        raise BudgetExceeded(
            f"MASKFORGE_PRECISION_BITS {bits} > limit {PRECISION_BITS_LIMIT}")
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
    tau_values = [tau.value_at_zero() for tau in mask.polyphase_split(ctx)]
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
        dec = MaskDecomposition.from_json(doc, mask, ctx)
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

    if args.levels is not None:
        # the report prints order - levels, so the scan reaches past the levels
        order = sum_rule_order(mask, ctx, cap=max(args.levels, DEFAULT_ORDER_CAP))
        if args.levels > order + 1:
            print(f"error: {args.levels} levels need sum-rule order >= "
                  f"{args.levels - 1}, mask has {order}", file=sys.stderr)
            return EXIT_CLASS
        dec = decompose_levels(mask, ctx, args.levels, order)
    else:
        order = sum_rule_order(mask, ctx, cap=args.order)
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
        with output_file(args.out) as handle:
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


def _certify(args, check, bounds: str, label: str) -> int:
    """converge and smooth: run the check up to --lmax and report its
    verdict, the certificate power with its bound (the report's `bounds` list
    holds one (power, interval) pair per power), and the reasons."""
    _at_least("--lmax", args.lmax, 1)
    bits = _precision_bits()
    mask, ctx = _load_mask(args)
    report = check(mask, ctx, power_cap=args.lmax, precision_bits=bits)
    machine = report.to_json()
    human = [f"verdict: {report.verdict}"]
    if report.certificate_power:
        bound = dict(getattr(report, bounds))[report.certificate_power]
        human.append(f"certificate: power L={report.certificate_power}, "
                     f"{label} <= {format_rational(bound.hi)}")
    human.extend(f"reason: {reason}" for reason in report.reasons)
    _emit(human, machine, args.format)
    return EXIT_OK


def cmd_converge(args) -> int:
    return _certify(args, check_convergence, "norms", "norm")


def cmd_smooth(args) -> int:
    return _certify(args, check_c1, "products", "growth*norm")


def cmd_refine(args) -> int:
    _at_least("--rounds", args.rounds, 0)
    if args.format == "json" and not args.out:
        raise ParseError("refine --format json prints a summary and writes "
                         "the rows only to a file: give --out")
    mask, ctx = _load_mask(args)
    if not mask.is_rational():
        print("error: refine needs a rational-coefficient mask", file=sys.stderr)
        return EXIT_SHAPE
    if args.data:
        seq = read_sequence_csv(args.data, ctx.dim)
        if seq.width != 1:
            print("error: refine acts on scalar sequences", file=sys.stderr)
            return EXIT_SHAPE
    else:
        seq = Sequence.delta(ctx.dim)
    refined = refine(mask, ctx, seq, args.rounds)
    rows = len(refined.data.values)
    if args.format == "json":
        # formatted before the file is written: past the digit limit, exit 7
        # leaves no file
        mass = format_ratio(sum(refined.data.values), refined.data.den)
        write_refined_csv(args.out, refined)
        _emit([], {"rounds": args.rounds, "rows": rows, "mass": mass,
                   "out": args.out}, "json")
    elif args.out:
        write_refined_csv(args.out, refined)
        print(f"wrote {rows} rows to {args.out}")
    else:
        # every block is formatted before the first is printed, so a value
        # past the digit limit exits 7 with nothing on stdout
        sys.stdout.write("".join(["\n".join(lines) + "\n"
                                  for lines in refined_rows(refined)]))
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
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--order", type=int, default=1,
                       help="1: plain decomposition; n>=2: entries lifted to class n-1")
    shape.add_argument("--levels", type=int,
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


_shared_parser = lru_cache(maxsize=None)(build_parser)  # built on first use


# the exit code and message prefix of each error type, the first match taken
ERROR_EXITS = [(UserDigitsInvalid, EXIT_DIGITS, "invalid digit set: "),
               (NotInClass, EXIT_CLASS, ""), (ShapeMismatch, EXIT_SHAPE, ""),
               (BudgetExceeded, EXIT_BUDGET, ""),
               ((InternalIdentityViolation, MethodDisagreement), EXIT_INTERNAL,
                "internal error (bug guard): "),
               (MaskforgeError, EXIT_PARSE, "")]  # ParseError among them


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except MaskforgeError as exc:
        code, prefix = next((code, prefix) for kinds, code, prefix in ERROR_EXITS
                            if isinstance(exc, kinds))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
