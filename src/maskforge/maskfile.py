"""Mask file parsing and serialization.

Masks travel as JSON with exact values only: rationals are "p" or "p/q"
strings of decimal digits (or JSON integers), cyclotomic values are
{"order": N, "coords": ["p/q", ...]}.  A mask file carries the dilation
matrix, optional digit sets, and exactly one of a coefficient list or a
per-digit polyphase list.  Sequences travel as CSV with integer lattice
columns followed by "p/q" value columns.
"""

from __future__ import annotations

import csv
import json
import re
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .cyclotomic import CyclotomicNumber
from .errors import BudgetExceeded, MaskforgeError
from .lattice import DilationContext
from .subdivision import Refined, Sequence
from .trigpoly import TrigPoly


# the largest cyclotomic field order, or lcm of orders combined, a file may
# name: lcm(1..8).  Reducing a dense value at order N takes about N * phi(N)
# steps (0.5 s at 840, 11 s at 5,040), and each term is placed in N entries
FIELD_ORDER_LIMIT = 840


class ParseError(MaskforgeError):
    pass


def field_order(orders) -> None:
    """BudgetExceeded if the lcm of the orders passes FIELD_ORDER_LIMIT."""
    field = 1
    for order in orders:
        field = lcm(field, order)
        if field > FIELD_ORDER_LIMIT:
            raise BudgetExceeded(f"cyclotomic field order {field} > limit {FIELD_ORDER_LIMIT}")


def format_rational(value) -> str:
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_ratio(p: int, q: int) -> str:
    """format_rational(Fraction(p, q)) straight from the integers: reduced,
    the sign on the numerator, "p" when the denominator is 1."""
    g = gcd(p, q)
    if q < 0:
        g = -g
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(_INTEGER.pattern + r"(/[0-9]+)?")


def parse_rational(value) -> Fraction:
    """A JSON integer or a "p" / "p/q" string; decimal and exponent strings
    are rejected, so no value is expanded from a short exponent."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"rational values must be exact, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.fullmatch(text):
            raise ParseError(f"bad rational {value!r}: expected p or p/q")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {value!r}: {exc}") from None
    raise ParseError(f"cannot parse rational from {value!r}")


def parse_integer(value) -> int:
    """A JSON integer; floats, booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}")
    return value


def parse_scalar(value):
    """A coefficient: rational string/int, or a cyclotomic object."""
    if isinstance(value, dict):
        try:
            coords = value["coords"]
            if not isinstance(coords, list):
                raise ParseError(f"cyclotomic coords must be a list, got {coords!r}")
            return CyclotomicNumber(parse_integer(value["order"]),
                                    [parse_rational(c) for c in coords])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad cyclotomic object {value!r}: {exc}") from None
    return parse_rational(value)


def mask_terms_json(t: TrigPoly) -> dict:
    return {"coefficients": [{"freq": list(freq), "value": t.terms[freq].to_json()}
                             for freq in sorted(t.terms)]}


def mask_terms_from_json(payload: dict, dim: int) -> TrigPoly:
    """The mask of a {"coefficients": [...]} object; ParseError if malformed."""
    if not isinstance(payload, dict):
        raise ParseError(f"mask must be a JSON object, got {payload!r}")
    values = {}
    try:
        for item in payload.get("coefficients", []):
            freq = tuple(parse_integer(x) for x in item["freq"])
            if len(freq) != dim:
                raise ParseError(f"frequency {freq} has wrong dimension")
            if freq in values:
                raise ParseError(f"frequency {freq} appears twice")
            values[freq] = item["value"]
        field_order(parse_integer(v["order"]) for v in values.values()
                    if isinstance(v, dict))
        terms = [(freq, parse_scalar(v)) for freq, v in values.items()]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad coefficient list: {exc!r}") from None
    return TrigPoly._from_pairs(dim, terms)


def load_mask_document(doc: dict) -> tuple[TrigPoly, DilationContext]:
    """Build the mask and its dilation context from a parsed mask file."""
    try:
        dim = parse_integer(doc["dim"])
        dilation = [[parse_integer(x) for x in row] for row in doc["dilation"]]
        digits = doc.get("digits")
        dual_digits = doc.get("dual_digits")
        if digits is not None:
            digits = [tuple(parse_integer(x) for x in d) for d in digits]
        if dual_digits is not None:
            dual_digits = [tuple(parse_integer(x) for x in d) for d in dual_digits]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad mask header: {exc}") from None
    if dim < 1:
        raise ParseError(f"dim must be at least 1, got {dim}")
    if len(dilation) != dim or any(len(r) != dim for r in dilation):
        raise ParseError("dilation matrix shape does not match dim")
    ctx = DilationContext.create(dilation, digits=digits, dual_digits=dual_digits)

    has_coeffs = "coefficients" in doc
    has_polyphase = "polyphase" in doc
    if has_coeffs == has_polyphase:
        raise ParseError("mask file needs exactly one of coefficients/polyphase")
    if has_coeffs:
        mask = mask_terms_from_json(doc, ctx.dim)
        if mask.is_zero():
            raise ParseError("mask has no nonzero coefficients")
        return mask, ctx
    if digits is None:
        raise ParseError("polyphase form requires an explicit digit list")
    parts = [TrigPoly.zero(ctx.dim) for _ in range(ctx.m)]
    seen = set()
    for item in doc["polyphase"]:
        try:
            nu = parse_integer(item["digit"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polyphase item: {exc}") from None
        if not 0 <= nu < ctx.m or nu in seen:
            raise ParseError(f"bad polyphase digit index {nu}")
        seen.add(nu)
        parts[nu] = mask_terms_from_json(item, ctx.dim)
    field_order(part.field for part in parts)
    mask = TrigPoly.polyphase_assemble(parts, ctx)
    if mask.is_zero():
        raise ParseError("mask has no nonzero coefficients")
    return mask, ctx


def load_mask_file(path, digits_override=None) -> tuple[TrigPoly, DilationContext]:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read mask file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("mask file must hold a JSON object")
    if digits_override is not None:
        doc = dict(doc)
        doc.update(digits_override)
    return load_mask_document(doc)


def mask_document(mask: TrigPoly, ctx: DilationContext) -> dict:
    doc = {"dim": ctx.dim, "dilation": [list(r) for r in ctx.matrix],
           "digits": [list(d) for d in ctx.digits],
           "dual_digits": [list(d) for d in ctx.dual_digits]}
    doc.update(mask_terms_json(mask))
    return doc


# ---------------------------------------------------------------------------
# sequence CSV
# ---------------------------------------------------------------------------

def read_sequence_csv(path, dim: int) -> Sequence:
    """Rows: dim integer columns, then the value columns as exact rationals,
    written in ASCII decimal digits."""
    values = {}
    width = None
    try:
        with open(path, newline="") as handle:
            for row in csv.reader(handle):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) <= dim:
                    raise ParseError(f"row {row!r} is too short for dim={dim}")
                cells = [cell.strip() for cell in row[:dim]]
                if not all(map(_INTEGER.fullmatch, cells)):
                    raise ParseError(f"bad lattice point in {row!r}: not integers")
                alpha = tuple(map(int, cells))
                vec = tuple(parse_rational(cell) for cell in row[dim:])
                if width is None:
                    width = len(vec)
                elif len(vec) != width:
                    raise ParseError("rows have inconsistent value widths")
                if alpha in values:
                    raise ParseError(f"lattice point {alpha} appears twice")
                values[alpha] = vec
    except OSError as exc:
        raise ParseError(f"cannot read sequence file {path}: {exc}") from None
    if width is None:
        raise ParseError("sequence file is empty")
    return Sequence(dim, width, values)


@contextmanager
def output_file(path, newline=None):
    """A text file opened for writing; OSError becomes ParseError."""
    try:
        with open(path, "w", newline=newline) as handle:
            yield handle
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def write_sequence_csv(path, seq: Sequence) -> None:
    with output_file(path, newline="") as handle:
        writer = csv.writer(handle)
        for alpha, vec in sorted(seq.support()):
            writer.writerow([*alpha, *(format_rational(v) for v in vec)])


def refined_rows(refined: Refined):
    """The cells of each refined row in lattice order: the grid point
    matrix^-rounds alpha, then the value.  Each grid numerator is the dot
    product of a grid row with alpha, and each distinct one is formatted
    once over grid_den, by a dict that lives for this call only (grid_den
    changes with the rounds)."""
    grid, grid_den, den = refined.grid, refined.grid_den, refined.data.den
    cells = {}
    for alpha, n in refined.data.values.items():
        row = []
        for g in grid:
            x = sum(map(mul, g, alpha))
            row.append(cells.get(x)
                       or cells.setdefault(x, format_ratio(x, grid_den)))
        row.append(format_ratio(n, den))
        yield row


def write_refined_csv(path, refined: Refined) -> None:
    """Rows: rational grid columns, then value columns, in CSV lines ended by
    \r\n (no cell needs quoting)."""
    with output_file(path, newline="") as handle:
        handle.writelines(",".join(cells) + "\r\n"
                          for cells in refined_rows(refined))
