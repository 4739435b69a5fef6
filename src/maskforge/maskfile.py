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
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .cyclotomic import CyclotomicNumber, _reduce_coords
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


def field_order(orders) -> int:
    """The lcm of the orders; BudgetExceeded once it passes FIELD_ORDER_LIMIT."""
    field = 1
    for order in orders:
        field = lcm(field, order)
        if field > FIELD_ORDER_LIMIT:
            raise BudgetExceeded(f"cyclotomic field order {field} > limit {FIELD_ORDER_LIMIT}")
    return field


def format_rational(value) -> str:
    value = value if isinstance(value, Fraction) else Fraction(value)
    return format_ratio(value.numerator, value.denominator)


def format_ratio(p: int, q: int) -> str:
    """format_rational(Fraction(p, q)) straight from the integers: reduced,
    the sign on the numerator, "p" when the denominator is 1; BudgetExceeded
    past the interpreter's limit on the decimal digits of a printed int."""
    g = gcd(p, q)
    if q < 0:
        g = -g
    p, q = p // g, q // g
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # only that limit raises here
        raise BudgetExceeded(f"a value has more than {sys.get_int_max_str_digits()} "
                             "decimal digits, the limit on a printed int") from None


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(_INTEGER.pattern + r"(/0*[1-9][0-9]*)?")  # q > 0


def _ratio(value) -> tuple[int, int]:
    """(p, q), q > 0, of a JSON integer or a "p" / "p/q" string; decimal and
    exponent strings are rejected, so no value is expanded from a short
    exponent."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value.strip()):
        raise ParseError(f"bad rational {value!r}: expected p or p/q, q > 0")
    p, _, q = value.strip().partition("/")
    try:
        p, q = int(p), int(q or 1)
    except ValueError as exc:  # past the int-from-str digit limit
        raise ParseError(f"bad rational {value!r}: {exc}") from None
    return p, q


def parse_rational(value) -> Fraction:
    """A JSON integer or a "p" / "p/q" string, as _ratio reads it."""
    return Fraction(*_ratio(value))


def parse_integer(value) -> int:
    """A JSON integer; floats, booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}")
    return value


def _ratios(value) -> tuple[int, list]:
    """(order, the (p, q) of each coord) of a coefficient: a rational is one
    coord at order 1, a cyclotomic object at most `order` of them."""
    if not isinstance(value, dict):
        return 1, [_ratio(value)]
    try:
        order, coords = parse_integer(value["order"]), value["coords"]
        if not isinstance(coords, list) or order < 1 or len(coords) > order:
            raise ValueError("coords must be a list of at most order >= 1 values")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad cyclotomic object {value!r}: {exc}") from None
    return order, [_ratio(c) for c in coords]


def parse_scalar(value):
    """A coefficient: rational string/int, or a cyclotomic object."""
    order, ratios = _ratios(value)
    if not isinstance(value, dict):
        return Fraction(*ratios[0])
    return CyclotomicNumber(order, [Fraction(*r) for r in ratios])


def mask_terms_json(t: TrigPoly) -> dict:
    return {"coefficients": [{"freq": list(freq), "value": t.terms[freq].to_json()}
                             for freq in sorted(t.terms)]}


def mask_terms_from_json(payload: dict, dim: int) -> TrigPoly:
    """The mask of a {"coefficients": [...]} object; ParseError if malformed.
    Each value's numerators over the file's common denominator are reduced
    in integers at its order (one that vanishes to zeros, which are dropped)."""
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
        parsed = [(freq, *_ratios(v)) for freq, v in values.items()]
        field = field_order(order for _, order, _ in parsed)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad coefficient list: {exc!r}") from None
    den = lcm(1, *(q for _, _, ratios in parsed for _, q in ratios))
    pairs = []
    for freq, order, ratios in parsed:
        coords = _reduce_coords([p * (den // q) for p, q in ratios], order)
        vec, step = [0] * field, field // order
        vec[:step * len(coords):step] = coords
        pairs.append((freq, (vec, order)))
    return TrigPoly._merged(dim, field, den, pairs)


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
    if not isinstance(doc["polyphase"], list):
        raise ParseError("polyphase must be a list of components")
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
    """A text file opened for writing, removed if writing fails; OSError
    becomes ParseError."""
    try:
        with open(path, "w", newline=newline) as handle:
            try:
                yield handle
            except BaseException:
                handle.close()
                os.remove(path)
                raise
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
