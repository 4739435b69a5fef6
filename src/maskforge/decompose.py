"""Constructive decompositions of masks against difference factors.

The basic object: for a mask t satisfying order-0 sum rules, a d-by-d array
of masks t_jk with, for every axis k,

    (1 - e^(2*pi*i*(x, e_k))) t(x)
        = sum_j t_jk(x) (1 - e^(2*pi*i*(Mt x, e_j))),     (Mt = transpose)

computed through the polyphase components and a fixed telescoping division
sweep along the axes.  The telescoping only adds and subtracts the mask's
integer numerators over its one denominator.  Every lattice point it meets
is one int code on one _Box per decomposition: a shift adds a constant, a
line along axis j is a stride, and points are decoded once, when the
entries are built.  How one value is summed depends on the mask: when every
value is rational it is one int numerator, otherwise a vector at the field
order F tested modulo Phi_F.  Each value carries the order label the
CyclotomicNumber fold would hold it at (the lcm of the labels summed into
it, dropped sums not counted), because that order is part of its printed
bytes.  The running sums of one division by (1 - z_j) number the sum of its
lines' spans, so a division whose spans pass PRODUCT_BUDGET stops before it
starts (BudgetExceeded).  A refinement pass lifts the entries' sum-rule
order step by step, moving corrections weighted by the direct checker's
integer moments between rows, where the identity's sums cancel them; the
corrections and the row exchanges are formed as merges of integer vectors
and signed shifts, folded as the TrigPoly products would be.  Each
decomposition returned is checked once, on the result (_checked).  An
iterated form indexes repeated decompositions by tuples of axes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import lcm, prod
from operator import add, mul, neg, not_, sub
from typing import Callable, NamedTuple

from .errors import (PRODUCT_BUDGET, BudgetExceeded, InternalIdentityViolation,
                     NotInClass)
from .lattice import CONTEXT_CACHE_SIZE, DilationContext, _Box, mat_vec
from .sumrules import (_direct_kernel, digit_interpolant, multi_indices,
                       sum_rule_order, sum_rule_order_direct, unit_derivative_poly)
from .trigpoly import (TrigPoly, _coefficient_sum, _merge_vectors,
                       _point_moments, _point_orders, _rational_numerators,
                       _spread, _vanishes, _vanishing_sum)


class NotInZ0(NotInClass):
    """The mask fails even the order-0 sum rules, so no decomposition exists."""


def _unit(dim: int, axis: int) -> tuple[int, ...]:
    """Unit vector for a 1-based axis."""
    return tuple(int(i == axis - 1) for i in range(dim))


def plain_difference(dim: int, axis: int) -> TrigPoly:
    """1 - e^(2*pi*i*(x, e_axis))."""
    return TrigPoly.one_minus_exp(dim, _unit(dim, axis))


def dilated_difference(ctx: DilationContext, axis: int) -> TrigPoly:
    """1 - e^(2*pi*i*(transpose(matrix) x, e_axis))."""
    return TrigPoly.one_minus_exp(ctx.dim, mat_vec(ctx.matrix, _unit(ctx.dim, axis)))


@dataclass
class MaskDecomposition:
    """Entries indexed by pairs of axis tuples of length `order`: j_tuple
    holds the dilated-factor axes, k_tuple the plain-factor axes, numbered
    from 1.  Order 1 is the plain decomposition, whose entry(j, k) also takes
    bare axes.  achieved_class is the sum-rule order every entry carries (-1
    when none is certified)."""
    source: TrigPoly
    ctx: DilationContext
    order: int
    entries: dict            # (j_tuple, k_tuple) -> TrigPoly
    achieved_class: int

    def entry(self, j, k) -> TrigPoly:
        if isinstance(j, int):
            j, k = (j,), (k,)
        return self.entries[(tuple(j), tuple(k))]

    def axis_tuples(self):
        return list(itertools.product(range(1, self.ctx.dim + 1),
                                      repeat=self.order))

    def identity_holds(self) -> bool:
        """Exact check of the length-n product identity for every axis tuple."""
        d, matrix = self.ctx.dim, self.ctx.matrix
        return all(_vanishing_sum(d, [
            (1, self.source, [_unit(d, k) for k in k_tuple]),
            *((-1, self.entries[(j_tuple, k_tuple)],
               [[row[j - 1] for row in matrix] for j in j_tuple])
              for j_tuple in self.axis_tuples())]) for k_tuple in self.axis_tuples())

    def value_constraint_holds(self) -> bool:
        """Entry values at 0 are products of inverse-matrix entries times t(0),
        the inverse being the adjugate over det; compared as summed numerators."""
        t, adj, det = self.source, self.ctx.adjugate, self.ctx.det
        for (j_t, k_t), entry in self.entries.items():
            field = lcm(t.field, entry.field)
            have = _coefficient_sum(entry, field, t.den * det ** len(j_t))
            want = _coefficient_sum(t, field, entry.den * prod(
                adj[j - 1][k - 1] for j, k in zip(j_t, k_t)))
            if not _vanishes(list(map(sub, have, want)), field):
                return False
        return True

    def entries_reach(self, order: int) -> bool:
        """Does every entry satisfy the order-`order` sum rules?  Decided by the
        direct definition; trivially true for a negative order."""
        return order < 0 or all(
            sum_rule_order_direct(entry, self.ctx, cap=order) >= order
            for entry in self.entries.values())

    def symbol_matrix(self) -> list:
        """d^n-by-d^n array with rows indexed by the plain tuples and columns
        by the dilated tuples (Kronecker-power index order)."""
        tuples = self.axis_tuples()
        return [[self.entries[(j_tuple, k_tuple)] for j_tuple in tuples]
                for k_tuple in tuples]

    def to_json(self) -> dict:
        from .maskfile import mask_terms_json
        return {
            "order": self.order,
            "achieved_class": self.achieved_class,
            "entries": [{"j": list(j_tuple), "k": list(k_tuple),
                         "mask": mask_terms_json(entry)}
                        for (j_tuple, k_tuple), entry in sorted(self.entries.items())],
        }

    @classmethod
    def from_json(cls, doc, source: TrigPoly,
                  ctx: DilationContext) -> "MaskDecomposition":
        """Read back a to_json document as a decomposition of source;
        ParseError when it is malformed.  Nothing is verified here."""
        from .maskfile import ParseError, field_order, mask_terms_from_json, parse_integer
        try:
            order = parse_integer(doc["order"])
            entries = {}
            for item in doc["entries"]:
                j_t = tuple(parse_integer(x) for x in item["j"])
                k_t = tuple(parse_integer(x) for x in item["k"])
                if len(j_t) != order or len(k_t) != order:
                    raise ParseError("entry index length does not match order")
                if not all(1 <= x <= ctx.dim for x in j_t + k_t):
                    raise ParseError(f"entry j={j_t}, k={k_t} names a missing axis")
                if (j_t, k_t) in entries:
                    raise ParseError(f"entry j={j_t}, k={k_t} appears twice")
                entries[(j_t, k_t)] = mask_terms_from_json(item["mask"], ctx.dim)
            achieved = parse_integer(doc.get("achieved_class", -1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad decomposition: {exc!r}") from None
        # d^(2n) is taken only once an entry's tuples bound n by the file size
        if order < 1 or not entries or len(entries) != ctx.dim ** (2 * order):
            raise ParseError(f"need order >= 1 and {ctx.dim}^(2*order) entries, "
                             f"got order {order} and {len(entries)} entries")
        field_order([source.field, *(entry.field for entry in entries.values())])
        return cls(source=source, ctx=ctx, order=order, entries=entries,
                   achieved_class=achieved)


IteratedDecomposition = MaskDecomposition


def decompose_mask(t: TrigPoly, ctx: DilationContext) -> MaskDecomposition:
    """Plain decomposition of a mask in the order-0 sum-rule class (NotInZ0
    otherwise); achieved_class is 0 when every entry happens to be order-0 as
    well, else -1."""
    if sum_rule_order(t, ctx, cap=0) < 0:
        raise NotInZ0("mask is not in the order-0 sum-rule class")
    dec = decompose_to_class(t, ctx, 0)
    if dec.entries_reach(0):
        dec.achieved_class = 0
    return dec


def decompose_to_class(t: TrigPoly, ctx: DilationContext,
                       source_order: int) -> MaskDecomposition:
    """Decompose a mask with order-`source_order` sum rules so the entries
    carry order source_order - 1 (refining when source_order >= 2).

    The caller has certified the source order; the mask is not scanned again.
    The returned decomposition, lifted or not, is guarded once (_checked):
    its identity, its values at the origin and its entries at class
    source_order - 1, which for an order-0 source is -1 and holds trivially.

    The plain decomposition works through the polyphase components: for each
    plain axis k and coset nu, the shifted polyphase matching the coset of
    digit_nu - e_k is subtracted, and the difference is split along the fixed
    axis sweep 1..d by exact division; assembling the pieces gives the
    entries.  It telescopes integer numerators on int codes (_telescope),
    and every value is held at the order the TrigPoly fold of the same sums
    reaches: the lcm of the orders summed into it, dropped sums not counted.
    Deterministic given the context's digit order.
    """
    dec = _plain(t, ctx, _telescope(t, ctx), source_order - 1)
    return _checked(_lift(dec, source_order) if source_order >= 2 else dec)


def _checked(dec: MaskDecomposition) -> MaskDecomposition:
    """dec, once its identity, its values at the origin and its entries'
    class (in that order) hold; InternalIdentityViolation naming the first
    that fails.  The one guard of every decomposition this module builds."""
    if not dec.identity_holds():
        raise InternalIdentityViolation("decomposition identity failed")
    if not dec.value_constraint_holds():
        raise InternalIdentityViolation("origin value constraint failed")
    if not dec.entries_reach(dec.achieved_class):
        raise InternalIdentityViolation(
            f"entry fell outside the order-{dec.achieved_class} class")
    return dec


class _Sums(NamedTuple):
    """How the telescoping sums one value: add, subtract, negate, the zero
    test and the zero of the values' kind."""
    add: Callable
    sub: Callable
    neg: Callable
    vanishes: Callable
    zero: object


# every value rational: one int numerator, zero only when it is 0
_RATIONAL = _Sums(add, sub, neg, not_, 0)


def _vector_sums(field: int) -> _Sums:
    """Values as integer vectors at order `field`, zero when Phi_field
    divides them."""
    return _Sums(lambda a, b: list(map(add, a, b)),
                 lambda a, b: list(map(sub, a, b)),
                 lambda a: [-x for x in a],
                 lambda vec: _vanishes(vec, field), [0] * field)


def _telescope(t: TrigPoly, ctx: DilationContext) -> list:
    """The plain entries rows[j-1][k-1] of a mask in the order-0 class.

    The mask's labelled values (one denominator D, field order F) are split
    by coset.  Per plain axis k and coset nu, the shifted polyphase of the
    coset of digit_nu - e_k is subtracted; then for j = 1..d the difference
    minus its collapse z_j := 1 is divided by (1 - z_j)
    (_divide_one_minus_z), and the collapse carries on to the next axis.
    All d*m of these run at once on one _Box (_telescope_box) whose axis 0
    holds the index k*m + nu and axes 1..d the points, so no line or merge
    mixes two of them.  Each merge labels a sum with the lcm of its labels
    and drops sums that vanish, as the CyclotomicNumber fold does; the
    quotients are assembled over D.  When every value is rational (tested
    value by value: a rational held at order 4 counts), each is summed as
    its one int numerator (_RATIONAL), else as its vector at F.
    """
    d, m, field = ctx.dim, ctx.m, t.field
    numerators = _rational_numerators(t)
    if numerators is None:
        sums, values = _vector_sums(field), list(t.vectors.values())
    else:
        sums = _RATIONAL
        values = [(n, label)
                  for n, (_, label) in zip(numerators, t.vectors.values())]
    split = ctx.base_points(list(t.vectors))
    stars = _star_points(ctx)
    box = _telescope_box(d * m, [base for _, base in split],
                         [q for row in stars for _, q in row])
    taus, strides = [[] for _ in range(m)], box.strides[1:]
    for (nu, base), slot in zip(split, values):
        taus[nu].append((sum(map(mul, base, strides)), slot))
    plus, minus, index = [], [], box.strides[0]
    for k, row in enumerate(stars):
        for nu, (n_star, q) in enumerate(row):
            at = (k * m + nu) * index
            shift = at - sum(map(mul, q, strides))
            plus += [(at + c, slot) for c, slot in taus[nu]]
            minus += [(shift + c, slot) for c, slot in taus[n_star]]
    remaining = _merge_codes(sums, plus, minus)
    rows = []
    for j in range(1, d + 1):
        quotient, remaining = _divide_one_minus_z(remaining, box, j, sums)
        rows.append(_assembled(ctx, box, sums, field, t.den, quotient))
    if remaining:
        raise InternalIdentityViolation(
            "telescoping left a nonzero constant")  # source not order-0
    return rows


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _star_points(ctx: DilationContext) -> tuple:
    """Per plain axis k and coset nu, the base point (n, q) of digit_nu - e_k:
    digit_nu - e_k = matrix @ q + digit_n, so the telescoping shifts the
    polyphase of coset n by -q (cached per context)."""
    return tuple(tuple(ctx.base_point(tuple(map(sub, digit, _unit(ctx.dim, k + 1))))
                       for digit in ctx.digits) for k in range(ctx.dim))


def _telescope_box(indices: int, bases: list, shifts: list) -> _Box:
    """The box of the telescoping: axis 0 holds 0..indices-1, and axes 1..d
    every point the telescoping meets: the base points, each less any
    shift, and the origin's coordinate (a collapse sets a coordinate to 0,
    and a quotient stays between a line's ends)."""
    lo, hi = [0], [indices - 1]
    for axis, qs in enumerate(zip(*shifts)):
        xs = [b[axis] for b in bases] or [0]
        lo.append(min(0, min(xs), min(xs) - max(qs)))
        hi.append(max(0, max(xs), max(xs) - min(qs)))
    return _Box.spanning(lo, hi)


def _merge_codes(sums: _Sums, plus, minus) -> dict:
    """trigpoly._merge_vectors on int codes, for values of either kind:
    {code: (value, label)} of the values of `plus` (each code once) and the
    negated values of `minus`, summed per code in arrival order; a sum is
    labelled with the lcm of its labels and dropped if it vanishes."""
    merged = dict(plus)
    summed = set()
    for code, (x, label) in minus:
        slot = merged.get(code)
        if slot is None:
            merged[code] = (sums.neg(x), label)
        else:
            merged[code] = (sums.sub(slot[0], x), lcm(slot[1], label))
            summed.add(code)
    vanishes = sums.vanishes
    return {c: s for c, s in merged.items()
            if not (c in summed and vanishes(s[0]))}


def _divide_one_minus_z(remaining: dict, box: _Box, j: int,
                        sums: _Sums) -> tuple[dict, dict]:
    """(quotient, collapse) of a {code: (value, label)} dict on box: the
    collapse z_j := 1 of remaining (box axis j), and the exact quotient by
    (1 - z_j) of remaining less its collapse, as the merges of the TrigPoly
    steps would hold them; the quotient as {index: {code: (value, label)}},
    one dict per index of box axis 0.

    A line is the points that differ only at index j, keyed by the code of
    its collapse (a point's code less x_j * stride_j).  Its collapse is the
    sum of its values, labelled with the lcm of their labels and dropped if
    a sum of several vanishes; it is subtracted at x_j = 0, where a
    difference that vanishes is dropped.  The quotient runs sums along the
    line: a running sum is labelled with the lcm of the labels on the line
    up to its exponent (1 before any), and dropped when it vanishes; a line
    whose total does not vanish is a bug.  Within an index, the lines'
    quotients follow the first point of each line that the difference
    keeps, in the order of remaining.  Their running sums number the sum
    of the lines' spans; a line that would take the total past
    PRODUCT_BUDGET is not run (BudgetExceeded)."""
    stride = box.strides[j]
    xs = box.coordinates(remaining, j)
    lines: dict = {}
    for code, x, slot in zip(remaining, xs, remaining.values()):
        line = lines.get(code - x * stride)
        if line is None:
            lines[code - x * stride] = {x: slot}
        else:
            line[x] = slot
    plus, vanishes = sums.add, sums.vanishes
    origin, index = box.origin, box.strides[0]
    collapsed, parts, ends, dropped, span = {}, {}, {}, set(), 0
    for rest, line in lines.items():
        if len(line) == 1:
            (total, label), = line.values()
        else:
            total, label = sums.zero, 1
            for value, held in line.values():
                total, label = plus(total, value), lcm(label, held)
        if len(line) == 1 or not vanishes(total):
            collapsed[rest] = (total, label)
            zero = line.get(0)
            if zero is None:
                line[0] = (sums.neg(total), label)
            else:
                value = sums.sub(zero[0], total)
                if not vanishes(value):
                    line[0] = (value, lcm(zero[1], label))
                else:
                    if len(line) > 1 and next(iter(line)) == 0:
                        dropped.add(rest)
                    del line[0]
        if not line:
            continue
        low, high = ends[rest] = min(line), max(line)
        span += high - low
        if span > PRODUCT_BUDGET:
            raise BudgetExceeded(
                f"the division by (1 - z_{j}) would form at least {span} "
                f"running sums, over the budget of {PRODUCT_BUDGET}")
        quotient = parts.get((rest - origin) // index)
        if quotient is None:
            quotient = parts[(rest - origin) // index] = {}
        running, label, live = sums.zero, 1, False
        for e in range(low, high):
            slot = line.get(e)
            if slot is not None:
                running = plus(running, slot[0])
                label = lcm(label, slot[1])
                live = not vanishes(running)
            if live:
                quotient[rest + e * stride] = (running, label)
        if not vanishes(plus(running, line[high][0])):
            raise InternalIdentityViolation(f"remainder along axis {j}")
    if dropped:
        # a line whose first point was dropped follows its next one
        held, parts = parts, {}
        for code, x in zip(remaining, xs):
            rest = code - x * stride
            if rest not in ends or x == 0 and code in dropped:
                continue
            at = (rest - origin) // index
            part, quotient = held[at], parts.setdefault(at, {})
            for e in range(*ends.pop(rest)):
                if rest + e * stride in part:
                    quotient[rest + e * stride] = part[rest + e * stride]
    return parts, collapsed


def _assembled(ctx: DilationContext, box: _Box, sums: _Sums, field: int,
               den: int, parts: dict) -> list:
    """The entries [entry(j, k) for k] over den of one axis j's quotient,
    {index: {code: (value, label)}} on the telescoping box: polyphase
    component nu of entry k is the part at index k*m + nu, at the
    frequencies matrix @ x + digit_nu of its points x (_decoded_terms)."""
    d, m = ctx.dim, ctx.m
    starts = mat_vec(ctx.matrix, box.lo[1:])
    shifts = [tuple(map(add, starts, digit)) for digit in ctx.digits]
    entries = []
    for k in range(d):
        cosets = [parts.get(k * m + nu, {}) for nu in range(m)]
        codes = [code for part in cosets for code in part]
        slots = [slot for part in cosets for slot in part.values()]
        entries.append(TrigPoly._merged(d, field, den, chain.from_iterable(
            _decoded_terms(ctx, box, sums, field, shifts, codes, slots))))
    return entries


def _decoded_terms(ctx: DilationContext, box: _Box, sums: _Sums, field: int,
                   shifts: list, codes: list, slots: list):
    """Blocks of (frequency, (vector, label)) for the codes and their
    (value, label) slots, in order: a code at index k*m + nu and point x is
    decoded once, to matrix @ (x - lo) + shifts[nu], the sums formed one
    axis at a time from the offsets x - lo (box.digits), a block of codes
    at a time; an int numerator n is placed as the vector n at order
    `field`, one vector per distinct numerator of a block."""
    m, pad = ctx.m, [0] * (field - 1)
    for at in range(0, len(codes), 4096):
        indices, *offsets = box.digits(codes[at:at + 4096])
        axes = []
        for i, row in enumerate(ctx.matrix):
            axis = [shifts[index % m][i] for index in indices]
            for a, xs in zip(row, offsets):
                if a:
                    axis = [y + a * x for y, x in zip(axis, xs)]
            axes.append(axis)
        block = slots[at:at + 4096]
        if sums is _RATIONAL:
            vectors: dict = {}
            yield [(freq, (vectors.get(n) or vectors.setdefault(n, [n, *pad]), label))
                   for freq, (n, label) in zip(zip(*axes), block)]
        else:
            yield list(zip(zip(*axes), block))


def _plain(t: TrigPoly, ctx: DilationContext, rows: list,
           achieved_class: int) -> MaskDecomposition:
    """Order-1 decomposition from a d-by-d array, rows[j-1][k-1] -> entry(j, k)."""
    d = ctx.dim
    return MaskDecomposition(
        source=t, ctx=ctx, order=1,
        entries={((j + 1,), (k + 1,)): rows[j][k]
                 for j in range(d) for k in range(d)},
        achieved_class=achieved_class)


def _correction_block(kernel, ctx: DilationContext, order: int, l: int, j: int) -> TrigPoly:
    """Sum of the explicit corrections moving order-`order` residues of row l
    into row j (axes 1-based, j > l).

    Each correction is  -(1/beta_j) * G(Mt x) * sum_nu H_nu(x) * w(beta, nu)
    where G selects the (beta - e_j)-th normalized derivative through order
    order-1, H_nu = digit_interpolant(nu, ctx) interpolates the dual digits,
    and w is the normalized beta derivative of the dilated row entry at dual
    digit nu, read off its _direct_kernel over D * m^|beta| (D the entry's
    den), skipped if zero.  The 2*pi*i powers of the three factors cancel
    exactly, which keeps everything cyclotomic; the 1/beta_j factor makes the
    moved residue match the derivative it kills (the product rule contributes
    beta_j through the single surviving term).

    Formed in integers at the kernel's field order F over one denominator,
    each product and sum folded as the TrigPoly expression would fold it:
    a product's sum at a frequency is labelled with the lcm of its pairs'
    labels and dropped if it vanishes, and adding a term to a frequency
    whose sum then vanishes drops it, so a later term there starts afresh
    at the end of the order.
    """
    d, m, (field, den, *_) = ctx.dim, ctx.m, kernel
    betas = [beta for beta in multi_indices(d, order)
             if beta[j - 1] and not any(beta[l:j - 1])]
    selectors = [unit_derivative_poly(order - 1, tuple(
        b - int(i == j - 1) for i, b in enumerate(beta)), d) for beta in betas]
    interpolants = [digit_interpolant(nu, ctx) for nu in range(1, m)]
    h_den = lcm(*(h.den for h in interpolants))
    # each H_nu's terms at order F over h_den:
    # (digit, [(position, numerator)], label)
    terms = [[(f, [(p * (field // h.field), x * (h_den // h.den))
                   for p, x in enumerate(vec) if x], label)
              for f, (vec, label) in h.vectors.items()] for h in interpolants]
    scale = lcm(1, *(g.den * beta[j - 1] for g, beta in zip(selectors, betas)))
    total: dict = {}
    for beta, selector in zip(betas, selectors):
        weights: dict = {}
        moments = zip(_point_moments(kernel, beta), _point_orders(kernel, beta))
        for h_terms, (w, w_label) in zip(terms, moments):
            if _vanishes(w, field):
                continue
            w = [(q, y) for q, y in enumerate(w) if y]
            for f, xs, h_label in h_terms:      # H_nu * w: no product vanishes
                vec = [0] * field
                for p, x in xs:
                    for q, y in w:
                        vec[(p + q) % field] += x * y
                _add_into(weights, f, vec, lcm(h_label, w_label), field)
        if not weights:
            continue
        factor = -(scale // (selector.den * beta[j - 1]))
        product: dict = {}                      # G(Mt x) * the weight sum
        for g, (g_vec, g_label) in selector.vectors.items():
            g, n = mat_vec(ctx.matrix, g), g_vec[0] * factor
            for f, (vec, label) in weights.items():
                key = tuple(map(add, g, f))
                slot = product.get(key)
                if slot is None:
                    product[key] = ([n * x for x in vec], lcm(g_label, label))
                else:
                    product[key] = (list(map(add, slot[0], (n * x for x in vec))),
                                    lcm(slot[1], g_label, label))
        for f, (vec, label) in product.items():
            if not _vanishes(vec, field):
                _add_into(total, f, vec, label, field)
    return TrigPoly._merged(d, field, h_den * den * m ** order * scale,
                            total.items())


def _add_into(sums: dict, key, vec: list, label: int, field: int) -> None:
    """Add one labelled vector into {key: (vec, label)} as a TrigPoly sum
    adds it (trigpoly._merge_vectors): the sum is labelled with the lcm of
    its labels, and its key removed if it vanishes."""
    slot = sums.get(key)
    if slot is None:
        sums[key] = (vec, label)
        return
    vec = list(map(add, slot[0], vec))
    if _vanishes(vec, field):
        del sums[key]
    else:
        sums[key] = (vec, lcm(slot[1], label))


def _exchanged(entry: TrigPoly, delta: TrigPoly, block: TrigPoly,
               sign: int) -> TrigPoly:
    """entry + sign * delta * block for a difference delta = 1 - z^v, whose
    terms are integers at order 1: the product is block's vectors shifted by
    delta's frequencies and times sign * delta's integers, merged as the
    TrigPoly product folds them (a vanishing sum dropped), then merged with
    entry at the lcm of the fields over the lcm of the denominators."""
    product = _merge_vectors(block.field, (
        (tuple(map(add, f, g)), ([sign * n * x for x in vec], label))
        for f, ([n], _) in delta.vectors.items()
        for g, (vec, label) in block.vectors.items()))
    field, den = lcm(entry.field, block.field), lcm(entry.den, block.den)

    def placed(vectors: dict, at: int, over: int):
        if (at, over) == (field, den):
            return vectors.items()
        return ((f, (_spread(vec, field, den // over), label))
                for f, (vec, label) in vectors.items())
    return TrigPoly._merged(entry.dim, field, den, chain(
        placed(entry.vectors, entry.field, entry.den),
        placed(product, block.field, block.den)))


def refine_decomposition(t: TrigPoly, dec: MaskDecomposition, ctx: DilationContext,
                         target_order: int) -> MaskDecomposition:
    """Lift a decomposition of a mask with order-N sum rules (N = target_order)
    so every entry satisfies the order-(N-1) sum rules; NotInClass when the
    mask falls short.  Entries of an order-1 mask are already order-0, so
    nothing moves below N = 2."""
    if sum_rule_order(t, ctx, cap=target_order) < target_order:
        raise NotInClass(f"mask does not satisfy the order-{target_order} sum rules")
    return _checked(_lift(dec, target_order)) if target_order >= 2 else dec


def _lift(dec: MaskDecomposition, n_cap: int) -> MaskDecomposition:
    """One pass per order n = 1..N-1 (N = n_cap >= 2); within a pass, rows are
    fixed left to right, each step moving a block B from row l to a later row
    j: row l loses delta_j * B, row j gains delta_l * B (delta_j the dilated
    difference), and the two cancel in sum_j t_jk * delta_j; delta_j(0) = 0
    moves no value at the origin.  An exchange merges signed shifts of B
    (_exchanged), with no TrigPoly product.  It only builds; the caller
    checks.  In one dimension there is nothing to exchange: the single entry
    inherits the full order drop automatically."""
    ctx = dec.ctx
    d = ctx.dim
    entries = [[dec.entry(j, k) for k in range(1, d + 1)] for j in range(1, d + 1)]
    deltas = [dilated_difference(ctx, j) for j in range(1, d + 1)]
    for order in range(1, n_cap):
        for l in range(1, d):
            for k in range(1, d + 1):
                kernel = _direct_kernel(entries[l - 1][k - 1], ctx)
                for j in range(l + 1, d + 1):
                    block = _correction_block(kernel, ctx, order, l, j)
                    if block.is_zero():
                        continue
                    entries[l - 1][k - 1] = _exchanged(
                        entries[l - 1][k - 1], deltas[j - 1], block, -1)
                    entries[j - 1][k - 1] = _exchanged(
                        entries[j - 1][k - 1], deltas[l - 1], block, 1)
    return _plain(dec.source, ctx, entries, n_cap - 1)


# ---------------------------------------------------------------------------
# iterated form
# ---------------------------------------------------------------------------

def decompose_levels(t: TrigPoly, ctx: DilationContext, levels: int,
                     order: int) -> MaskDecomposition:
    """Repeatedly decompose a mask with order-`order` sum rules (certified by
    the caller), indexing entries by axis tuples of length `levels`.

    Entries then satisfy the order order - levels rules when that is
    nonnegative, guarded by the decompositions of the last level.  Recursion
    peels the last tuple position: the level-(i-1) entries, each one order
    lower, are decomposed again.  One level is a single decomposition.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    entries = {((), ()): t}
    for level in range(levels):
        new_entries = {}
        for (j_prefix, k_prefix), poly in entries.items():
            dec = decompose_to_class(poly, ctx, order - level)
            for (j, k), entry in dec.entries.items():
                new_entries[(j_prefix + j, k_prefix + k)] = entry
        entries = new_entries
    if levels == 1:
        return dec
    result = MaskDecomposition(source=t, ctx=ctx, order=levels, entries=entries,
                               achieved_class=order - levels)
    if not result.identity_holds():
        raise InternalIdentityViolation("iterated identity failed")
    if not result.value_constraint_holds():
        raise InternalIdentityViolation("iterated value constraint failed")
    return result
