"""Constructive decompositions of masks against difference factors.

The basic object: for a mask t satisfying order-0 sum rules, a d-by-d array
of masks t_jk with, for every axis k,

    (1 - e^(2*pi*i*(x, e_k))) t(x)
        = sum_j t_jk(x) (1 - e^(2*pi*i*(Mt x, e_j))),     (Mt = transpose)

computed through the polyphase components and a fixed telescoping division
sweep along the axes.  The telescoping runs on the mask's integer numerator
vectors (TrigPoly.vectors: one denominator, one field order F) and only adds
and subtracts.  Each vector carries the order label the CyclotomicNumber fold
would hold its value at (the lcm of the labels summed into it), because that
order is part of the value's printed bytes; the entries are TrigPolys of the
telescoped vectors as they are.  A refinement pass lifts the entries'
sum-rule order step by step, moving corrections weighted by the direct
checker's integer moments between rows, where the identity's sums cancel
them; each decomposition returned is checked once, on the result (_checked).
An iterated form indexes repeated decompositions by tuples of axes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import add, sub

from .errors import InternalIdentityViolation, NotInClass
from .lattice import DilationContext, mat_vec
from .sumrules import (_direct_kernel, digit_interpolant, multi_indices,
                       sum_rule_order, sum_rule_order_direct, unit_derivative_poly)
from .trigpoly import (TrigPoly, _assembled, _coefficient_sum, _merge_vectors,
                       _point_moments, _point_orders, _vanishes, _vanishing_sum)


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
    entries.  It telescopes integer numerators (_telescope), and every
    value is held at the order the TrigPoly fold of the same sums reaches:
    the lcm of the orders summed into it, dropped sums not counted.
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


def _telescope(t: TrigPoly, ctx: DilationContext) -> list:
    """The plain entries rows[j-1][k-1] of a mask in the order-0 class.

    The mask's labelled numerator vectors (one denominator D, field order F)
    are split by coset.  Per plain axis k and coset nu, the shifted
    polyphase of the coset of digit_nu - e_k is subtracted; then for j =
    1..d the difference minus its collapse z_j := 1 is divided by (1 - z_j),
    and the collapse carries on to the next axis.  Each merge labels a sum
    with the lcm of its labels and drops sums that vanish modulo Phi_F, as
    the CyclotomicNumber fold does; the quotients are assembled over D.
    """
    d, field = ctx.dim, t.field
    taus = [{} for _ in range(ctx.m)]
    for freq, slot in t.vectors.items():
        nu, base = ctx.base_point(freq)
        taus[nu][base] = slot
    # per-entry polyphase tables, indexed [j-1][k-1][nu]
    tables = [[[None] * ctx.m for _ in range(d)] for _ in range(d)]
    for k in range(d):
        e_k = _unit(d, k + 1)
        for nu in range(ctx.m):
            # digit_nu - e_k = matrix @ q + digit_n, so the shift is -q
            n_star, q = ctx.base_point(tuple(map(sub, ctx.digits[nu], e_k)))
            remaining = _merge_vectors(field, taus[nu].items(), (
                (tuple(map(sub, base, q)), slot)
                for base, slot in taus[n_star].items()))
            for j in range(d):
                collapsed = _merge_vectors(field, (
                    (freq[:j] + (0,) + freq[j + 1:], slot)
                    for freq, slot in remaining.items()))
                tables[j][k][nu] = _divide_one_minus_z(
                    _merge_vectors(field, remaining.items(), collapsed.items()),
                    j, field)
                remaining = collapsed
            if remaining:
                raise InternalIdentityViolation(
                    "telescoping left a nonzero constant")  # source not order-0
    return [[_assembled(ctx, field, t.den, parts) for parts in row]
            for row in tables]


def _divide_one_minus_z(poly: dict, j: int, field: int) -> dict:
    """The exact quotient by (1 - z_(j+1)) of a {freq: (vec, label)} dict,
    by running sums along each line of frequencies that differ only at
    index j.  A running sum is labelled with the lcm of the labels on its
    line up to its exponent (1 before any).  Sums that vanish are dropped;
    a line whose total does not vanish is a bug."""
    lines: dict = {}
    for freq, slot in poly.items():
        lines.setdefault(freq[:j] + freq[j + 1:], {})[freq[j]] = slot
    out = {}
    for rest, line in lines.items():
        running, label = [0] * field, 1
        hi = max(line)
        for e in range(min(line), hi):
            if e in line:
                vec, order = line[e]
                running = list(map(add, running, vec))
                label = lcm(label, order)
            if not _vanishes(running, field):
                out[rest[:j] + (e,) + rest[j:]] = (running, label)
        if not _vanishes(list(map(add, running, line[hi][0])), field):
            raise InternalIdentityViolation(f"remainder along axis {j + 1}")
    return out


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
    """
    d, (field, den, _, _), zero = ctx.dim, kernel, (0,) * ctx.dim
    total = TrigPoly.zero(d)
    for beta in multi_indices(d, order):
        if beta[j - 1] == 0:
            continue
        if any(beta[i - 1] for i in range(l + 1, j)):
            continue
        weight_sum = TrigPoly.zero(d)
        moments = zip(_point_moments(kernel, beta), _point_orders(kernel, beta))
        for nu, slot in enumerate(moments, 1):
            if not _vanishes(slot[0], field):
                w = TrigPoly._merged(d, field, den * ctx.m ** order, [(zero, slot)])
                weight_sum = weight_sum + digit_interpolant(nu, ctx) * w
        if weight_sum.is_zero():
            continue
        reduced = tuple(b - int(i == j - 1) for i, b in enumerate(beta))
        selector = unit_derivative_poly(order - 1, reduced, d) \
            .compose_dilate(ctx.matrix)
        total = total + (selector * weight_sum).scale(Fraction(-1, beta[j - 1]))
    return total


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
    moves no value at the origin.  It only builds; the caller checks.  In one
    dimension there is nothing to exchange: the single entry inherits the
    full order drop automatically."""
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
                    entries[l - 1][k - 1] = entries[l - 1][k - 1] \
                        - deltas[j - 1] * block
                    entries[j - 1][k - 1] = entries[j - 1][k - 1] \
                        + deltas[l - 1] * block
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
