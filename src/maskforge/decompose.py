"""Constructive decompositions of masks against difference factors.

The basic object: for a mask t satisfying order-0 sum rules, a d-by-d array
of masks t_jk with, for every axis k,

    (1 - e^(2*pi*i*(x, e_k))) t(x)
        = sum_j t_jk(x) (1 - e^(2*pi*i*(Mt x, e_j))),     (Mt = transpose)

computed through the polyphase components and a fixed telescoping division
sweep along the axes.  A refinement pass lifts the entries' sum-rule order one
step at a time by moving explicitly constructed corrections between rows
without changing the defining sums, and an iterated form indexes repeated
decompositions by tuples of axes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalIdentityViolation, NotInClass
from .lattice import DilationContext, mat_vec
from .sumrules import (multi_indices, sum_rule_order, sum_rule_order_direct,
                       digit_interpolant, unit_derivative_poly)
from .trigpoly import TrigPoly


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
        d = self.ctx.dim
        deltas = {j: dilated_difference(self.ctx, j) for j in range(1, d + 1)}
        for k_tuple in self.axis_tuples():
            lhs = self.source
            for k in k_tuple:
                lhs = lhs * plain_difference(d, k)
            rhs = TrigPoly.zero(d)
            for j_tuple in self.axis_tuples():
                term = self.entries[(j_tuple, k_tuple)]
                for j in j_tuple:
                    term = term * deltas[j]
                rhs = rhs + term
            if lhs != rhs:
                return False
        return True

    def value_constraint_holds(self) -> bool:
        """Entry values at 0 are products of inverse-matrix entries times t(0)."""
        t0 = self.source.value_at_zero()
        for (j_tuple, k_tuple), entry in self.entries.items():
            factor = Fraction(1)
            for j, k in zip(j_tuple, k_tuple):
                factor *= self.ctx.inverse[j - 1][k - 1]
            if entry.value_at_zero() != t0 * factor:
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
    Each result is guarded where it is produced instead: the lift checks the
    entries of an order-n source at class n-1, and the entries of an order-1
    source are checked at class 0.  An order-0 source guarantees no class.

    The plain decomposition works through the polyphase components: for each
    plain axis k and coset nu, the shifted polyphase matching the coset of
    digit_nu - e_k is subtracted, and the difference is split along the fixed
    axis sweep 1..d by exact division; assembling the pieces gives the
    entries.  Deterministic given the context's digit order.
    """
    d = ctx.dim
    taus = t.polyphase_split(ctx)
    # per-entry polyphase tables, indexed [j-1][k-1][nu]
    tables = [[[None] * ctx.m for _ in range(d)] for _ in range(d)]
    for k in range(1, d + 1):
        e_k = _unit(d, k)
        for nu in range(ctx.m):
            # digit_nu - e_k = matrix @ q + digit_n, so the shift is -q
            n_star, q = ctx.base_point(
                tuple(s - e for s, e in zip(ctx.digits[nu], e_k)))
            shift = tuple(-x for x in q)
            diff = taus[nu] - TrigPoly.monomial(d, shift) * taus[n_star]
            remaining = diff
            for j in range(1, d + 1):
                collapsed = remaining.substitute_one(j)
                tables[j - 1][k - 1][nu] = \
                    (remaining - collapsed).divide_one_minus_z(j)
                remaining = collapsed
            if not remaining.is_zero():
                raise InternalIdentityViolation(
                    "telescoping left a nonzero constant")  # source not order-0
    dec = _plain(t, ctx, [[TrigPoly.polyphase_assemble(tables[j][k], ctx)
                           for k in range(d)] for j in range(d)], -1)
    if not dec.identity_holds():
        raise InternalIdentityViolation("decomposition identity failed")
    if not dec.value_constraint_holds():
        raise InternalIdentityViolation("origin value constraint failed")
    if source_order >= 2:
        return _lift(dec, source_order)
    if source_order == 1:
        if not dec.entries_reach(0):
            raise InternalIdentityViolation(
                "entry of an order-1 mask fell outside the order-0 class")
        dec.achieved_class = 0
    return dec


def _plain(t: TrigPoly, ctx: DilationContext, rows: list,
           achieved_class: int) -> MaskDecomposition:
    """Order-1 decomposition from a d-by-d array, rows[j-1][k-1] -> entry(j, k)."""
    d = ctx.dim
    return MaskDecomposition(
        source=t, ctx=ctx, order=1,
        entries={((j + 1,), (k + 1,)): rows[j][k]
                 for j in range(d) for k in range(d)},
        achieved_class=achieved_class)


def _correction_block(a_row: TrigPoly, ctx: DilationContext, order: int,
                      l: int, j: int) -> TrigPoly:
    """Sum of the explicit corrections moving order-`order` residues of row l
    into row j (axes 1-based, j > l).

    Each correction is  -(1/beta_j) * G(Mt x) * sum_nu H_nu(x) * w(beta, nu)
    where G selects the (beta - e_j)-th normalized derivative through order
    order-1, H_nu interpolates the dual digits, and w is the normalized beta
    derivative of the dilated row entry at dual digit nu.  The 2*pi*i powers
    of the three factors cancel exactly, which keeps everything cyclotomic;
    the 1/beta_j factor makes the moved residue match the derivative it kills
    (the product rule contributes beta_j through the single surviving term).
    """
    d = ctx.dim
    total = TrigPoly.zero(d)
    interpolants = [digit_interpolant(nu, ctx) for nu in range(ctx.m)]
    for beta in multi_indices(d, order):
        if beta[j - 1] == 0:
            continue
        if any(beta[i - 1] for i in range(l + 1, j)):
            continue
        weight_sum = TrigPoly.zero(d)
        for nu in range(1, ctx.m):
            w = a_row.normalized_derivative(beta, ctx.dual_digits[nu])
            if not w.is_zero():
                weight_sum = weight_sum + interpolants[nu].scale(w)
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
    return _lift(dec, target_order) if target_order >= 2 else dec


def _lift(dec: MaskDecomposition, n_cap: int) -> MaskDecomposition:
    """One pass per order n = 1..N-1 (N = n_cap >= 2); within a pass, rows are
    fixed left to right, each step exchanging corrections between row l and
    the later rows while preserving the defining sums exactly (checked, as a
    bug guard).  In one dimension there is nothing to exchange: the single
    entry inherits the full order drop automatically."""
    ctx = dec.ctx
    d = ctx.dim
    entries = [[dec.entry(j, k) for k in range(1, d + 1)] for j in range(1, d + 1)]
    deltas = [dilated_difference(ctx, j) for j in range(1, d + 1)]
    for order in range(1, n_cap):
        for l in range(1, d):
            before = [None] * d
            for k in range(1, d + 1):
                before[k - 1] = _defining_sum(entries, deltas, d, k)
            for k in range(1, d + 1):
                a_row = entries[l - 1][k - 1].compose_inverse_dilate(ctx.inverse)
                for j in range(l + 1, d + 1):
                    block = _correction_block(a_row, ctx, order, l, j)
                    if block.is_zero():
                        continue
                    entries[l - 1][k - 1] = entries[l - 1][k - 1] \
                        - deltas[j - 1] * block
                    entries[j - 1][k - 1] = entries[j - 1][k - 1] \
                        + deltas[l - 1] * block
            for k in range(1, d + 1):
                if _defining_sum(entries, deltas, d, k) != before[k - 1]:
                    raise InternalIdentityViolation(
                        f"row exchange changed the defining sum at k={k}")
    result = _plain(dec.source, ctx, entries, n_cap - 1)
    if not result.identity_holds() or not result.value_constraint_holds():
        raise InternalIdentityViolation("refined decomposition lost its identity")
    if not result.entries_reach(n_cap - 1):
        raise InternalIdentityViolation(
            "refined entry fell short of its guaranteed order")
    return result


def _defining_sum(entries, deltas, d: int, k: int) -> TrigPoly:
    acc = TrigPoly.zero(d)
    for j in range(1, d + 1):
        acc = acc + entries[j - 1][k - 1] * deltas[j - 1]
    return acc


# ---------------------------------------------------------------------------
# iterated form
# ---------------------------------------------------------------------------

def kronecker_power(matrix, n: int):
    """n-th Kronecker power; entries may be int, Fraction, or anything with
    ring arithmetic."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = ((Fraction(1),),)
    for _ in range(n):
        rows = len(result)
        cols = len(result[0])
        out = []
        for i in range(len(matrix)):
            for r in range(rows):
                row = []
                for j in range(len(matrix[0])):
                    for c in range(cols):
                        row.append(matrix[i][j] * result[r][c])
                out.append(tuple(row))
        result = tuple(out)
    return result


def iterated_decomposition(t: TrigPoly, ctx: DilationContext, levels: int,
                           source_order: int) -> MaskDecomposition:
    """Iterated decomposition of a mask that satisfies the order-(source_order
    - 1) sum rules, with levels <= source_order; NotInClass otherwise.  See
    decompose_levels."""
    if levels > source_order:
        raise NotInClass("levels may not exceed the source order")
    have = sum_rule_order(t, ctx, cap=max(source_order - 1, 0))
    if have < source_order - 1:
        raise NotInClass(
            f"mask has sum-rule order {have}, below {source_order - 1}")
    return decompose_levels(t, ctx, levels, source_order - 1)


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
