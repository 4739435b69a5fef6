"""Sum-rule (zero-condition) order detection and mask construction.

A mask satisfies the order-n sum rules when every derivative up to total
order n of t(inverse-transpose x) vanishes at the nonzero dual digits.  Two
independent routes decide membership here: the direct definition, and the
polyphase criterion expressing all derivative values at the origin through a
single table of parameters.  Both are exact; they are required to agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, prod

from .cyclotomic import CyclotomicNumber, exp_of_rational
from .errors import MethodDisagreement, NotInClass
from .lattice import DilationContext, mat_vec, matrix_inverse
from .trigpoly import TrigPoly, derivative_at

DEFAULT_ORDER_CAP = 4


def multi_indices(dim: int, total: int):
    """All nonnegative integer vectors of the given total order, lexicographic."""
    if dim == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in multi_indices(dim - 1, total - head):
            yield (head,) + tail


def multi_indices_up_to(dim: int, cap: int):
    for total in range(cap + 1):
        yield from multi_indices(dim, total)


def binom_multi(alpha, beta) -> int:
    return prod(comb(a, b) for a, b in zip(alpha, beta))


def indices_below(alpha):
    """All beta with 0 <= beta <= alpha componentwise."""
    return itertools.product(*(range(a + 1) for a in alpha))


def _neg_power(point, expo) -> Fraction:
    """(-point)^expo for a rational vector and a multi-index (0^0 = 1)."""
    out = Fraction(1)
    for p, e in zip(point, expo):
        if e:
            out *= (-Fraction(p)) ** e
    return out


# ---------------------------------------------------------------------------
# order detection
# ---------------------------------------------------------------------------

def dilated_derivatives(t: TrigPoly, ctx: DilationContext):
    """(beta, point) -> the normalized beta-derivative of t(inverse-transpose
    x) at the point.  inverse = adjugate / det, so each frequency maps once,
    here, to sign(det) * adjugate @ freq over the denominator m = |det|."""
    adj = ctx.adjugate if ctx.det > 0 else \
        tuple(tuple(-x for x in row) for row in ctx.adjugate)
    terms = [(mat_vec(adj, freq), coeff) for freq, coeff in t.terms.items()]
    return partial(derivative_at, terms, ctx.m)


def _direct_order_holds(derivative, ctx: DilationContext, total: int) -> bool:
    """Do all total-order derivatives of t(inverse-transpose x) vanish at the
    nonzero dual digits?  Takes the evaluator of dilated_derivatives."""
    for dual_digit in ctx.dual_digits[1:]:
        for beta in multi_indices(ctx.dim, total):
            if not derivative(beta, dual_digit).is_zero():
                return False
    return True


def _polyphase_targets(table_values: dict, alpha, ctx: DilationContext,
                       k: int) -> CyclotomicNumber:
    """Required normalized derivative of polyphase k at the origin, given the
    parameter table (all divided by the field-exiting 2*pi*i powers)."""
    r_k = ctx.digit_fractions[k]
    acc = CyclotomicNumber.zero()
    for beta in indices_below(alpha):
        acc = acc + table_values[beta] * (binom_multi(alpha, beta)
                                          * _neg_power(r_k, tuple(a - b for a, b
                                                                  in zip(alpha, beta))))
    return acc * Fraction(1, ctx.m)


def _polyphase_order_holds(taus: list[TrigPoly], table_values: dict,
                           ctx: DilationContext, total: int) -> bool:
    """Check the polyphase criterion at one total order, extending the table.

    The table entry for each new index is forced by polyphase 0 (whose digit
    fraction is zero, making the relation triangular); the criterion is then
    the same relation at every other polyphase.
    """
    for alpha in multi_indices(ctx.dim, total):
        table_values[alpha] = taus[0].normalized_derivative(alpha, (0,) * ctx.dim) \
            * ctx.m
    for k in range(1, ctx.m):
        zero = (0,) * ctx.dim
        for alpha in multi_indices(ctx.dim, total):
            want = _polyphase_targets(table_values, alpha, ctx, k)
            if taus[k].normalized_derivative(alpha, zero) != want:
                return False
    return True


def sum_rule_order(t: TrigPoly, ctx: DilationContext,
                   cap: int = DEFAULT_ORDER_CAP, with_table: bool = False):
    """Largest n <= cap such that the mask satisfies the order-n sum rules,
    or -1 when even order 0 fails.

    Decided twice: by the direct derivative definition and by the polyphase
    criterion.  A disagreement is an implementation bug, never a data error.
    With with_table, returns (order, table) where table is the polyphase
    criterion's parameter table through that order (None for order -1).
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    dilated = dilated_derivatives(t, ctx)
    taus = t.polyphase_split(ctx)
    table: dict = {}
    order = -1
    for total in range(cap + 1):
        direct = _direct_order_holds(dilated, ctx, total)
        polyphase = _polyphase_order_holds(taus, table, ctx, total)
        if direct != polyphase:
            raise MethodDisagreement(
                f"checkers disagree at order {total}: direct={direct}, "
                f"polyphase={polyphase}")
        if not direct:
            break
        order = total
    if not with_table:
        return order
    if order < 0:
        return order, None
    values = {beta: v for beta, v in table.items() if sum(beta) <= order}
    return order, DerivativeTable(dim=ctx.dim, order=order, values=values)


def sum_rule_order_direct(t: TrigPoly, ctx: DilationContext,
                          cap: int = DEFAULT_ORDER_CAP) -> int:
    """Order by the direct definition only (an independent certification path)."""
    dilated = dilated_derivatives(t, ctx)
    order = -1
    for total in range(cap + 1):
        if not _direct_order_holds(dilated, ctx, total):
            break
        order = total
    return order


# ---------------------------------------------------------------------------
# derivative parameter table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeTable:
    """Normalized derivatives at the origin of the dilated mask, complete for
    all multi-indices up to the given order.

    Entry beta holds D^beta t(inverse-transpose x)|_0 divided by
    (2*pi*i)^|beta|, which keeps every value cyclotomic.
    """
    dim: int
    order: int
    values: dict

    def __post_init__(self):
        for beta in multi_indices_up_to(self.dim, self.order):
            if beta not in self.values:
                raise ValueError(f"table is missing index {beta}")

    def value(self, beta) -> CyclotomicNumber:
        return self.values[tuple(beta)]

    def to_json(self) -> dict:
        return {"order": self.order,
                "values": [{"beta": list(beta), "value": self.values[beta].to_json()}
                           for beta in sorted(self.values)]}


def derivative_table(t: TrigPoly, ctx: DilationContext, order: int) -> DerivativeTable:
    """Extract the parameter table of a mask known to satisfy order-n sum rules.

    The leading polyphase makes the defining relations triangular, so the
    table is read off polyphase 0 and then verified against every other
    polyphase; failure means the mask is not in the class.
    """
    taus = t.polyphase_split(ctx)
    values: dict = {}
    for total in range(order + 1):
        if not _polyphase_order_holds(taus, values, ctx, total):
            raise NotInClass(f"mask fails the order-{total} sum rules")
    return DerivativeTable(dim=ctx.dim, order=order, values=values)


# ---------------------------------------------------------------------------
# generator polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_moment_line(cap: int, target: int) -> tuple[Fraction, ...]:
    """Coefficients u_0..u_cap on nodes 0..cap with sum u_s * s^gamma = [gamma==target]
    for gamma = 0..cap: column `target` of the inverse Vandermonde matrix."""
    inverse = matrix_inverse([[s ** g for s in range(cap + 1)]
                              for g in range(cap + 1)])
    return tuple(row[target] for row in inverse)


@lru_cache(maxsize=None)
def unit_derivative_poly(cap: int, target: tuple, dim: int) -> TrigPoly:
    """Trigonometric polynomial whose normalized derivatives at the origin are
    the indicator of the target index, through total order cap.

    Built as a tensor product of univariate moment solutions on the nodes
    0..cap; the defining conditions are re-verified exactly before returning.
    In un-normalized terms the polynomial realizes the derivative conditions
    up to the (2*pi*i)^|target| factor that exact arithmetic cannot carry.
    """
    target = tuple(int(x) for x in target)
    if len(target) != dim:
        raise ValueError("target index has wrong dimension")
    if sum(target) > cap:
        raise ValueError("target order exceeds the cap")
    poly = TrigPoly.constant(dim, 1)
    for axis0, t_j in enumerate(target):
        line = _unit_moment_line(cap, t_j)
        univ = TrigPoly(dim, {tuple(s if i == axis0 else 0 for i in range(dim)): c
                              for s, c in enumerate(line) if c})
        poly = poly * univ
    zero = (0,) * dim
    for gamma in multi_indices_up_to(dim, cap):
        want = Fraction(int(gamma == target))
        if poly.normalized_derivative(gamma, zero) != want:
            raise MethodDisagreement(
                f"generator postcondition failed at {gamma}")  # unreachable
    return poly


def digit_interpolant(nu: int, ctx: DilationContext) -> TrigPoly:
    """Integer-frequency polynomial H with H(inverse-transpose x) taking the
    value 1 at dual digit nu and 0 at the other dual digits.

    Coefficients are (1/m) e^(-2*pi*i*(dual_digit_nu, r_mu)) at frequency
    digit_mu; the interpolation property is exactly the unitarity of the digit
    Fourier matrix.
    """
    if not 0 <= nu < ctx.m:
        raise ValueError("digit index out of range")
    dual = ctx.dual_digits[nu]
    terms = {}
    for mu, digit in enumerate(ctx.digits):
        r_mu = ctx.digit_fractions[mu]
        turns = -sum((Fraction(a) * b for a, b in zip(dual, r_mu)),
                     start=Fraction(0))
        terms[digit] = exp_of_rational(turns) * Fraction(1, ctx.m)
    return TrigPoly(ctx.dim, terms)


def mask_from_derivative_table(ctx: DilationContext,
                               table: DerivativeTable) -> TrigPoly:
    """Construct a mask whose polyphase derivatives at the origin realize the
    table, hence satisfying the sum rules of the table's order."""
    n = table.order
    zero = (0,) * ctx.dim
    parts = []
    for k in range(ctx.m):
        tau = TrigPoly.zero(ctx.dim)
        for alpha in multi_indices_up_to(ctx.dim, n):
            coeff = _polyphase_targets(table.values, alpha, ctx, k)
            if not coeff.is_zero():
                tau = tau + unit_derivative_poly(n, alpha, ctx.dim).scale(coeff)
        parts.append(tau)
    mask = TrigPoly.polyphase_assemble(parts, ctx)
    achieved = sum_rule_order(mask, ctx, cap=n)
    if achieved < n:
        raise MethodDisagreement(
            f"constructed mask reached order {achieved} < {n}")  # unreachable
    return mask
