"""Sum-rule (zero-condition) order detection and mask construction.

A mask satisfies the order-n sum rules when every derivative up to total
order n of t(inverse-transpose x) vanishes at the nonzero dual digits.  Two
independent routes decide membership here: the direct definition, and the
polyphase criterion expressing all derivative values at the origin through a
single table of parameters.  Both are exact and must agree; both decide by
integer moments (numerator * frequency^beta over one denominator) and one
test of divisibility by the cyclotomic polynomial Phi_F of the field order F.
The direct route and the lift read trigpoly._point_kernel; the polyphase
route sums its own origin moments, so a summation fault cannot pass both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from operator import index, mul, sub

from .cyclotomic import CyclotomicNumber, exp_of_rational
from .errors import MethodDisagreement, NotInClass
from .lattice import (CONTEXT_CACHE_SIZE, DilationContext, adjugate,
                      determinant, mat_vec, mat_vecs)
from .trigpoly import (TrigPoly, _number, _placed, _point_kernel,
                       _point_moments, _sparse, _vanishes)

DEFAULT_ORDER_CAP = 4

# bound of the (alpha, m) table of the polyphase criterion's weights; a scan
# to DEFAULT_ORDER_CAP in three dimensions reads 35 indices per m
WEIGHT_CACHE_SIZE = 1024


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


# ---------------------------------------------------------------------------
# order detection
# ---------------------------------------------------------------------------

def _signed_adjugate(ctx: DilationContext):
    """sign(det) * adjugate, so that inverse = this / m with m = |det|."""
    return ctx.adjugate if ctx.det > 0 else \
        tuple(tuple(-x for x in row) for row in ctx.adjugate)


def _direct_kernel(t: TrigPoly, ctx: DilationContext):
    """trigpoly._point_kernel of t at the nonzero dual digits over q = m, each
    frequency read at its image g = sign(det) * adjugate @ freq: per digit
    delta, its _point_moments vector is m^|beta| * D times the normalized
    beta-derivative of t(inverse-transpose x) at delta."""
    return _point_kernel(t, mat_vecs(_signed_adjugate(ctx), list(t.vectors)),
                         ctx.m, ctx.dual_digits[1:])


def _direct_order_holds(kernel, ctx: DilationContext, total: int) -> bool:
    """Do all total-order derivatives of t(inverse-transpose x) vanish at the
    nonzero dual digits?  Each is decided on its _point_moments vector."""
    field = kernel[0]
    return all(_vanishes(vec, field) for beta in multi_indices(ctx.dim, total)
               for vec in _point_moments(kernel, beta))


def _polyphase_moments(t: TrigPoly, ctx: DilationContext):
    """t's field F and denominator D, and per polyphase the digit's sign(det)
    * adjugate image and its terms (base point, [(position, numerator)],
    label)."""
    adj = _signed_adjugate(ctx)
    parts = [(mat_vec(adj, digit), []) for digit in ctx.digits]
    for (nu, base), (_, xs, label) in zip(ctx.base_points(list(t.vectors)),
                                          _sparse(t, t.field)):
        parts[nu][1].append((base, xs, label))
    return t.field, t.den, parts


def _origin_moment(part: list, alpha, field: int) -> tuple[list, int]:
    """D times the normalized alpha derivative of a polyphase at the origin,
    at order F, and its order: the lcm over terms with base^alpha nonzero."""
    vec = [0] * field
    orders = {1}
    for base, xs, order in part:
        factor = prod(b ** a for b, a in zip(base, alpha))
        if factor:
            orders.add(order)
            for p, x in xs:
                vec[p] += factor * x
    return vec, lcm(*orders)


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def _polyphase_weights(alpha: tuple, m: int) -> tuple:
    """(beta, C(alpha, beta) m^|beta|, alpha - beta) for each beta <= alpha:
    the part of _polyphase_targets that depends on the dilation only."""
    return tuple((beta, binom_multi(alpha, beta) * m ** sum(beta),
                  tuple(map(sub, alpha, beta))) for beta in indices_below(alpha))


def _polyphase_targets(moments: dict, alpha, shift, m: int) -> list:
    """m^|alpha| times the alpha moment the polyphase at the point shift / m
    must have: sum over beta <= alpha of C(alpha, beta) (-shift)^(alpha-beta)
    m^|beta| times the (vector, order) moment beta of polyphase 0."""
    acc = [0] * len(moments[alpha][0])
    for beta, weight, exponents in _polyphase_weights(alpha, m):
        scale = weight * prod((-s) ** e for s, e in zip(shift, exponents))
        for i, y in enumerate(moments[beta][0]):
            acc[i] += scale * y
    return acc


def _polyphase_order_holds(taus, table: dict, ctx: DilationContext,
                           total: int) -> bool:
    """Check the polyphase criterion at one total order on _polyphase_moments,
    extending the table of moments.  The entry for each new index is forced
    by polyphase 0 (whose digit fraction is zero, making the relation
    triangular); the criterion is the same relation at every other polyphase.
    """
    field, _, parts = taus
    for alpha in multi_indices(ctx.dim, total):
        table[alpha] = _origin_moment(parts[0][1], alpha, field)
    for shift, part in parts[1:]:
        for alpha in multi_indices(ctx.dim, total):
            have = _origin_moment(part, alpha, field)[0]
            want = _polyphase_targets(table, alpha, shift, ctx.m)
            if not _vanishes([ctx.m ** total * h - w for h, w in zip(have, want)],
                             field):
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
    if t.is_zero() and not with_table:
        return cap  # every derivative of the zero polynomial vanishes
    kernel = _direct_kernel(t, ctx)
    taus = _polyphase_moments(t, ctx)
    table: dict = {}
    order = -1
    for total in range(cap + 1):
        direct = _direct_order_holds(kernel, ctx, total)
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
    field, den, _ = taus  # table values are m times polyphase 0's moments
    return order, DerivativeTable(ctx.dim, order, {
        b: _number([x * ctx.m for x in v], field, held, den)
        for b, (v, held) in table.items() if sum(b) <= order})


def sum_rule_order_direct(t: TrigPoly, ctx: DilationContext,
                          cap: int = DEFAULT_ORDER_CAP) -> int:
    """Order by the direct definition only (an independent certification path).
    Every rule holds for 0; a nonzero t with k terms fails below order k."""
    if t.is_zero():
        return cap
    kernel = _direct_kernel(t, ctx)
    return next((total - 1 for total in range(cap + 1)
                 if not _direct_order_holds(kernel, ctx, total)), cap)


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
    order scan of sum_rule_order, capped at the order, reads the table off
    polyphase 0 and verifies it against every other polyphase and the direct
    definition; a scan that stops short means the mask is not in the class.
    """
    found, table = sum_rule_order(t, ctx, cap=order, with_table=True)
    if found < order:
        raise NotInClass(f"mask fails the order-{found + 1} sum rules")
    return table


# ---------------------------------------------------------------------------
# generator polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_moment_line(cap: int, target: int) -> tuple[Fraction, ...]:
    """Coefficients u_0..u_cap on nodes 0..cap with sum u_s * s^gamma = [gamma==target]
    for gamma = 0..cap: column `target` of the inverse Vandermonde matrix,
    its adjugate over its determinant."""
    nodes = [[s ** g for s in range(cap + 1)] for g in range(cap + 1)]
    det = determinant(nodes)
    return tuple(Fraction(row[target], det) for row in adjugate(nodes))


def unit_derivative_poly(cap: int, target: tuple, dim: int) -> TrigPoly:
    """Trigonometric polynomial whose normalized derivatives at the origin are
    the indicator of the target index, through total order cap.

    Built as a tensor product of univariate moment solutions on the nodes
    0..cap; the defining conditions are re-verified exactly before returning.
    In un-normalized terms the polynomial realizes the derivative conditions
    up to the (2*pi*i)^|target| factor that exact arithmetic cannot carry.
    Target components must be integers (operator.index), checked uncached.
    """
    return _unit_derivative_poly(cap, tuple(map(index, target)), dim)


@lru_cache(maxsize=None)
def _unit_derivative_poly(cap: int, target: tuple, dim: int) -> TrigPoly:
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
    value 1 at dual digit nu and 0 at the other dual digits (built once per
    context, with the other digits' interpolants).

    Coefficients are (1/m) e^(-2*pi*i*(dual_digit_nu, r_mu)) at frequency
    digit_mu; the interpolation property is exactly the unitarity of the digit
    Fourier matrix.
    """
    if not 0 <= nu < ctx.m:
        raise ValueError("digit index out of range")
    return _digit_interpolants(ctx)[nu]


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _digit_interpolants(ctx: DilationContext) -> tuple:
    """digit_interpolant of each dual digit of ctx, in order."""
    images = mat_vecs(_signed_adjugate(ctx), list(ctx.digits))
    return tuple(TrigPoly(ctx.dim, {digit: exp_of_rational(Fraction(
        -sum(map(mul, dual, image)), ctx.m)) * Fraction(1, ctx.m)
        for digit, image in zip(ctx.digits, images)}) for dual in ctx.dual_digits)


def mask_from_derivative_table(ctx: DilationContext,
                               table: DerivativeTable) -> TrigPoly:
    """Construct a mask whose polyphase derivatives at the origin realize the
    table, hence satisfying the sum rules of the table's order."""
    n, zero = table.order, (0,) * ctx.dim
    field, den, placed = _placed(table.values.items())
    moments = dict(placed)
    adj = _signed_adjugate(ctx)
    parts = []
    for digit in ctx.digits:
        shift = mat_vec(adj, digit)
        tau = TrigPoly.zero(ctx.dim)
        for alpha in multi_indices_up_to(ctx.dim, n):
            # over D m^(|alpha|+1): table values are m times the moments
            vec = _polyphase_targets(moments, alpha, shift, ctx.m)
            if not _vanishes(vec, field):
                coeff = TrigPoly._merged(
                    ctx.dim, field, den * ctx.m ** (sum(alpha) + 1), [(zero, (
                        vec, lcm(*(moments[b][1] for b in indices_below(alpha)))))])
                tau = tau + unit_derivative_poly(n, alpha, ctx.dim) * coeff
        parts.append(tau)
    mask = TrigPoly.polyphase_assemble(parts, ctx)
    achieved = sum_rule_order(mask, ctx, cap=n)
    if achieved < n:
        raise MethodDisagreement(
            f"constructed mask reached order {achieved} < {n}")  # unreachable
    return mask
