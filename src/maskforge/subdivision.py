"""Subdivision operators, their norms, and convergence / C1 verdicts.

A mask (scalar or matrix of masks) acts on finitely supported sequences by

    (S f)_alpha = sum_beta A_(alpha - M beta) f_beta,

where the coefficients A are read straight off the mask's frequency support
(coefficient at frequency alpha acts at offset alpha).  The difference scheme
of a decomposed mask satisfies the exact operator identity

    grad(S_t f) = S_T grad(f),      T[k][j] = entry(j, k),

which is what ties decompositions to convergence; one more decomposition
level gives grad(S_T g) = S_Q grad(g).  Norm verdicts are certified: an
operator norm below 1 is claimed only when the whole enclosing interval is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from numbers import Rational
from operator import add

from .cyclotomic import CyclotomicNumber, magnitude_interval
from .decompose import MaskDecomposition, decompose_to_class
from .errors import MaskforgeError, ShapeMismatch
from .intervals import RatInterval, interval_max, interval_sum
from .lattice import (DilationContext, IsotropyReport, adjugate, coset_key,
                      determinant, is_isotropic, mat_mul, mat_vec,
                      matrix_power, power_inf_norm, transpose)
from .sumrules import sum_rule_order
from .trigpoly import TrigPoly

DEFAULT_POWER_CAP = 8


def _simplify(v):
    if isinstance(v, CyclotomicNumber) and v.is_rational():
        return v.rational_value()
    return v


class Sequence:
    """Finitely supported map from the integer lattice to exact vectors."""

    __slots__ = ("dim", "width", "values")

    def __init__(self, dim: int, width: int, values=None) -> None:
        self.dim = dim
        self.width = width
        clean = {}
        for alpha, vec in (values or {}).items():
            alpha = tuple(int(x) for x in alpha)
            if len(alpha) != dim:
                raise ShapeMismatch("support point has wrong dimension")
            if any(isinstance(v, float) for v in vec):
                raise MaskforgeError("sequence values must be exact, not float")
            vec = tuple(_simplify(Fraction(v) if isinstance(v, (int, str)) else v)
                        for v in vec)
            if len(vec) != width:
                raise ShapeMismatch("value vector has wrong width")
            if any(vec):
                clean[alpha] = vec
        self.values = clean

    @classmethod
    def _trusted(cls, dim: int, width: int, values: dict) -> "Sequence":
        """A sequence from values already in canonical form: integer tuple
        keys, exact values of the right width, no all-zero vector."""
        seq = cls.__new__(cls)
        seq.dim, seq.width, seq.values = dim, width, values
        return seq

    @classmethod
    def delta(cls, dim: int, width: int = 1, component: int = 0,
              at=None) -> "Sequence":
        at = tuple(at) if at is not None else (0,) * dim
        vec = tuple(Fraction(int(i == component)) for i in range(width))
        return cls(dim, width, {at: vec})

    def value(self, alpha):
        return self.values.get(tuple(alpha),
                               tuple(Fraction(0) for _ in range(self.width)))

    def support(self):
        return self.values.items()

    def is_zero(self) -> bool:
        return not self.values

    def sup_norm(self) -> Fraction:
        """Exact sup of component magnitudes; requires rational values."""
        best = Fraction(0)
        for vec in self.values.values():
            for v in vec:
                if not isinstance(v, Rational):
                    raise MaskforgeError("sup_norm needs rational values")
                best = max(best, abs(Fraction(v)))
        return best

    def __add__(self, other: "Sequence") -> "Sequence":
        if (self.dim, self.width) != (other.dim, other.width):
            raise ShapeMismatch("sequence shapes differ")
        out = dict(self.values)
        for alpha, vec in other.values.items():
            if alpha in out:
                out[alpha] = tuple(a + b for a, b in zip(out[alpha], vec))
            else:
                out[alpha] = vec
        return Sequence(self.dim, self.width, out)

    def scale(self, factor) -> "Sequence":
        return Sequence(self.dim, self.width,
                        {a: tuple(v * factor for v in vec)
                         for a, vec in self.values.items()})

    def __sub__(self, other: "Sequence") -> "Sequence":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        if (self.dim, self.width) != (other.dim, other.width):
            return False
        if set(self.values) != set(other.values):
            return False
        return all(vec == other.values[alpha] for alpha, vec in self.values.items())

    def __repr__(self) -> str:
        return f"Sequence(dim={self.dim}, width={self.width}, support={len(self.values)})"


class MatrixMask:
    """Rectangular array of integer-frequency masks with its coefficient view.

    coefficient(alpha)[i][j] is the coefficient of entry (i, j) at frequency
    alpha, so the symbol/coefficient round trip is exact by construction.
    """

    __slots__ = ("rows", "cols", "dim", "entries")

    def __init__(self, entries) -> None:
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0])
        if any(len(row) != self.cols for row in self.entries):
            raise ShapeMismatch("ragged matrix mask")
        self.dim = self.entries[0][0].dim
        for row in self.entries:
            for entry in row:
                entry._require_integer()
                if entry.dim != self.dim:
                    raise ShapeMismatch("mixed dimensions in matrix mask")

    @classmethod
    def from_scalar(cls, t: TrigPoly) -> "MatrixMask":
        return cls([[t]])

    @classmethod
    def from_decomposition(cls, dec: MaskDecomposition) -> "MatrixMask":
        """Difference-scheme symbol: row k, column j holds entry(j, k)."""
        d = dec.ctx.dim
        return cls([[dec.entry(j, k) for j in range(1, d + 1)]
                    for k in range(1, d + 1)])

    def entry(self, i: int, j: int) -> TrigPoly:
        return self.entries[i][j]

    def coefficient_support(self) -> set:
        out = set()
        for row in self.entries:
            for entry in row:
                out.update(entry.terms.keys())
        return out

    def coefficient(self, alpha) -> list:
        alpha = tuple(alpha)
        return [[entry.coefficient(alpha) for entry in row]
                for row in self.entries]

    def is_rational(self) -> bool:
        return all(c.is_rational() for row in self.entries
                   for entry in row for c in entry.terms.values())

    def matmul_dilated(self, other: "MatrixMask", dilation) -> "MatrixMask":
        """self(x) @ other(transpose(dilation) x)."""
        if self.cols != other.rows:
            raise ShapeMismatch("inner dimensions differ")
        dilated = [[entry.compose_dilate(dilation) for entry in row]
                   for row in other.entries]
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = TrigPoly.zero(self.dim)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * dilated[k][j]
                row.append(acc)
            out.append(row)
        return MatrixMask(out)

    def __repr__(self) -> str:
        return f"MatrixMask({self.rows}x{self.cols}, dim={self.dim})"


def _as_matrix_mask(mask) -> MatrixMask:
    if isinstance(mask, TrigPoly):
        return MatrixMask.from_scalar(mask)
    return mask


def _dilation_matrix(dilation):
    if isinstance(dilation, DilationContext):
        return dilation.matrix
    return tuple(tuple(int(x) for x in row) for row in dilation)


def apply(mask, dilation, f: Sequence) -> Sequence:
    """One subdivision step: (S f)_alpha = sum A_(alpha - M beta) f_beta.

    Rational masks acting on rational data take the integer-numerator kernel;
    anything cyclotomic takes the generic exact path.  Both give the same
    sequence."""
    mask = _as_matrix_mask(mask)
    matrix = _dilation_matrix(dilation)
    if mask.cols != f.width:
        raise ShapeMismatch(f"mask expects width {mask.cols}, sequence has {f.width}")
    if mask.is_rational() and all(isinstance(v, Rational)
                                  for vec in f.values.values() for v in vec):
        return _apply_rational(mask, matrix, f)
    return _apply_generic(mask, matrix, f)


def _apply_rational(mask: MatrixMask, matrix, f: Sequence) -> Sequence:
    """Fraction-free apply: the coefficients are integers n over their common
    denominator D_a, the samples integers p over D_f, and each output value is
    built once as (sum of n * p) / (D_a * D_f)."""
    by_offset: dict[tuple, list] = {}
    for i, row in enumerate(mask.entries):
        for j, entry in enumerate(row):
            for alpha, c in entry.terms.items():
                by_offset.setdefault(alpha, []).append((i, j, c.rational_value()))
    d_a = lcm(*(c.denominator for terms in by_offset.values() for _, _, c in terms))
    kernel = [(alpha, [(i, j, c.numerator * (d_a // c.denominator))
                       for i, j, c in terms])
              for alpha, terms in by_offset.items()]
    d_f = lcm(*(v.denominator for vec in f.values.values() for v in vec))
    rows = mask.rows
    acc: dict[tuple, list] = {}
    for beta, vec in f.values.items():
        p = [v.numerator * (d_f // v.denominator) for v in vec]
        m_beta = mat_vec(matrix, beta)
        for alpha, terms in kernel:
            target = tuple(map(add, alpha, m_beta))
            out = acc.get(target)
            if out is None:
                out = acc[target] = [0] * rows
            for i, j, n in terms:
                out[i] += n * p[j]
    den = d_a * d_f
    return Sequence._trusted(f.dim, rows, {
        target: tuple(Fraction(x, den) for x in out)
        for target, out in acc.items() if any(out)})


def _apply_generic(mask: MatrixMask, matrix, f: Sequence) -> Sequence:
    """apply over mixed rational and cyclotomic values, one exact product at a
    time; the reference the integer kernel is tested against."""
    out: dict[tuple, list] = {}
    coeffs = {alpha: mask.coefficient(alpha) for alpha in mask.coefficient_support()}
    for beta, vec in f.support():
        m_beta = mat_vec(matrix, beta)
        for alpha, A in coeffs.items():
            target = tuple(a + b for a, b in zip(alpha, m_beta))
            contrib = []
            for i in range(mask.rows):
                acc = Fraction(0)
                for j in range(mask.cols):
                    if vec[j] and A[i][j]:
                        acc += A[i][j] * vec[j]
                contrib.append(acc)
            if target in out:
                out[target] = [a + b for a, b in zip(out[target], contrib)]
            else:
                out[target] = contrib
    return Sequence(f.dim, mask.rows, {a: tuple(v) for a, v in out.items()})


def gradient(f: Sequence) -> Sequence:
    """Backward-difference stack: for each input component, its d differences.

    Output width is d * width; block i (of size d) holds the differences of
    component i, difference axis fastest.
    """
    d = f.dim
    out: dict[tuple, list] = {}
    zero_vec = [Fraction(0)] * (d * f.width)
    for alpha, vec in f.support():
        for axis in range(d):
            shifted = tuple(a + int(i == axis) for i, a in enumerate(alpha))
            for target, sign in ((alpha, 1), (shifted, -1)):
                if target not in out:
                    out[target] = list(zero_vec)
                row = out[target]
                for i in range(f.width):
                    row[i * d + axis] += vec[i] * sign
    return Sequence(d, d * f.width, {a: tuple(v) for a, v in out.items()})


def coset_coefficient_sums(mask, ctx: DilationContext) -> list:
    """For each digit: the exact (signed) sum of coefficient matrices over its
    coset.  For a difference scheme of a normalized order-1 mask these all
    equal the inverse-transpose dilation matrix."""
    mask = _as_matrix_mask(mask)
    sums = [[[CyclotomicNumber.zero() for _ in range(mask.cols)]
             for _ in range(mask.rows)] for _ in range(ctx.m)]
    for alpha in mask.coefficient_support():
        nu = ctx.coset_index(alpha)
        A = mask.coefficient(alpha)
        for i in range(mask.rows):
            for j in range(mask.cols):
                sums[nu][i][j] = sums[nu][i][j] + A[i][j]
    return sums


def operator_norm(mask, dilation, precision_bits: int = 128) -> RatInterval:
    """The exact sup-operator norm: max over cosets of the max row sum of the
    entrywise coefficient-magnitude sums.

    Exact rational for rational coefficients, otherwise a certified interval.
    """
    mask = _as_matrix_mask(mask)
    matrix = _dilation_matrix(dilation)
    adj, modulus = adjugate(matrix), abs(determinant(matrix))
    groups: dict[tuple, list] = {}
    for alpha in mask.coefficient_support():
        groups.setdefault(coset_key(adj, modulus, alpha), []).append(alpha)
    best = RatInterval.exact(0)
    for alphas in groups.values():
        for row in mask.entries:
            exact = Fraction(0)
            rough = []
            for entry in row:
                for alpha in alphas:
                    c = entry.terms.get(alpha)
                    if c is None:
                        continue
                    if c.is_rational():
                        exact += abs(c.coords[0])
                    else:
                        rough.append(magnitude_interval(c, precision_bits))
            best = interval_max([best, RatInterval.exact(exact) + interval_sum(rough)])
    return best


def operator_powers(mask, dilation, cap: int):
    """Yield (L, symbol, dilation^L) for the L-fold operator, L = 1..cap.

    The symbol of the L-fold operator is the ordered product of the mask with
    its images under increasing dilation powers, and it acts with dilation
    matrix^L.  Each product is formed only when its item is requested, so a
    consumer that stops early pays for no further power."""
    mask = _as_matrix_mask(mask)
    if mask.rows != mask.cols:
        raise ShapeMismatch("powers need a square mask")
    matrix = _dilation_matrix(dilation)
    symbol, step = mask, matrix
    for L in range(1, cap + 1):
        if L > 1:
            symbol = symbol.matmul_dilated(mask, step)
            step = mat_mul(step, matrix)
        yield L, symbol, step


def power_symbol(mask, dilation, k: int) -> MatrixMask:
    """Symbol of the k-fold operator (see operator_powers)."""
    if k < 1:
        raise ValueError("power must be at least 1")
    _, symbol, _ = next(itertools.islice(operator_powers(mask, dilation, k),
                                         k - 1, None))
    return symbol


def second_difference_scheme(T: MatrixMask, ctx: DilationContext) -> MatrixMask:
    """The d^2-by-d^2 mask Q with grad(S_T g) = S_Q grad(g).

    Requires every entry of T in the order-0 sum-rule class, which holds for
    the difference scheme of any order-1 mask; the entries are not scanned
    again.  Row blocks follow the gradient's component-major layout."""
    d = ctx.dim
    if (T.rows, T.cols) != (d, d):
        raise ShapeMismatch("second difference scheme needs a d-by-d mask")
    sub = [[decompose_to_class(T.entry(k, j), ctx, 0) for j in range(d)]
           for k in range(d)]
    entries = [[None] * (d * d) for _ in range(d * d)]
    for k in range(d):
        for kappa in range(d):
            for j in range(d):
                for iota in range(d):
                    entries[k * d + kappa][j * d + iota] = \
                        sub[k][j].entry(iota + 1, kappa + 1)
    return MatrixMask(entries)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    verdict: str                      # "convergent" | "inconclusive"
    mask_value_at_zero: CyclotomicNumber
    normalized: bool                  # t(0) == m
    sum_rule_order: int               # capped scan
    in_order0_class: bool
    certificate_power: int | None
    norms: list                       # [(L, RatInterval)]
    reasons: list
    difference_mask: MatrixMask | None = field(repr=False, default=None)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "mask_value_at_zero": self.mask_value_at_zero.to_json(),
            "normalized": self.normalized,
            "sum_rule_order": self.sum_rule_order,
            "in_order0_class": self.in_order0_class,
            "certificate_power": self.certificate_power,
            "norms": [{"power": L, "norm": n.to_json()} for L, n in self.norms],
            "reasons": self.reasons,
        }


def check_convergence(t: TrigPoly, ctx: DilationContext,
                      power_cap: int = DEFAULT_POWER_CAP,
                      precision_bits: int = 128,
                      order_scan_cap: int = 3) -> ConvergenceReport:
    """Sufficient-condition convergence verdict for a scalar mask.

    Gates: value m at the origin and order-0 sum rules; then the difference
    scheme must have some operator power with norm certified below 1.  The
    condition is sufficient, not necessary, so failures report "inconclusive".
    """
    reasons = []
    t0 = t.value_at_zero()
    normalized = t0 == ctx.m
    if not normalized:
        reasons.append(f"normalization failed: mask value at 0 is {t0!r}, not m={ctx.m}")
    order = sum_rule_order(t, ctx, cap=order_scan_cap)
    in_z0 = order >= 0
    if not in_z0:
        reasons.append("mask is not in the order-0 sum-rule class")
    T = None
    norms = []
    certificate = None
    if in_z0:
        T = MatrixMask.from_decomposition(decompose_to_class(t, ctx, order))
        for L, symbol, dilation in operator_powers(T, ctx, power_cap):
            norm = operator_norm(symbol, dilation, precision_bits)
            norms.append((L, norm))
            if norm.certified_below(1):
                certificate = L
                break
        if certificate is None:
            reasons.append(
                f"no operator power up to {power_cap} has norm certified below 1")
    verdict = "convergent" if (normalized and in_z0 and certificate) else "inconclusive"
    return ConvergenceReport(verdict=verdict, mask_value_at_zero=t0,
                             normalized=normalized, sum_rule_order=order,
                             in_order0_class=in_z0, certificate_power=certificate,
                             norms=norms, reasons=reasons, difference_mask=T)


@dataclass
class SmoothnessReport:
    verdict: str                      # "C1" | "inconclusive"
    isotropy: IsotropyReport
    convergence: ConvergenceReport
    in_order1_class: bool
    certificate_power: int | None
    products: list                    # [(L, RatInterval of |Mt^L| * |S_Q^L|)]
    reasons: list
    difference_mask: MatrixMask | None = field(repr=False, default=None)
    second_difference_mask: MatrixMask | None = field(repr=False, default=None)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "isotropy": self.isotropy.to_json(),
            "convergence": self.convergence.to_json(),
            "in_order1_class": self.in_order1_class,
            "certificate_power": self.certificate_power,
            "products": [{"power": L, "product": p.to_json()}
                         for L, p in self.products],
            "reasons": self.reasons,
        }


def check_c1(t: TrigPoly, ctx: DilationContext,
             power_cap: int = DEFAULT_POWER_CAP,
             precision_bits: int = 128) -> SmoothnessReport:
    """Sufficient-condition C1 verdict for a scalar mask.

    Gates: isotropic dilation, order-1 sum rules, normalization, a convergence
    certificate, then the contraction of the twice-differenced scheme against
    the growth of the transposed dilation powers.  Never claims C1 for a
    non-isotropic dilation: the argument that turns subconvergence of the
    difference scheme into C1 limits needs isotropy.
    """
    reasons = []
    isotropy = is_isotropic(ctx.matrix)
    if isotropy.verdict != "yes":
        reasons.append(f"dilation matrix is not certified isotropic "
                       f"(verdict: {isotropy.verdict})")
    convergence = check_convergence(t, ctx, power_cap, precision_bits)
    if convergence.verdict != "convergent":
        reasons.append("no convergence certificate")
    in_z1 = convergence.sum_rule_order >= 1
    if not in_z1:
        reasons.append("mask is not in the order-1 sum-rule class")
    T = convergence.difference_mask
    Q = None
    products = []
    certificate = None
    if in_z1 and T is not None:
        Q = second_difference_scheme(T, ctx)
        dual = transpose(ctx.matrix)
        for L, symbol, dilation in operator_powers(Q, ctx, power_cap):
            growth = power_inf_norm(dual, L)
            product = operator_norm(symbol, dilation, precision_bits) * growth
            products.append((L, product))
            if product.certified_below(1):
                certificate = L
                break
        if certificate is None:
            reasons.append(
                f"no power up to {power_cap} contracts against the dilation growth")
    verdict = "C1" if (isotropy.verdict == "yes"
                       and convergence.verdict == "convergent"
                       and in_z1 and certificate) else "inconclusive"
    return SmoothnessReport(verdict=verdict, isotropy=isotropy,
                            convergence=convergence, in_order1_class=in_z1,
                            certificate_power=certificate, products=products,
                            reasons=reasons, difference_mask=T,
                            second_difference_mask=Q)


def refine(t: TrigPoly, ctx: DilationContext, f: Sequence,
           rounds: int) -> tuple[Sequence, list]:
    """Iterate the scheme and attach grid metadata: after the given number of
    rounds, the value at alpha approximates the limit at matrix^-rounds alpha."""
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    current = f
    for _ in range(rounds):
        current = apply(t, ctx, current)
    # matrix^-rounds = adjugate^rounds / det^rounds, so each grid point is an
    # integer vector over one integer denominator
    grid_num = matrix_power(ctx.adjugate, rounds)
    grid_den = ctx.det ** rounds
    points = [(tuple(Fraction(x, grid_den) for x in mat_vec(grid_num, alpha)), vec)
              for alpha, vec in sorted(current.support())]
    return current, points
