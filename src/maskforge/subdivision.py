"""Subdivision operators, their norms, and convergence / C1 verdicts.

A mask (scalar or matrix of masks) acts on finitely supported sequences by

    (S f)_alpha = sum_beta A_(alpha - M beta) f_beta,

where the coefficients A are read straight off the mask's frequency support
(coefficient at frequency alpha acts at offset alpha).  Read as Laurent
polynomials, with f_beta the coefficient at frequency beta, one step is the
symbol product A(x) F(transpose(M) x), and a backward difference along axis
k is the product with 1 - z_k; both are computed in the TrigPoly ring.  The
difference scheme of a decomposed mask satisfies the exact operator identity

    grad(S_t f) = S_T grad(f),      T[k][j] = entry(j, k),

which is what ties decompositions to convergence; one more decomposition
level gives grad(S_T g) = S_Q grad(g).  Norm verdicts are certified: an
operator norm below 1 is claimed only when the whole enclosing interval is.
The certificate search of a rational scheme runs in integers: each power's
symbol is held as integer numerators over one denominator D^L, and its norm
is one Fraction; cyclotomic schemes take operator_powers and operator_norm,
the reference both paths are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from numbers import Rational
from operator import add, index

from .cyclotomic import CyclotomicNumber, magnitude_sum
from .decompose import (MaskDecomposition, decompose_to_class,
                        plain_difference)
from .errors import MaskforgeError, ShapeMismatch
from .intervals import RatInterval, interval_max
from .lattice import (DilationContext, IsotropyReport, adjugate, coset_key,
                      determinant, is_isotropic, mat_mul, mat_vec,
                      matrix_power, power_inf_norm, transpose)
from .sumrules import sum_rule_order
from .trigpoly import TrigPoly

DEFAULT_POWER_CAP = 8
# largest sum-rule order check_convergence scans for (its report prints the
# capped order)
ORDER_SCAN_CAP = 3


def _simplify(v):
    if isinstance(v, CyclotomicNumber) and v.is_rational():
        return v.rational_value()
    return v


class Sequence:
    """Finitely supported map from the integer lattice to exact vectors.

    Each lattice-point component must be an integer (operator.index: floats
    and Fractions raise TypeError), and each value an int, a Rational or a
    CyclotomicNumber (floats and strings raise TypeError)."""

    __slots__ = ("dim", "width", "values")

    def __init__(self, dim: int, width: int, values=None) -> None:
        self.dim = dim
        self.width = width
        clean = {}
        for alpha, vec in (values or {}).items():
            alpha = tuple(map(index, alpha))
            if len(alpha) != dim:
                raise ShapeMismatch("support point has wrong dimension")
            for v in vec:
                if not isinstance(v, (Rational, CyclotomicNumber)):
                    raise TypeError(f"sequence value {v!r} is not an exact number")
            vec = tuple(_simplify(Fraction(v) if isinstance(v, int) else v)
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
    """Rectangular array of integer-frequency masks: the symbol of a
    matrix subdivision operator, whose coefficient matrix at offset alpha
    holds each entry's coefficient at frequency alpha."""

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
                if entry.dim != self.dim:
                    raise ShapeMismatch("mixed dimensions in matrix mask")

    @classmethod
    def from_scalar(cls, t: TrigPoly) -> "MatrixMask":
        return cls([[t]])

    @classmethod
    def from_decomposition(cls, dec: MaskDecomposition) -> "MatrixMask":
        """Difference-scheme symbol: row k, column j holds entry(j, k)."""
        return cls(dec.symbol_matrix())

    def entry(self, i: int, j: int) -> TrigPoly:
        return self.entries[i][j]

    def coefficient_support(self) -> set:
        out = set()
        for row in self.entries:
            for entry in row:
                out.update(entry.terms.keys())
        return out

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


def _integer_entries(mask: MatrixMask) -> tuple[int, list]:
    """(D, numerators) of a rational mask: D the common denominator of its
    coefficients and, per entry, {frequency: integer numerator over D}.
    Rationals held at a field order above 1 are read through coords[0]."""
    values = [[{alpha: c.rational_value() for alpha, c in entry.terms.items()}
               for entry in row] for row in mask.entries]
    den = lcm(*(c.denominator for row in values for entry in row
                for c in entry.values()))
    return den, [[{alpha: c.numerator * (den // c.denominator)
                   for alpha, c in entry.items()} for entry in row]
                 for row in values]


def _apply_rational(mask: MatrixMask, matrix, f: Sequence) -> Sequence:
    """Fraction-free apply: the coefficients are integers n over their common
    denominator D_a, the samples integers p over D_f, and each output value is
    built once as (sum of n * p) / (D_a * D_f)."""
    d_a, numerators = _integer_entries(mask)
    by_offset: dict[tuple, list] = {}
    for i, row in enumerate(numerators):
        for j, entry in enumerate(row):
            for alpha, n in entry.items():
                by_offset.setdefault(alpha, []).append((i, j, n))
    kernel = list(by_offset.items())
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
    """apply as the symbol product mask(x) @ F(transpose(matrix) x), with F
    the column of f's component polynomials; the reference the integer kernel
    is tested against."""
    column = MatrixMask([[poly] for poly in _component_polys(f)])
    product = mask.matmul_dilated(column, matrix)
    return _from_component_polys(f.dim, [row[0] for row in product.entries])


def _component_polys(f: Sequence) -> list[TrigPoly]:
    """One polynomial per component of f, with f_beta at frequency beta."""
    return [TrigPoly(f.dim, {beta: vec[i] for beta, vec in f.values.items()})
            for i in range(f.width)]


def _from_component_polys(dim: int, polys) -> Sequence:
    """The sequence whose component i is polys[i] (inverse of _component_polys)."""
    support = dict.fromkeys(itertools.chain.from_iterable(p.terms for p in polys))
    return Sequence(dim, len(polys), {
        alpha: tuple(p.terms.get(alpha, 0) for p in polys) for alpha in support})


def gradient(f: Sequence) -> Sequence:
    """Backward-difference stack: for each input component, its d differences.

    Output width is d * width; block i (of size d) holds the differences of
    component i, difference axis fastest.  Each difference is the product of
    the component polynomial with 1 - z_axis.
    """
    d = f.dim
    diffs = [plain_difference(d, axis) for axis in range(1, d + 1)]
    return _from_component_polys(d, [poly * diff for poly in _component_polys(f)
                                     for diff in diffs])


def coset_coefficient_sums(mask, ctx: DilationContext) -> list:
    """For each digit: the exact (signed) sum of coefficient matrices over its
    coset, the value at 0 of each entry's polyphase component.  For a
    difference scheme of a normalized order-1 mask these all equal the
    inverse-transpose dilation matrix."""
    splits = [[entry.polyphase_split(ctx) for entry in row]
              for row in _as_matrix_mask(mask).entries]
    return [[[parts[nu].value_at_zero() for parts in row] for row in splits]
            for nu in range(ctx.m)]


def operator_norm(mask, dilation, precision_bits: int = 128) -> RatInterval:
    """The exact sup-operator norm: max over cosets of the max row sum of the
    entrywise coefficient-magnitude sums.

    Exact rational for rational coefficients, otherwise a certified interval.
    """
    mask = _as_matrix_mask(mask)
    best = RatInterval.exact(0)
    memo: dict = {}  # each distinct value is enclosed once per call
    for alphas in _cosets(mask.coefficient_support(), _dilation_matrix(dilation)):
        for row in mask.entries:
            row_sum = magnitude_sum((entry.terms[alpha] for entry in row
                                     for alpha in alphas if alpha in entry.terms),
                                    precision_bits, memo)
            best = interval_max([best, row_sum])
    return best


def _cosets(support, matrix):
    """The frequencies of the support grouped by their coset of matrix Z^d."""
    adj, modulus = adjugate(matrix), abs(determinant(matrix))
    groups: dict[tuple, list] = {}
    for alpha in support:
        groups.setdefault(coset_key(adj, modulus, alpha), []).append(alpha)
    return groups.values()


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


def _rational_norms(scheme: MatrixMask, matrix, cap: int):
    """Yield (L, exact operator norm of the L-fold operator), L = 1..cap, for
    a rational square scheme: the operator_powers trajectory in integers.

    The L-fold symbol is held as integer numerators over D^L, D the common
    denominator of the scheme; each power is formed only when requested, and
    its norm is the largest coset row sum of |numerator| over D^L."""
    den, base = _integer_entries(scheme)
    power, step = base, matrix
    for L in range(1, cap + 1):
        if L > 1:
            power = _dilated_product(power, base, step)
            step = mat_mul(step, matrix)
        support = set().union(*(entry for row in power for entry in row))
        best = max((sum(abs(entry.get(alpha, 0)) for entry in row for alpha in alphas)
                    for alphas in _cosets(support, step) for row in power), default=0)
        yield L, RatInterval.exact(Fraction(best, den ** L))


def _dilated_product(left: list, right: list, dilation) -> list:
    """left(x) @ right(transpose(dilation) x) on {frequency: integer} entries:
    each output entry is summed into one dict, zero sums dropped."""
    dilated = [[[(mat_vec(dilation, g), n) for g, n in entry.items()] for entry in row]
               for row in right]
    out = []
    for left_row in left:
        out_row = []
        for j in range(len(right[0])):
            acc: dict[tuple, int] = {}
            for left_entry, right_row in zip(left_row, dilated):
                right_entry = right_row[j]
                for f, a in left_entry.items():
                    for g, b in right_entry:
                        freq = tuple(map(add, f, g))
                        acc[freq] = acc.get(freq, 0) + a * b
            out_row.append({freq: n for freq, n in acc.items() if n})
        out.append(out_row)
    return out


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
    # block (k, j) is the difference-scheme symbol of entry (k, j)
    blocks = [[decompose_to_class(T.entry(k, j), ctx, 0).symbol_matrix()
               for j in range(d)] for k in range(d)]
    return MatrixMask([[q for block in block_row for q in block[kappa]]
                       for block_row in blocks for kappa in range(d)])


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


def _certificate_search(scheme: MatrixMask, ctx: DilationContext, power_cap: int,
                        precision_bits: int, growth=None) -> tuple[list, int | None]:
    """([(L, bound)], first L whose bound is certified below 1, or None).

    The bound of the L-fold operator is its operator norm, times the
    infinity norm of growth^L when a growth matrix is given; the search stops
    at the first certified power or at power_cap."""
    if scheme.is_rational():
        norms = _rational_norms(scheme, ctx.matrix, power_cap)
    else:
        norms = ((L, operator_norm(symbol, dilation, precision_bits))
                 for L, symbol, dilation in operator_powers(scheme, ctx, power_cap))
    bounds = []
    for L, bound in norms:
        if growth is not None:
            bound = bound * power_inf_norm(growth, L)
        bounds.append((L, bound))
        if bound.certified_below(1):
            return bounds, L
    return bounds, None


def check_convergence(t: TrigPoly, ctx: DilationContext,
                      power_cap: int = DEFAULT_POWER_CAP,
                      precision_bits: int = 128) -> ConvergenceReport:
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
    order = sum_rule_order(t, ctx, cap=ORDER_SCAN_CAP)
    in_z0 = order >= 0
    if not in_z0:
        reasons.append("mask is not in the order-0 sum-rule class")
    T = None
    norms = []
    certificate = None
    if in_z0:
        T = MatrixMask.from_decomposition(decompose_to_class(t, ctx, order))
        norms, certificate = _certificate_search(T, ctx, power_cap, precision_bits)
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
        products, certificate = _certificate_search(
            Q, ctx, power_cap, precision_bits, growth=transpose(ctx.matrix))
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
