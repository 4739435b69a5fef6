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
The certificate search runs one power loop in integers for every
coefficient field: each power's symbol is held as integer numerators over
one denominator D^L at the scheme's field order N (N = 1 for a rational
scheme), each coefficient labelled with the order the TrigPoly fold of
MatrixMask.matmul_dilated holds it at, because a certified magnitude depends
on that order.  Past L = 1 every frequency is one int code on one box, of
min(cap, FIRST_BOX_POWERS) powers and then twice as many, so a pair product
is placed with one int add.  One norm serves every power and operator_norm:
in one pass over each entry's terms it sums rational magnitudes per row and
coset exactly, finds each distinct frequency's coset once, and encloses
each distinct non-rational value once.  A power whose pair products would
pass PRODUCT_BUDGET is not formed: the search stops before it, inconclusive.

apply has two paths.  Scalar rational data held as an IntSequence, under a
rational scalar mask, run one integer kernel (_subdivide) on points held
as one coordinate list per axis: a round codes the data's points on a box
with one map per axis, sums the products under int codes, and decodes the
codes that carry a nonzero sum back into coordinate lists, each coordinate
int shared through a dict of the distinct digits, so a round's memory
follows the support, not the span of the box.  refine's rounds, each one
apply, build no point tuple.  Every Sequence, rational or not, of any
width, takes the exact reference path, the symbol product of
MatrixMask.matmul_dilated; IntSequence.from_sequence takes rational scalar
data to the kernel.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import add, index, mul
from typing import NamedTuple

from .cyclotomic import (_F0, CyclotomicNumber, _canonical, _reduce_coords,
                         max_magnitude_sum)
from .decompose import (MaskDecomposition, _next_level, _symbol_matrix,
                        decompose_to_class, plain_difference)
from .errors import PRODUCT_BUDGET, BudgetExceeded, ShapeMismatch
from .intervals import RatInterval
from .lattice import (DilationContext, DilationPower, IsotropyReport, _Box,
                      dilation_power, dots, is_isotropic, mat_vec,
                      matrix_power)
from .sumrules import sum_rule_order
from .trigpoly import TrigPoly, _merge_vectors

DEFAULT_POWER_CAP = 8
# the powers the first box of the power loop holds: a box sized for a large
# cap would make every code a long int, so the box grows as powers pass it
FIRST_BOX_POWERS = 4
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
            vec = tuple(_simplify(Fraction(int(v.numerator), int(v.denominator))
                                  if isinstance(v, Rational) else v) for v in vec)
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

    __slots__ = ("rows", "cols", "dim", "entries", "_kernel")

    def __init__(self, entries) -> None:
        self.entries = [list(row) for row in entries]
        self._kernel = None
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

    def is_rational(self) -> bool:
        return all(entry.is_rational() for row in self.entries for entry in row)

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


def apply(mask, dilation, f):
    """One subdivision step: (S f)_alpha = sum A_(alpha - M beta) f_beta.

    Two paths give the same sequence.  An IntSequence, under a rational
    scalar mask, is stepped by the integer kernel (_subdivide) on its
    coordinate lists: the result is the IntSequence of S f over
    f.den * D_a, with no Fraction and no point tuple built.  Every Sequence,
    of any width and over any field, takes the exact reference path
    (_apply_generic), one exact value at a time; IntSequence.from_sequence
    takes rational scalar data to the kernel."""
    mask = _as_matrix_mask(mask)
    matrix = _dilation_matrix(dilation)
    if isinstance(f, IntSequence):
        kernel = _kernel(mask)
        axes, values = _subdivide(kernel, matrix, f.axes, f.values)
        return IntSequence(f.dim, f.den * kernel.den, axes, values)
    if mask.cols != f.width:
        raise ShapeMismatch(f"mask expects width {mask.cols}, sequence has {f.width}")
    return _apply_generic(mask, matrix, f)


class IntSequence(NamedTuple):
    """Scalar rational data held in integers, on coordinate lists: the k-th
    point alpha of the support is (axes[0][k], ..., axes[dim-1][k]), and
    values[k] is a nonzero int n, the value at alpha being n / den.

    The points run in lattice order (lexicographic), each once:
    from_sequence sorts the data once, and an integer apply round emits its
    sums in that order."""
    dim: int
    den: int
    axes: list
    values: list

    @classmethod
    def from_sequence(cls, f: Sequence) -> "IntSequence":
        """f's values as integer numerators over their common denominator, in
        lattice order."""
        if f.width != 1:
            raise ShapeMismatch(f"integer data is scalar, got width {f.width}")
        if not all(isinstance(v, Rational) for (v,) in f.values.values()):
            raise TypeError("integer data needs rational values")
        den = lcm(*(v.denominator for (v,) in f.values.values()))
        rows = sorted(f.values.items())  # the points are distinct keys
        axes = list(zip(*(alpha for alpha, _ in rows))) or [()] * f.dim
        return cls(f.dim, den, axes,
                   [v.numerator * (den // v.denominator) for _, (v,) in rows])

    def to_sequence(self) -> Sequence:
        return Sequence._trusted(self.dim, 1, {
            alpha: (Fraction(n, self.den),)
            for alpha, n in zip(zip(*self.axes), self.values)})


class _Kernel(NamedTuple):
    """A rational scalar mask in integers: terms lists (alpha, n) for each
    coefficient n / den at offset alpha."""
    den: int
    terms: list


def _kernel(mask: MatrixMask) -> _Kernel:
    """The mask in integers, built once per mask object: raises ShapeMismatch
    unless the mask is scalar and TypeError unless it is rational."""
    if mask._kernel is None:
        if (mask.rows, mask.cols) != (1, 1):
            raise ShapeMismatch("integer data needs a scalar mask")
        if not mask.is_rational():
            raise TypeError("the integer kernel needs a rational mask")
        symbol = _numerators(mask)  # N = 1: one class of numerators
        ((entry,),) = symbol.entries
        mask._kernel = _Kernel(symbol.den, [term for terms in entry.values()
                                            for term in terms.items()])
    return mask._kernel


def _subdivide(kernel: _Kernel, matrix, axes: list,
               values: list) -> tuple[list, list]:
    """One subdivision round in integers.  The data's points come as one
    coordinate list per axis, each with a nonzero numerator in values, over
    one denominator D.  The result is (axes, values): the points where the
    sum of n * p is nonzero, as coordinate lists in lattice order, and that
    sum at each of them, over kernel.den * D.

    Each lattice point is coded on a _Box that holds every target
    alpha + matrix beta: the codes of the matrix betas are formed with one
    map per axis, and a product is placed with one int add and summed under
    its code, which _Box.points decodes once, after the sums."""
    if not kernel.terms or not values:
        return [[] for _ in axes], []
    offsets = [alpha for alpha, _ in kernel.terms]
    reach = [max(max(xs), -min(xs)) for xs in axes]
    radius = [sum(abs(m) * r for m, r in zip(row, reach)) for row in matrix]
    lo = [min(x) - r for x, r in zip(zip(*offsets), radius)]
    hi = [max(x) + r for x, r in zip(zip(*offsets), radius)]
    box = _Box.spanning(lo, hi)
    terms = [(box.code(alpha), n) for alpha, n in kernel.terms]
    sums = defaultdict(int)
    for c, p in zip(dots(axes, box.columns(matrix)), values):
        for a, n in terms:
            sums[a + c] += n * p
    codes = sorted(itertools.compress(sums, sums.values()))  # lattice order
    values = list(map(sums.__getitem__, codes))
    sums.clear()  # the table is freed before the points are built
    return box.points(codes), values


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
    """The sequence whose component i is polys[i] (inverse of
    _component_polys), each value built once from its polynomial's integer
    vector: reduced at its label, then one Fraction when it is rational and
    one CyclotomicNumber otherwise, as Sequence holds values."""
    components = [{f: _sequence_value(_canonical(vec, p.field, label), label,
                                      p.den)
                   for f, (vec, label) in p.vectors.items()} for p in polys]
    support = dict.fromkeys(itertools.chain.from_iterable(components))
    return Sequence._trusted(dim, len(polys), {
        alpha: tuple(c.get(alpha, _F0) for c in components) for alpha in support})


def _sequence_value(coords: tuple, order: int, den: int):
    """The value of integer coords over den, canonical at order."""
    if any(coords[1:]):
        return CyclotomicNumber(
            order, [Fraction(c, den) if c else _F0 for c in coords], reduce=False)
    return Fraction(coords[0], den)


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


def operator_norm(mask, dilation, precision_bits: int = 128) -> RatInterval:
    """The exact sup-operator norm: max over cosets of the max row sum of the
    entrywise coefficient-magnitude sums.

    Exact rational for rational coefficients, otherwise a certified interval.
    """
    return _norm(_numerators(_as_matrix_mask(mask)),
                 dilation_power(_dilation_matrix(dilation), 1), precision_bits)


class _Numerators(NamedTuple):
    """A matrix symbol in integers.  entries[i][j] maps each (label,
    position) class to {freq: n}: the coefficient at freq is the sum of
    n * zeta_N^position over the classes that hold freq, as numerators over
    `den` at N = `field`.  The classes that hold freq share its label, the
    order the TrigPoly fold holds the value at, which every nonzero
    position's order divides.  Each freq is a point tuple, or its int code
    on `box` when there is one."""
    field: int
    den: int
    entries: list
    box: _Box | None = None


def _numerators(mask: MatrixMask) -> _Numerators:
    """The mask's values read at their labels and reduced (_canonical), at
    the lcm N of the labels over the common denominator D.  A rational mask
    is held at N = 1: its products are rational, and the norm of a rational
    value does not depend on the order it is held at."""
    common = lcm(*(entry.den for row in mask.entries for entry in row))
    values = [[[(f, label, [x * (common // entry.den)
                            for x in _canonical(vec, entry.field, label)])
                for f, (vec, label) in entry.vectors.items()] for entry in row]
              for row in mask.entries]
    flat = [value for row in values for entry in row for value in entry]
    rational = not any(any(coords[1:]) for *_, coords in flat)
    field = 1 if rational else lcm(*(label for _, label, _ in flat))
    g = gcd(common, *(x for *_, coords in flat for x in coords))
    entries = [[{} for _ in row] for row in values]
    for row, out_row in zip(values, entries):
        for entry, classes in zip(row, out_row):
            for freq, label, coords in entry:
                order = 1 if rational else label  # a rational is read as coords[0]
                for i, x in enumerate(coords[:order]):
                    if x:
                        classes.setdefault((order, i * (field // order)), {})[freq] = x // g
    return _Numerators(field, common // g, entries)


def _support(symbol: _Numerators) -> set:
    """Every frequency that carries a class term in some entry."""
    return set().union(*(terms for row in symbol.entries for entry in row
                         for terms in entry.values()))


def _norm(symbol: _Numerators, power: DilationPower,
          precision_bits: int) -> RatInterval:
    """operator_norm of a symbol in integers, acting with the matrix of
    power, in one pass over each entry's terms: per row and coset of
    matrix Z^d, the rational magnitudes are summed as one integer and the
    other values gathered.  max_magnitude_sum encloses those rows in
    descending order of their keys (the smaller of the integer bound, the
    integers plus each value's sum of |coords| widened by its proved
    rounding margin, and a certified float estimate) and stops at the first
    whose key is below the best lower end or the best all-rational row:
    each distinct non-rational value it reaches is enclosed once per call,
    the rows past that point never.  An entry whose
    classes all sit at position 0 holds rational numerators as they are;
    any other entry's values are reduced once at their labels."""
    field, den, entries, box = symbol
    support = list(_support(symbol))
    coset = dict(zip(support, _coset_indices(support, power, box)))
    best = 0                      # the largest all-rational sum
    rows = []                     # the sums that hold other values
    for row in entries:
        exact = defaultdict(int)
        other = defaultdict(list)
        for entry in row:
            if all(p == 0 for _, p in entry):
                for terms in entry.values():
                    for c, n in zip(map(coset.__getitem__, terms),
                                    map(abs, terms.values())):
                        exact[c] += n
                continue
            for freq, value in _reduced(entry, field).items():
                if isinstance(value, int):
                    exact[coset[freq]] += abs(value)
                else:
                    other[coset[freq]].append(value)
        for c, values in other.items():
            values.append(exact.pop(c, 0))
            rows.append(values)
        best = max(best, max(exact.values(), default=0))
    rows.append([best])
    return max_magnitude_sum(rows, den, precision_bits)


def _reduced(entry: dict, field: int) -> dict:
    """{freq: value} of a class-form entry: a rational value as its integer
    numerator, any other as (label, its integer coords reduced at the label).

    Every class at a frequency shares its label, and a class (label, p)
    holds a power of zeta_label: each term is placed at p * label / field of
    its frequency's vector at the label, and each vector is reduced once.  A
    value whose coords reduce to zero, which Phi_field divides, is left
    out."""
    vectors: dict = {}
    for (label, p), terms in entry.items():
        i = p * label // field
        for freq, n in terms.items():
            vec = vectors.get(freq)
            if vec is None:
                vec = vectors[freq] = [0] * label
            vec[i] += n
    out = {}
    for freq, vec in vectors.items():
        label = len(vec)
        coords = _reduce_coords(vec, label)
        if any(coords[1:]):
            out[freq] = (label, coords)
        elif coords[0]:
            out[freq] = coords[0]
    return out


def _coset_indices(support: list, power: DilationPower, box: _Box | None) -> list:
    """For each point of the support (a tuple, or an int code on box), the
    index of its coset of matrix Z^d, matrix that of power: two points get
    one index exactly when they are congruent, that is when adj(matrix) x =
    adj(matrix) y mod |det|.

    That vector is packed as one int, a digit of radix (d + 1) |det| per
    component: the sum over the axes i of a table entry for x_i, the
    multiple x_i adj e_i with each component reduced mod |det|, one entry
    per distinct coordinate.  No digit of a sum of d entries carries, so
    each distinct sum is reduced once more, digit by digit, to the index."""
    adj, m = power.adjugate, abs(power.det)
    radix = (len(adj) + 1) * m
    if box is None:
        axes, offsets = list(zip(*support)), [0] * len(adj)
    else:
        axes, offsets = box.digits(support), box.lo
    packed = [0] * len(support)
    for column, coords, low in zip(zip(*adj), axes, offsets):
        table = {}
        for x in set(coords):
            digit = 0
            for a in reversed(column):
                digit = digit * radix + a * (x + low) % m
            table[x] = digit
        packed = list(map(add, packed, map(table.__getitem__, coords)))
    reduced = {}
    for p in set(packed):
        index, rest = 0, p
        for _ in adj:
            rest, digit = divmod(rest, radix)
            index = index * m + digit % m
        reduced[p] = index
    return list(map(reduced.__getitem__, packed))


def _powers(scheme: MatrixMask, matrix, cap: int):
    """Yield (L, symbol, matrix^L) for the L-fold operator, L = 1..cap, the
    int matrix's powers read from dilation_power.

    The symbol of the L-fold operator is the ordered product of the scheme
    with its images under increasing dilation powers, held as _Numerators
    over D^L; it acts with matrix^L.  Each product is formed only when its
    item is requested, so a consumer that stops early pays for no further
    power.  The first product codes the base on one _Box (_power_box) that
    holds every power up to min(cap, FIRST_BOX_POWERS), and later powers
    stay coded there; a power past it is formed from its predecessor
    re-coded on a box that holds twice as many powers (at most cap), so a
    large cap makes no code longer than the powers formed need.  L = 1
    keeps its point tuples.  A power whose pair products (_pair_products)
    would pass PRODUCT_BUDGET raises BudgetExceeded instead of being
    formed."""
    base = _numerators(scheme)
    power = base
    held = min(cap, FIRST_BOX_POWERS)
    for L in range(1, cap + 1):
        if L > 1:
            count = _pair_products(power, base)
            if count > PRODUCT_BUDGET:
                raise BudgetExceeded(
                    f"stopped before power L={L}: it would form {count} pair "
                    f"products, over the budget of {PRODUCT_BUDGET}")
            if power.box is None:
                power = _coded(base, _power_box(base, matrix, held))
            elif L > held:
                held = min(cap, 2 * held)
                power = _recoded(power, _power_box(base, matrix, held))
            power = _dilated_product(power, base,
                                     dilation_power(matrix, L - 1).matrix)
        yield L, power, dilation_power(matrix, L).matrix


def _pair_products(left: _Numerators, right: _Numerators) -> int:
    """The pair products _dilated_product(left, right, ...) forms: the sum
    over its output entries (i, j) of |left_ik| * |right_kj|, |entry| its
    class terms."""
    def sizes(symbol):
        return [[sum(map(len, entry.values())) for entry in row]
                for row in symbol.entries]
    # the sum over i, j, k is the sum over k of (column k of left's sizes)
    # times (row k of right's)
    return sum(sum(column) * sum(row)
               for column, row in zip(zip(*sizes(left)), sizes(right)))


def _power_box(base: _Numerators, matrix, cap: int) -> _Box:
    """The box that holds every power up to cap: power L's frequencies are
    sums f_0 + M f_1 + ... + M^(L-1) f_(L-1) of base frequencies, so its
    corner along each axis is the sum over l < L of the extreme of M^l S on
    that axis, S the base's support."""
    support = _support(base) or {(0,) * len(matrix)}
    low = high = [0] * len(matrix)
    lows, highs = [], []
    for exponent in range(cap):
        step = dilation_power(matrix, exponent).matrix
        images = list(zip(*(mat_vec(step, s) for s in support)))
        low = list(map(add, low, map(min, images)))
        high = list(map(add, high, map(max, images)))
        lows.append(low)
        highs.append(high)
    return _Box.spanning([min(x) for x in zip(*lows)],
                         [max(x) for x in zip(*highs)])


def _coded(symbol: _Numerators, box: _Box) -> _Numerators:
    """symbol with each point tuple replaced by its code on box."""
    return symbol._replace(box=box, entries=[
        [{key: {box.code(f): n for f, n in terms.items()}
          for key, terms in entry.items()} for entry in row]
        for row in symbol.entries])


def _recoded(symbol: _Numerators, box: _Box) -> _Numerators:
    """symbol, coded on a smaller box inside box, with each code decoded to
    its point's coordinate lists and coded on box, in code order."""
    def recoded(terms: dict) -> dict:
        codes = sorted(terms)
        axes = symbol.box.points(codes)
        return dict(zip(dots(axes, box.strides), map(terms.__getitem__, codes)))
    return symbol._replace(box=box, entries=[
        [{key: recoded(terms) for key, terms in entry.items()} for entry in row]
        for row in symbol.entries])


def _dilated_product(left: _Numerators, right: _Numerators,
                     dilation) -> _Numerators:
    """left(x) @ right(transpose(dilation) x), each coefficient labelled as
    MatrixMask.matmul_dilated's TrigPoly fold holds it; left is coded on its
    box, right holds point tuples, and the product is coded on left's box.

    A frequency f + dilation g of the product is placed as code(f) +
    g . box.columns(dilation), one int add.  The pair loop adds plain ints:
    the classes (la, p) and (lb, q) sum into the class (lcm(la, lb), p + q
    mod N).  The k-th products of an output entry are folded one at a time:
    a product's label at a frequency is the lcm of the classes that reach it,
    a product that vanishes modulo Phi_N is dropped, and so is a running sum
    that vanishes (trigpoly._merge_vectors), label and all.  When every class
    pair of the entry has one label, each product and running sum is held at
    it, so the products are summed as one and folded once."""
    field, box = left.field, left.box
    columns = box.columns(dilation)
    dilated = [[[(key, [(sum(map(mul, g, columns)), n) for g, n in terms.items()])
                 for key, terms in entry.items()] for entry in row]
               for row in right.entries]
    out = []
    for left_row in left.entries:
        out_row = []
        for j in range(len(dilated[0])):
            products = [(a.items(), row[j]) for a, row in zip(left_row, dilated)]
            labels = {lcm(la, lb) for a, b in products
                      for (la, _), _ in a for (lb, _), _ in b}
            runs = [products] if len(labels) == 1 else [[pair] for pair in products]
            total: dict = {}
            for run in runs:
                sums: dict = {}
                for left_classes, right_classes in run:
                    for (la, p), left_terms in left_classes:
                        for (lb, q), right_terms in right_classes:
                            key = (lcm(la, lb), (p + q) % field)
                            acc = sums.get(key)
                            if acc is None:
                                acc = sums[key] = {}
                            for f, a in left_terms.items():
                                for g, b in right_terms:
                                    c = f + g
                                    acc[c] = acc.get(c, 0) + a * b
                product = _fold(sums, field)
                total = _split(_vectors(field, total, product)) if total else product
            out_row.append(total)
        out.append(out_row)
    return _Numerators(field, left.den * right.den, out, box)


def _fold(sums: dict, field: int) -> dict:
    """The class form of one product from its class sums, values that
    vanish left out.  With one class every value is a monomial
    n * zeta_N^p, which vanishes only when n does."""
    if len(sums) == 1:
        ((key, acc),) = sums.items()
        terms = {freq: n for freq, n in acc.items() if n}
        return {key: terms} if terms else {}
    return _split(_vectors(field, sums))


def _vectors(field: int, *class_forms) -> dict:
    """{freq: (vec, label)} of the sum of class sums or class-form entries:
    each class term is a monomial vector, merged as the TrigPoly fold adds
    (trigpoly._merge_vectors), so a frequency's label is the lcm of the
    classes that hold it, and values that vanish are left out."""
    monomials = []
    for classes in class_forms:
        for (label, p), terms in classes.items():
            for freq, n in terms.items():
                vec = [0] * field
                vec[p] = n
                monomials.append((freq, (vec, label)))
    return _merge_vectors(field, monomials)


def _split(vectors: dict) -> dict:
    """The class form of {freq: (vec, label)}."""
    classes: dict = {}
    for freq, (vec, label) in vectors.items():
        for p, n in enumerate(vec):
            if n:
                classes.setdefault((label, p), {})[freq] = n
    return classes


def second_difference_scheme(T: MatrixMask, ctx: DilationContext) -> MatrixMask:
    """The d^2-by-d^2 mask Q with grad(S_T g) = S_Q grad(g).

    Requires every entry of T in the order-0 sum-rule class, which holds for
    the difference scheme of any order-1 mask; the entries are not scanned
    again.  Q is T's entries decomposed at class 0, the second level in
    Kronecker-power order (row blocks follow the gradient's component-major
    layout); decompose_levels lifts that level at orders 3 and above."""
    d = ctx.dim
    if (T.rows, T.cols) != (d, d):
        raise ShapeMismatch("second difference scheme needs a d-by-d mask")
    # T read back as the first level: T[k][j] = entry(j, k)
    first = {((j + 1,), (k + 1,)): T.entry(k, j) for k in range(d) for j in range(d)}
    return MatrixMask(_symbol_matrix(_next_level(first, ctx, 0), d, 2))


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
                        precision_bits: int,
                        growth: bool = False) -> tuple[list, int | None, str | None]:
    """([(L, bound)], first L whose bound is certified below 1 or None, why
    the search stopped short of power_cap or None).

    The bound of the L-fold operator is its operator norm, times the
    infinity norm of transpose(matrix)^L with growth; the search stops at
    the first certified power, at power_cap, or before a power whose pair
    products would pass PRODUCT_BUDGET.  Each power's adjugate, determinant
    and growth are read from dilation_power, formed once per process."""
    bounds = []
    try:
        for L, symbol, _ in _powers(scheme, ctx.matrix, power_cap):
            power = dilation_power(ctx.matrix, L)
            bound = _norm(symbol, power, precision_bits)
            if growth:
                bound = bound * power.transposed_norm
            bounds.append((L, bound))
            if bound.certified_below(1):
                return bounds, L, None
    except BudgetExceeded as stop:
        return bounds, None, str(stop)
    return bounds, None, None


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
        norms, certificate, stopped = _certificate_search(T, ctx, power_cap,
                                                          precision_bits)
        if certificate is None:
            reasons.append(stopped or f"no operator power up to {power_cap} "
                           "has norm certified below 1")
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
    Q = None
    products = []
    certificate = None
    if in_z1:
        Q = second_difference_scheme(convergence.difference_mask, ctx)
        products, certificate, stopped = _certificate_search(
            Q, ctx, power_cap, precision_bits, growth=True)
        if certificate is None:
            reasons.append(stopped or f"no power up to {power_cap} contracts "
                           "against the dilation growth")
    verdict = "C1" if (isotropy.verdict == "yes"
                       and convergence.verdict == "convergent"
                       and in_z1 and certificate) else "inconclusive"
    return SmoothnessReport(verdict=verdict, isotropy=isotropy,
                            convergence=convergence, in_order1_class=in_z1,
                            certificate_power=certificate, products=products,
                            reasons=reasons, second_difference_mask=Q)


class Refined(NamedTuple):
    """refine's result: the data after the rounds, whose value n / data.den
    at alpha sits at the grid point mat_vec(grid, alpha) / grid_den, which is
    matrix^-rounds alpha (grid = adjugate^rounds, grid_den = det^rounds).
    Data with no value have no grid point: grid and grid_den are None."""
    data: IntSequence
    grid: tuple | None
    grid_den: int | None


def refine(t: TrigPoly, ctx: DilationContext, f: Sequence,
           rounds: int) -> Refined:
    """Iterate the scheme on scalar rational data: after the given number of
    rounds, the value at alpha approximates the limit at matrix^-rounds alpha.

    Each round is one apply on integer numerators and coordinate lists, so
    the values stay over the one denominator D_a^rounds * D_f and no point
    tuple is built.  A round that would form more than PRODUCT_BUDGET
    products |supp f| * |supp t| raises BudgetExceeded before it starts.
    Once a round leaves no value, every later round would too: the
    denominator takes their factors D_a in one power and refine stops, and
    the grid, whose entries grow with the rounds, is not formed."""
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    mask = MatrixMask.from_scalar(t)
    data = IntSequence.from_sequence(f)
    for done in range(rounds):
        size = len(data.values) * len(t.vectors)
        if size > PRODUCT_BUDGET:
            raise BudgetExceeded(
                f"refine stopped after {done} of {rounds} rounds: round "
                f"{done + 1} would form {size} products ({len(data.values)} "
                f"points x {len(t.vectors)} mask terms), over the budget of "
                f"{PRODUCT_BUDGET}")
        data = apply(mask, ctx, data)
        if not data.values:
            later = rounds - done - 1
            data = data._replace(den=data.den * _kernel(mask).den ** later)
            break
    if not data.values:
        return Refined(data, None, None)
    return Refined(data, matrix_power(ctx.adjugate, rounds), ctx.det ** rounds)
