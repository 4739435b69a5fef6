import itertools
import random
import tempfile
from fractions import Fraction
from math import lcm
from operator import add, mul

import mpmath
import pytest
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from mpmath import iv

from maskforge import decompose, lattice, sumrules
from maskforge.cyclotomic import (CyclotomicNumber, _canonical, coerce,
                                  cyclotomic_polynomial, exp_of_rational,
                                  _dyadic, _dyadic_add, _F0,
                                  magnitude_interval, root_of_unity)
from maskforge.decompose import (MaskDecomposition, decompose_levels,
                                 dilated_difference)
from maskforge.errors import NotInClass, ShapeMismatch
from maskforge.intervals import RatInterval
from maskforge.maskfile import format_ratio
from maskforge.lattice import (ISOTROPY_PROBE_DEPTH, DilationContext,
                               adjugate, coset_key, determinant, inf_norm,
                               mat_mul, mat_vec, matrix_power, transpose)
from maskforge.subdivision import (MatrixMask, Sequence, _as_matrix_mask,
                                   _dilation_matrix, _fold, _Numerators,
                                   _numerators, _split, _vectors)
from maskforge.sumrules import (DerivativeTable, _direct_kernel,
                                digit_interpolant, mask_from_derivative_table,
                                multi_indices, multi_indices_up_to,
                                sum_rule_order, unit_derivative_poly)
from maskforge.trigpoly import (TrigPoly, _merge_vectors, _point_moments,
                                _point_orders, _vanishes)

# hypothesis keeps caches under its home directory, ./.hypothesis by default;
# a temporary one keeps the tests from writing into the source tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="maskforge-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

EXAMPLE_DILATION = ((0, 2), (2, -1))
EXAMPLE_DIGITS = ((0, 0), (1, 0), (0, 1), (1, 1))

# polyphase coefficients of the worked 2-d example mask, times 16
EXAMPLE_POLYPHASE_16 = [
    {(0, 0): 4, (1, 0): 4, (0, 1): 4, (1, 1): 4},
    {(0, 0): 5, (1, 0): 4, (-1, 0): 1, (0, 1): 2, (0, -1): 3, (1, 1): 1},
    {(0, 0): 4, (1, 0): 1, (-1, 0): 2, (0, 1): 5, (0, -1): 1, (1, 1): 3},
    {(0, 0): 5, (1, 0): 1, (-1, 0): 4, (0, 1): 1, (0, -1): 3, (1, 1): 1,
     (-1, 1): 1},
]


@pytest.fixture(autouse=True)
def fresh_dilation_caches():
    """Empty every per-process cache of dilation-only data before each test:
    a test then forms what it patches or counts itself, whatever ran before
    it."""
    for cached in (lattice._shared_context, lattice._isotropy,
                   lattice.dilation_power, sumrules._digit_interpolants,
                   sumrules._polyphase_weights, decompose._star_points):
        cached.cache_clear()


@pytest.fixture(scope="session")
def example_ctx() -> DilationContext:
    return DilationContext.create(EXAMPLE_DILATION, digits=EXAMPLE_DIGITS)


@pytest.fixture(scope="session")
def example_polyphase(example_ctx):
    return [TrigPoly(2, {f: Fraction(c, 16) for f, c in part.items()})
            for part in EXAMPLE_POLYPHASE_16]


@pytest.fixture(scope="session")
def example_mask(example_ctx, example_polyphase) -> TrigPoly:
    return TrigPoly.polyphase_assemble(example_polyphase, example_ctx)


# -- random dilations, shared by the properties over dimensions 1-3 ----------

KNOWN_DILATIONS = [
    ((2,),), ((3,),), ((-2,),),
    EXAMPLE_DILATION, ((1, 1), (-1, 1)), ((2, 0), (0, 2)), ((1, -2), (2, 1)),
    ((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((0, 0, 2), (1, 0, 0), (0, 1, 0)),
    # companion of x^3 - 2x^2 - x + 3: det -3, eigenvalues of unequal moduli
    ((0, 0, -3), (1, 0, 1), (0, 1, 2)),
]


@st.composite
def dilations(draw, dim):
    """An expanding integer matrix: a known dilation, or a triangular matrix
    with diagonal entries of modulus at least 2 conjugated by an integer
    shear (same eigenvalues, integer inverse of the shear)."""
    known = [m for m in KNOWN_DILATIONS if len(m) == dim]
    if draw(st.booleans()):
        return draw(st.sampled_from(known))
    diag = draw(st.lists(st.sampled_from([-3, -2, 2, 3]), min_size=dim,
                         max_size=dim))
    tri = [[diag[i] if i == j else
            (draw(st.integers(-2, 2)) if j > i else 0)
            for j in range(dim)] for i in range(dim)]
    if dim == 1:
        return tuple(map(tuple, tri))
    i, j = draw(st.sampled_from([(a, b) for a in range(dim)
                                 for b in range(dim) if a != b]))
    c = draw(st.integers(-2, 2))
    shear = [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(dim)]
             for r in range(dim)]
    unshear = [[int(r == s) - (c if (r, s) == (i, j) else 0) for s in range(dim)]
               for r in range(dim)]
    return mat_mul(mat_mul(shear, tri), unshear)


def rationals():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def points(dim, span=3):
    return st.tuples(*[st.integers(-span, span)] * dim)


CASES = pytest.mark.parametrize("dim, positive", [
    (dim, positive) for dim in (1, 2, 3) for positive in (True, False)])


def signed(matrix, positive):
    """The matrix, negated in odd dimensions when its determinant has the
    other sign (negation keeps it expanding)."""
    if len(matrix) % 2 and (determinant(matrix) > 0) != positive:
        return tuple(tuple(-x for x in row) for row in matrix)
    return matrix


def contexts(dim, positive):
    """Dilations with a determinant of the given sign and |det| <= 8, which
    keeps a built order-2 mask in three dimensions to a few hundred terms."""
    return dilations(dim).map(lambda matrix: signed(matrix, positive)).filter(
        lambda matrix: 0 < determinant(matrix) * (1 if positive else -1) <= 8
    ).map(DilationContext.create)


def dual_context(ctx: DilationContext) -> DilationContext:
    """The context of the transposed dilation with ctx's dual digits, whose
    cosets are those of the dual lattice."""
    return DilationContext.create(transpose(ctx.matrix), digits=ctx.dual_digits)


def matrix_inverse(matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix with integer or rational entries, by
    Gauss-Jordan elimination in Fractions: the oracle for the library's
    adjugate over det."""
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] +
           [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def fraction_inverse(ctx: DilationContext):
    """The dilation's inverse in Fractions, the oracle for the library's
    adjugate over det."""
    return matrix_inverse(ctx.matrix)


def digit_fractions(ctx: DilationContext):
    """The points inverse @ digit, one per digit; denominators divide m."""
    inverse = fraction_inverse(ctx)
    return tuple(mat_vec(inverse, s) for s in ctx.digits)


def similarity_reference(matrix) -> Fraction:
    """max over k <= ISOTROPY_PROBE_DEPTH of |M^k| * |M^-k|, each power of the
    Fraction inverse raised from scratch: the oracle for is_isotropic."""
    inverse = matrix_inverse(matrix)
    return max(Fraction(inf_norm(matrix_power(matrix, k))
                        * inf_norm(matrix_power(inverse, k)))
               for k in range(1, ISOTROPY_PROBE_DEPTH + 1))


def characteristic_values_hold(matrix, chi) -> bool:
    """chi(k) == det(k*identity - matrix) for k = 0..d: the d + 1 values fix
    a polynomial of degree d, so this is the oracle for
    characteristic_polynomial."""
    d = len(matrix)
    return len(chi) == d + 1 and all(
        sum(c * k ** j for j, c in enumerate(chi)) == determinant(
            [[k * (i == j) - x for j, x in enumerate(row)]
             for i, row in enumerate(matrix)])
        for k in range(d + 1))


def coset_fraction_key(inverse, vec) -> tuple[Fraction, ...]:
    """Fractional part of inverse @ vec; equal keys mean congruent vectors."""
    out = []
    for x in mat_vec(inverse, vec):
        x = Fraction(x)
        out.append(Fraction(x.numerator % x.denominator, x.denominator))
    return tuple(out)


def fraction_derivative(terms, beta, point) -> CyclotomicNumber:
    """Sum of coeff * freq^beta * e^(2*pi*i*(freq, point)) over (rational
    freq, coeff) pairs, folded term by term in Fractions: one product, one
    promotion and one reduction per term."""
    acc = CyclotomicNumber.zero()
    for freq, coeff in terms:
        factor = Fraction(1)
        for n, b in zip(freq, beta):
            if b:
                factor *= Fraction(n) ** b
        if not factor:
            continue
        turns = sum((Fraction(n) * Fraction(p) for n, p in zip(freq, point)),
                    start=Fraction(0))
        acc = acc + coeff * factor * exp_of_rational(turns)
    return acc


def fraction_dilated_derivative(t: TrigPoly, inverse, beta, point) -> CyclotomicNumber:
    """The normalized beta-derivative of t(inverse-transpose x) at the point,
    from the rational frequencies inverse @ freq."""
    return fraction_derivative([(mat_vec(inverse, f), c) for f, c in t.terms.items()],
                               beta, point)


def random_mask(rng: random.Random, dim: int, n_terms: int = 6,
                freq_range: int = 3, denom_cap: int = 8) -> TrigPoly:
    terms = {}
    for _ in range(n_terms):
        freq = tuple(rng.randint(-freq_range, freq_range) for _ in range(dim))
        terms[freq] = Fraction(rng.randint(-9, 9), rng.randint(1, denom_cap))
    return TrigPoly(dim, terms)


def random_class_mask(rng: random.Random, ctx: DilationContext,
                      order: int) -> TrigPoly:
    """Random mask satisfying the order-n sum rules with value m at 0."""
    values = {}
    for beta in multi_indices_up_to(ctx.dim, order):
        values[beta] = CyclotomicNumber.from_rational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    values[(0,) * ctx.dim] = CyclotomicNumber.from_rational(ctx.m)
    table = DerivativeTable(dim=ctx.dim, order=order, values=values)
    return mask_from_derivative_table(ctx, table)


def random_cyclotomic_class_mask(rng: random.Random, ctx: DilationContext,
                                 order: int, roots: tuple) -> TrigPoly:
    """Random mask satisfying the order-n sum rules with value m at 0 whose
    other table entries are a rational plus a rational multiple of a
    primitive root of unity; the orders of the roots cycle through `roots`
    (each a prime, so every nonzero power is primitive)."""
    values = {}
    for index, beta in enumerate(multi_indices_up_to(ctx.dim, order)):
        root = roots[index % len(roots)]
        values[beta] = (CyclotomicNumber.from_rational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            + root_of_unity(root, rng.randint(1, root - 1))
            * Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
    values[(0,) * ctx.dim] = CyclotomicNumber.from_rational(ctx.m)
    table = DerivativeTable(dim=ctx.dim, order=order, values=values)
    return mask_from_derivative_table(ctx, table)


def random_sequence(rng: random.Random, dim: int, width: int = 1,
                    n_points: int = 6, span: int = 4) -> "Sequence":
    from maskforge.subdivision import Sequence
    values = {}
    for _ in range(n_points):
        alpha = tuple(rng.randint(-span, span) for _ in range(dim))
        values[alpha] = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                              for _ in range(width))
    return Sequence(dim, width, values)


# -- the CyclotomicNumber fold, the reference of the integer TrigPoly ---------

def fold(pairs) -> dict:
    """{freq: CyclotomicNumber} of (freq, CyclotomicNumber) pairs, as
    TrigPoly._from_pairs merged them when a TrigPoly held CyclotomicNumbers:
    values at one frequency added one CyclotomicNumber addition at a time in
    arrival order, sums that vanish dropped once every pair has been seen."""
    terms = {}
    for freq, coeff in pairs:
        terms[freq] = terms[freq] + coeff if freq in terms else coeff
    return {f: c for f, c in terms.items() if not c.is_zero()}


def fold_product(a: TrigPoly, b: TrigPoly) -> dict:
    """The pairwise product: one CyclotomicNumber product per pair of terms,
    folded in the order of the pairs."""
    return fold((tuple(x + y for x, y in zip(f, g)), c * e)
                for f, c in a.terms.items() for g, e in b.terms.items())


def fold_split(t: TrigPoly, ctx: DilationContext) -> list:
    """The polyphase components' terms, each folded from t's terms."""
    parts = [[] for _ in range(ctx.m)]
    for freq, coeff in t.terms.items():
        nu, base = ctx.base_point(freq)
        parts[nu].append((base, coeff))
    return [fold(part) for part in parts]


def fold_assemble(parts, ctx: DilationContext) -> dict:
    """The terms of the mask with the given polyphase components."""
    return fold((tuple(x + s for x, s in zip(mat_vec(ctx.matrix, f), digit)), c)
                for part, digit in zip(parts, ctx.digits)
                for f, c in part.terms.items())


def term_fields(terms: dict) -> list:
    """(freq, order, coords) per term in key order: == would promote across
    orders and hide a value held in the wrong field."""
    return [(f, c.order, c.coords) for f, c in terms.items()]


# -- the parse and reduction references of maskfile and cyclotomic -----------

def reference_reduce_coords(coords, order: int) -> tuple:
    """cyclotomic._reduce_coords as it was: top-down division by Phi_order,
    one multiple of Phi_order per nonzero coordinate from the top, the
    whole length-`order` vector returned (its tail zeroed)."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rem = list(coords)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = Fraction(0)
            for j in range(deg):
                rem[i - deg + j] -= c * phi[j]
    return tuple(rem)


def reference_scalar(value):
    """maskfile.parse_scalar as it was, for well-formed values: a Fraction,
    or a CyclotomicNumber of Fraction coords reduced top-down."""
    if not isinstance(value, dict):
        return Fraction(value)
    order = value["order"]
    coords = [Fraction(c) for c in value["coords"]]
    coords += [Fraction(0)] * (order - len(coords))
    return CyclotomicNumber(order, reference_reduce_coords(coords, order),
                            reduce=False)


def reference_mask_terms(payload: dict, dim: int) -> TrigPoly:
    """maskfile.mask_terms_from_json as it was, for well-formed payloads:
    one reference_scalar per value, merged by TrigPoly._from_pairs."""
    pairs = [(tuple(item["freq"]), reference_scalar(item["value"]))
             for item in payload["coefficients"]]
    return TrigPoly._from_pairs(dim, pairs)


# -- the TrigPoly telescoping, the reference of decompose._telescope ----------

class NotDivisible(ArithmeticError):
    """divide_one_minus_z met a line whose total does not vanish."""


def substitute_one(t: TrigPoly, j: int) -> TrigPoly:
    """Set z_j := 1 (axes numbered from 1), merging collided frequencies."""
    return TrigPoly._from_pairs(
        t.dim, ((f[: j - 1] + (0,) + f[j:], c) for f, c in t.terms.items()))


def divide_one_minus_z(t: TrigPoly, j: int) -> TrigPoly:
    """Exact quotient by (1 - z_j); raises NotDivisible on a remainder.

    Synthetic division along axis j over Laurent exponents: within each
    group of terms sharing the other coordinates, running sums give the
    quotient and the total must vanish.  The sums fold CyclotomicNumbers one
    addition at a time.
    """
    groups: dict[tuple, dict[int, CyclotomicNumber]] = {}
    for freq, coeff in t.terms.items():
        rest = freq[: j - 1] + freq[j:]
        groups.setdefault(rest, {})[freq[j - 1]] = coeff
    out = []
    for rest, line in groups.items():
        running = CyclotomicNumber.zero()
        for e in range(min(line), max(line)):
            running = running + line.get(e, CyclotomicNumber.zero())
            out.append((rest[: j - 1] + (e,) + rest[j - 1:], running))
        if not (running + line[max(line)]).is_zero():
            raise NotDivisible(f"remainder along axis {j}")
    return TrigPoly._from_pairs(t.dim, out)


def folded_plain_rows(t: TrigPoly, ctx: DilationContext) -> list:
    """The plain decomposition's entries rows[j-1][k-1] by TrigPoly
    subtraction, substitute_one and divide_one_minus_z, as decompose_to_class
    built them before it telescoped integer numerators."""
    d = ctx.dim
    taus = t.polyphase_split(ctx)
    tables = [[[None] * ctx.m for _ in range(d)] for _ in range(d)]
    for k in range(1, d + 1):
        e_k = tuple(int(i == k - 1) for i in range(d))
        for nu in range(ctx.m):
            n_star, q = ctx.base_point(
                tuple(s - e for s, e in zip(ctx.digits[nu], e_k)))
            shift = tuple(-x for x in q)
            remaining = taus[nu] - TrigPoly.monomial(d, shift) * taus[n_star]
            for j in range(1, d + 1):
                collapsed = substitute_one(remaining, j)
                tables[j - 1][k - 1][nu] = \
                    divide_one_minus_z(remaining - collapsed, j)
                remaining = collapsed
            assert remaining.is_zero()
    return [[TrigPoly.polyphase_assemble(tables[j][k], ctx) for k in range(d)]
            for j in range(d)]


# -- the tuple-keyed telescoping and the TrigPoly lift, the references of the
# -- int-coded decompose._telescope, _correction_block and _lift ---------------

def reference_telescope(t: TrigPoly, ctx: DilationContext) -> list:
    """decompose._telescope as it was before it coded points: the plain
    entries rows[j-1][k-1], telescoped per plain axis k and coset nu on
    tuple-keyed {freq: (vec, label)} dicts at t's field order, each value a
    vector however rational."""
    d, field = ctx.dim, t.field
    taus = [{} for _ in range(ctx.m)]
    for freq, slot in t.vectors.items():
        nu, base = ctx.base_point(freq)
        taus[nu][base] = slot
    tables = [[[None] * ctx.m for _ in range(d)] for _ in range(d)]
    for k in range(d):
        e_k = tuple(int(i == k) for i in range(d))
        for nu in range(ctx.m):
            n_star, q = ctx.base_point(tuple(x - e for x, e in zip(ctx.digits[nu], e_k)))
            remaining = _merge_vectors(field, taus[nu].items(), (
                (tuple(b - x for b, x in zip(base, q)), slot)
                for base, slot in taus[n_star].items()))
            for j in range(d):
                collapsed = _merge_vectors(field, (
                    (freq[:j] + (0,) + freq[j + 1:], slot)
                    for freq, slot in remaining.items()))
                tables[j][k][nu] = reference_divide_one_minus_z(
                    _merge_vectors(field, remaining.items(), collapsed.items()),
                    j, field)
                remaining = collapsed
            assert not remaining
    return [[TrigPoly._merged(d, field, t.den, (
        (tuple(x + s for x, s in zip(mat_vec(ctx.matrix, freq), digit)), slot)
        for part, digit in zip(parts, ctx.digits) for freq, slot in part.items()))
        for parts in row] for row in tables]


def reference_divide_one_minus_z(poly: dict, j: int, field: int) -> dict:
    """The exact quotient by (1 - z_(j+1)) of a {freq: (vec, label)} dict,
    by running sums along each line of frequencies that differ only at
    index j; a running sum is labelled with the lcm of the labels on its
    line up to its exponent, and sums that vanish are dropped."""
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
            raise NotDivisible(f"remainder along axis {j + 1}")
    return out


def reference_correction_block(kernel, ctx: DilationContext, order: int, l: int,
                               j: int) -> TrigPoly:
    """decompose._correction_block as it was: the corrections moving
    order-`order` residues of row l into row j as TrigPoly expressions,
    -(1/beta_j) * G(Mt x) * sum_nu H_nu(x) * w(beta, nu), each product, sum
    and compose_dilate folded by the TrigPoly ring."""
    d, (field, den, *_) = ctx.dim, kernel
    zero = (0,) * d
    total = TrigPoly.zero(d)
    for beta in multi_indices(d, order):
        if beta[j - 1] == 0 or any(beta[i - 1] for i in range(l + 1, j)):
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


def reference_lift(dec: MaskDecomposition, n_cap: int) -> MaskDecomposition:
    """decompose._lift as it was: reference_correction_block for each block
    and TrigPoly products for the row exchanges entries -+ delta * block."""
    ctx, d = dec.ctx, dec.ctx.dim
    entries = [[dec.entry(j, k) for k in range(1, d + 1)] for j in range(1, d + 1)]
    deltas = [dilated_difference(ctx, j) for j in range(1, d + 1)]
    for order in range(1, n_cap):
        for l in range(1, d):
            for k in range(1, d + 1):
                kernel = _direct_kernel(entries[l - 1][k - 1], ctx)
                for j in range(l + 1, d + 1):
                    block = reference_correction_block(kernel, ctx, order, l, j)
                    if block.is_zero():
                        continue
                    entries[l - 1][k - 1] = entries[l - 1][k - 1] - deltas[j - 1] * block
                    entries[j - 1][k - 1] = entries[j - 1][k - 1] + deltas[l - 1] * block
    return MaskDecomposition(
        source=dec.source, ctx=ctx, order=1, achieved_class=n_cap - 1,
        entries={((j + 1,), (k + 1,)): entries[j][k]
                 for j in range(d) for k in range(d)})


# -- the iv-context magnitude, the reference of cyclotomic._magnitude ---------

def _raw_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def reference_magnitude_interval(x, precision_bits=128) -> RatInterval:
    """magnitude_interval as it was: mpmath iv context objects at
    precision_bits + 16, each endpoint a Fraction via Fraction(2)**exp.  A
    negative lower end of |x|^2 is clamped to 0 below the upper end, taken
    unrounded at the working precision."""
    x = coerce(x)
    if x.is_rational():
        return RatInterval.exact(abs(x.coords[0]))
    old_prec = iv.prec
    try:
        iv.prec = precision_bits + 16
        re = iv.mpf(0)
        im = iv.mpf(0)
        for k, c in enumerate(x.coords):
            if c:
                coeff = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                angle = 2 * iv.pi * iv.mpf(k) / iv.mpf(x.order)
                re += coeff * iv.cos(angle)
                im += coeff * iv.sin(angle)
        sq = re * re + im * im
        raw_lo, raw_hi = sq._mpi_
        if _raw_to_fraction(raw_lo) < 0:
            sq = iv.mpf([0, mpmath.mpf(raw_hi, prec=iv.prec)])
        lo, hi = (_raw_to_fraction(raw) for raw in iv.sqrt(sq)._mpi_)
    finally:
        iv.prec = old_prec
    return RatInterval(max(lo, Fraction(0)), max(hi, Fraction(0)))


# -- names the library no longer calls, kept as references ------------------

def reference_canonical_candidates(dim: int, radius: int):
    """lattice._canonical_candidates as it was: each shell of max-norm r
    filtered out of the whole ball of radius r."""
    coords = [0]
    for r in range(radius + 1):
        if r:
            coords += [r, -r]
        for point in itertools.product(coords, repeat=dim):
            if max(map(abs, point)) == r:
                yield point


def operator_powers(mask, dilation, cap: int):
    """Yield (L, symbol, dilation^L) for the L-fold operator, L = 1..cap, as
    TrigPoly matrices folded by MatrixMask.matmul_dilated: the reference of
    the integer power loop subdivision._powers.  Each product is formed only
    when its item is requested."""
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


def reference_powers(mask, matrix, cap: int):
    """Yield (L, symbol, matrix^L) as the integer power loop did before it
    coded frequencies: every power a _Numerators on point tuples, formed by
    reference_dilated_product.  The reference of subdivision._powers."""
    base = _numerators(_as_matrix_mask(mask))
    power, step = base, matrix
    for L in range(1, cap + 1):
        if L > 1:
            power = reference_dilated_product(power, base, step)
            step = mat_mul(step, matrix)
        yield L, power, step


def reference_dilated_product(left, right, dilation):
    """left(x) @ right(transpose(dilation) x) on point tuples, each
    frequency built as a tuple per pair product; the same loop order, class
    sums and folds as subdivision._dilated_product."""
    field = left.field
    dilated = [[[(key, [(mat_vec(dilation, g), n) for g, n in terms.items()])
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
                                    freq = tuple(map(add, f, g))
                                    acc[freq] = acc.get(freq, 0) + a * b
                product = _fold(sums, field)
                total = _split(_vectors(field, total, product)) if total else product
            out_row.append(total)
        out.append(out_row)
    return _Numerators(field, left.den * right.den, out)


def reference_cosets(support, matrix):
    """The frequencies of the support grouped by their coset of matrix Z^d,
    one coset_key (a mat_vec and a modulo per component) per frequency."""
    adj, modulus = adjugate(matrix), abs(determinant(matrix))
    groups: dict[tuple, list] = {}
    for alpha in support:
        groups.setdefault(coset_key(adj, modulus, alpha), []).append(alpha)
    return groups.values()


def reference_max_magnitude_sum(rows, den: int,
                                precision_bits: int) -> RatInterval:
    """cyclotomic.max_magnitude_sum as it was before it pruned: every row
    enclosed, in the order given.  Each distinct non-rational value is
    enclosed once per call, each end of a row's enclosures summed as one
    integer numerator and one exponent, and a row of rational values
    compared as one integer."""
    memo: dict = {}
    products: dict = {}
    best_exact = 0
    best_lo = best_hi = _F0
    for row in rows:
        exact = 0
        lo = hi = (0, 0)
        for value in row:
            if isinstance(value, int):
                exact += abs(value)
                continue
            enclosure = memo.get(value)
            if enclosure is None:
                enclosure = memo[value] = magnitude_interval(
                    value, precision_bits, den, products)
            lo = _dyadic_add(lo, enclosure.lo)
            hi = _dyadic_add(hi, enclosure.hi)
        if hi == (0, 0):  # no enclosure: |x| > 0 for every value enclosed
            best_exact = max(best_exact, exact)
            continue
        exact = Fraction(exact, den)
        best_lo = max(best_lo, exact + _dyadic(*lo))
        best_hi = max(best_hi, exact + _dyadic(*hi))
    best_exact = Fraction(best_exact, den)
    return RatInterval(max(best_lo, best_exact), max(best_hi, best_exact))


def reference_reduced(entry: dict, field: int) -> dict:
    """subdivision._reduced as it was: each frequency's classes assembled as
    one vector at the field order (_vectors, the TrigPoly merge, which drops
    a sum that vanishes mod Phi_field), then read at its label and reduced
    again there."""
    out = {}
    for freq, (vec, label) in _vectors(field, entry).items():
        coords = _canonical(vec, field, label)
        out[freq] = (label, coords) if any(coords[1:]) else coords[0]
    return out


def reference_from_component_polys(dim: int, polys):
    """subdivision._from_component_polys as it was: each value wrapped as a
    CyclotomicNumber by TrigPoly.terms, then simplified back to a Fraction
    by Sequence.__init__ when it is rational."""
    support = dict.fromkeys(itertools.chain.from_iterable(p.terms for p in polys))
    return Sequence(dim, len(polys), {
        alpha: tuple(p.terms.get(alpha, 0) for p in polys) for alpha in support})


def reference_norm(symbol, matrix, precision_bits: int = 128) -> RatInterval:
    """The norm of a symbol on point tuples as subdivision._norm took it
    before it indexed cosets: a scan of every row, coset and frequency of the
    support, one magnitude sum per (coset, row), every row enclosed
    (reference_max_magnitude_sum)."""
    field, den, entries, _ = symbol
    values = [[list(entry.values()) if all(p == 0 for _, p in entry)
               else [reference_reduced(entry, field)] for entry in row]
              for row in entries]
    support = set().union(*(d for row in values for parts in row for d in parts))
    return reference_max_magnitude_sum(
        ([d[alpha] for parts in row for d in parts for alpha in alphas
          if alpha in d]
         for alphas in reference_cosets(support, matrix) for row in values),
        den, precision_bits)


def point_entries(symbol) -> list:
    """symbol's entries with point tuples as frequencies: a power past L = 1
    holds the int codes of its box."""
    if symbol.box is None:
        return symbol.entries
    def decoded(terms):
        codes = sorted(terms)
        points = zip(*symbol.box.points(codes))
        return dict(zip(points, map(terms.__getitem__, codes)))
    return [[{key: decoded(terms) for key, terms in entry.items()}
             for entry in row] for row in symbol.entries]


def power_symbol(mask, dilation, k: int) -> MatrixMask:
    """Symbol of the k-fold operator (see operator_powers)."""
    if k < 1:
        raise ValueError("power must be at least 1")
    *_, (_, symbol, _) = operator_powers(mask, dilation, k)
    return symbol


def coefficient_support(mask: MatrixMask) -> set:
    """Every frequency that carries a coefficient in some entry."""
    return {freq for row in mask.entries for entry in row for freq in entry.terms}


def interval_max(intervals) -> RatInterval:
    """Enclosure of max(x_i) over one point x_i drawn from each interval."""
    items = list(intervals)
    if not items:
        return RatInterval.exact(0)
    return RatInterval(max(i.lo for i in items), max(i.hi for i in items))


def sup_norm(f) -> Fraction:
    """Exact sup of the component magnitudes of a sequence of rational values."""
    return max((abs(Fraction(v)) for vec in f.values.values() for v in vec),
               default=Fraction(0))


def refined_points(refined) -> list:
    """[(grid point, (value,))] of subdivision.refine's result in lattice
    order, in Fractions: the grid point of alpha is mat_vec(grid, alpha)
    over grid_den, one mat_vec per point."""
    return [(tuple(Fraction(x, refined.grid_den)
                   for x in mat_vec(refined.grid, alpha)),
             (Fraction(n, refined.data.den),))
            for alpha, n in zip(zip(*refined.data.axes), refined.data.values)]


def reference_refined_rows(refined):
    """The cells of each refined row in lattice order, one row at a time:
    the grid point matrix^-rounds alpha, each grid numerator the dot product
    of a grid row with alpha formatted over grid_den, then the value n / den
    (format_ratio)."""
    grid, grid_den, den = refined.grid, refined.grid_den, refined.data.den
    for alpha, n in zip(zip(*refined.data.axes), refined.data.values):
        yield [*(format_ratio(sum(map(mul, g, alpha)), grid_den) for g in grid),
               format_ratio(n, den)]


def l1_norm(t: TrigPoly, precision_bits: int = 128) -> RatInterval:
    """Certified enclosure of the sum of coefficient magnitudes; exact
    (a point interval) whenever every coefficient is rational."""
    return sum((magnitude_interval(c, precision_bits) for c in t.terms.values()),
               RatInterval.exact(0))


def coset_coefficient_sums(mask, ctx: DilationContext) -> list:
    """For each digit: the exact (signed) sum of coefficient matrices over its
    coset, the value at 0 of each entry's polyphase component.  For a
    difference scheme of a normalized order-1 mask these all equal the
    inverse-transpose dilation matrix."""
    splits = [[entry.polyphase_split(ctx) for entry in row]
              for row in _as_matrix_mask(mask).entries]
    return [[[parts[nu].value_at_zero() for parts in row] for row in splits]
            for nu in range(ctx.m)]


def digit_fourier_matrix(ctx: DilationContext) -> list:
    """The m-by-m matrix of e^(2*pi*i*(r_k, dual_digit_l)) in exact arithmetic.

    Scaled by 1/sqrt(m) this matrix is unitary; that property underpins both
    the polyphase value identities and the digit interpolants.
    """
    return [[exp_of_rational(sum((rk[i] * sl[i] for i in range(ctx.dim)),
                                 start=Fraction(0)))
             for sl in ctx.dual_digits] for rk in digit_fractions(ctx)]


def digit_fourier_is_unitary(ctx: DilationContext) -> bool:
    """Exact check that U Uh == m I for the digit Fourier matrix."""
    u = digit_fourier_matrix(ctx)
    m = ctx.m
    for i in range(m):
        for j in range(m):
            acc = CyclotomicNumber.zero()
            for l in range(m):
                acc = acc + u[i][l] * u[j][l].conjugate()
            if acc != (m if i == j else 0):
                return False
    return True


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


def reference_second_difference_scheme(T: MatrixMask,
                                       ctx: DilationContext) -> MatrixMask:
    """second_difference_scheme built apart from the level step and the
    Kronecker layout it shares with decompose_levels: each entry of T is
    decomposed at class 0 on its own, and the d-by-d blocks are laid out by
    hand, block (k, j) holding the difference-scheme symbol of entry (k, j),
    its row kappa and column jj that decomposition's entry(jj, kappa)."""
    d = ctx.dim
    if (T.rows, T.cols) != (d, d):
        raise ShapeMismatch("second difference scheme needs a d-by-d mask")
    blocks = [[decompose.decompose_to_class(T.entry(k, j), ctx, 0)
               for j in range(d)] for k in range(d)]
    return MatrixMask([[block.entry(jj + 1, kappa + 1)
                        for block in block_row for jj in range(d)]
                       for block_row in blocks for kappa in range(d)])


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
