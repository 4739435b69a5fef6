"""The single-reduction evaluation, the reduce-once product and the row-sum
operator norm against the per-term folds they replaced.

normalized_derivative reads trigpoly._point_kernel, which places every term
in one coordinate vector, and reduces once; TrigPoly products sum integer
numerators in one coordinate vector per frequency and reduce each once,
whatever the coefficient fields; operator_norm sums rational magnitudes as
one Fraction per row and encloses each distinct cyclotomic value at most
once per call, skipping the rows whose bound cannot reach the maximum;
max_magnitude_sum is checked against conftest.reference_max_magnitude_sum,
which encloses every row.  The references below are the earlier
per-term loops; products and merges are checked against conftest.fold, the
CyclotomicNumber fold.
Results are compared field for field, (order, coords) and the key order of
the terms, because == promotes across orders and would hide a value held in
the wrong field.
"""

from fractions import Fraction
from math import lcm

import mpmath
import pytest
from mpmath import libmp
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import (coefficient_support, coset_fraction_key, fold,
                      fold_product, fraction_derivative, interval_max,
                      matrix_inverse, reference_magnitude_interval,
                      reference_max_magnitude_sum, term_fields)
from maskforge import cyclotomic
from maskforge.cyclotomic import (CyclotomicNumber, cyclotomic_polynomial,
                                  exp_of_rational, magnitude_interval,
                                  max_magnitude_sum, root_of_unity)
from maskforge.intervals import RatInterval
from maskforge.subdivision import MatrixMask, operator_norm
from maskforge.trigpoly import TrigPoly

# deterministic and small: the whole module runs in about three seconds
PROFILE = settings(max_examples=40, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])

ORDERS = (1, 2, 3, 4, 5, 12)


# -- references: the per-term folds -----------------------------------------

def folded_derivative(t, alpha, point):
    """normalized_derivative as it was: one product, one promotion and one
    reduction per term."""
    return fraction_derivative(t.terms.items(), alpha, point)


def folded_value(t, point):
    """eval_at_rational as it was."""
    point = [Fraction(p) for p in point]
    acc = CyclotomicNumber.zero()
    for freq, coeff in t.terms.items():
        turns = sum((Fraction(n) * p for n, p in zip(freq, point)),
                    start=Fraction(0))
        acc = acc + coeff * exp_of_rational(turns)
    return acc


def folded_norm(mask, matrix, precision_bits=128):
    """operator_norm as it was: one RatInterval sum per coefficient, each
    cyclotomic magnitude enclosed by the iv context."""
    inverse = matrix_inverse(matrix)
    groups = {}
    for alpha in coefficient_support(mask):
        groups.setdefault(coset_fraction_key(inverse, alpha), []).append(alpha)
    best = RatInterval.exact(0)
    for alphas in groups.values():
        for i in range(mask.rows):
            row_sum = RatInterval.exact(0)
            for j in range(mask.cols):
                for alpha in alphas:
                    c = mask.entries[i][j].terms.get(alpha)
                    if c is None:
                        continue
                    if c.is_rational():
                        row_sum = row_sum + abs(c.rational_value())
                    else:
                        row_sum = row_sum + reference_magnitude_interval(
                            c, precision_bits)
            best = interval_max([best, row_sum])
    return best


def number_fields(x):
    return x.order, x.coords


def poly_fields(t):
    return term_fields(t.terms)


# -- strategies ---------------------------------------------------------------

def rationals(span=9):
    return st.builds(Fraction, st.integers(-span, span), st.integers(1, 6))


@st.composite
def coefficients(draw, orders=ORDERS, rational=False):
    """A value of the given field orders; rational ones may be held at an
    order above 1, as values are after a promotion."""
    order = draw(st.sampled_from(orders))
    if rational or order == 1 or draw(st.booleans()):
        return CyclotomicNumber(order, [draw(rationals())])
    return CyclotomicNumber(order, draw(st.lists(rationals(), min_size=order,
                                                 max_size=order)))


def frequencies(dim, span=3):
    return st.tuples(*[st.integers(-span, span)] * dim)


@st.composite
def polys(draw, dim, values=coefficients(), min_size=0):
    terms = draw(st.dictionaries(frequencies(dim), values, min_size=min_size,
                                 max_size=5))
    return TrigPoly(dim, terms)


def rational_points(dim):
    return st.tuples(*[st.builds(Fraction, st.integers(-5, 5),
                                 st.sampled_from((1, 2, 3, 4, 5, 6)))] * dim)


def multi_indices(dim):
    """|alpha| <= 3: how often each axis occurs among up to three draws."""
    return st.lists(st.integers(0, dim - 1), max_size=3).map(
        lambda axes: tuple(axes.count(i) for i in range(dim)))


@st.composite
def evaluation_cases(draw):
    dim = draw(st.integers(1, 3))
    return draw(polys(dim)), draw(multi_indices(dim)), draw(rational_points(dim))


@st.composite
def cancelling_evaluations(draw):
    """t minus t shifted by a period of the point: the two take the same
    root-of-unity values there, so the value cancels to zero."""
    dim = draw(st.integers(1, 3))
    t = draw(polys(dim, min_size=1).filter(lambda p: not p.is_zero()))
    point = draw(rational_points(dim))
    axis = draw(st.integers(0, dim - 1))
    period = lcm(*(p.denominator for p in point))
    shifted = TrigPoly(dim, {tuple(x + period * (i == axis) for i, x in enumerate(f)):
                             -c for f, c in t.terms.items()})
    return t + shifted, point


# -- evaluation ---------------------------------------------------------------

@PROFILE
@given(evaluation_cases())
def test_normalized_derivative_matches_fold(case):
    t, alpha, point = case
    assert number_fields(t.normalized_derivative(alpha, point)) == \
        number_fields(folded_derivative(t, alpha, point))


@PROFILE
@given(evaluation_cases())
def test_eval_at_rational_matches_fold(case):
    t, _, point = case
    assert number_fields(t.eval_at_rational(point)) == \
        number_fields(folded_value(t, point))


@PROFILE
@given(cancelling_evaluations())
def test_cancelled_value_keeps_the_fold_order(case):
    t, point = case
    got = t.eval_at_rational(point)
    assert got.is_zero()
    assert number_fields(got) == number_fields(folded_value(t, point))


def test_zero_factors_give_the_order_one_zero():
    t = TrigPoly(2, {(0, 1): root_of_unity(5, 2), (0, -2): Fraction(1, 3)})
    point = (Fraction(1, 2), Fraction(1, 7))
    got = t.normalized_derivative((1, 0), point)
    assert number_fields(got) == (1, (Fraction(0),))
    assert number_fields(got) == number_fields(
        folded_derivative(t, (1, 0), point))


# -- products -------------------------------------------------------------------

@st.composite
def products(draw):
    """Two operands of one dimension with coefficients at ORDERS, rationals
    held above order 1 among them."""
    dim = draw(st.integers(1, 3))
    return draw(polys(dim)), draw(polys(dim))


@st.composite
def cancelling_products(draw):
    """(a + b z^f)(s a - s b z^f): the two cross terms at f cancel, for
    cyclotomic values often only after reduction."""
    dim = draw(st.integers(1, 3))
    f = draw(frequencies(dim).filter(any))
    a, b, s = (draw(coefficients().filter(bool)) for _ in range(3))
    x = TrigPoly(dim, {(0,) * dim: a, f: b})
    y = TrigPoly(dim, {(0,) * dim: s * a, f: -(s * b)})
    return x, y, f


@PROFILE
@given(products())
def test_product_matches_pairwise_loop(case):
    x, y = case
    assert poly_fields(x * y) == term_fields(fold_product(x, y))


@PROFILE
@given(cancelling_products())
def test_product_drops_cancelled_sums(case):
    x, y, f = case
    got = x * y
    assert f not in got.terms
    assert poly_fields(got) == term_fields(fold_product(x, y))


def test_order_four_rationals_times_order_one():
    x = TrigPoly(1, {(0,): CyclotomicNumber(4, [Fraction(1, 2)]), (1,): 3})
    y = TrigPoly(1, {(0,): 1, (2,): Fraction(-1, 3)})
    got = x * y
    assert poly_fields(got) == term_fields(fold_product(x, y))
    assert {f: c.order for f, c in got.terms.items()} == \
        {(0,): 4, (1,): 1, (2,): 4, (3,): 1}


def test_sum_that_reduces_to_zero_is_dropped():
    # the coordinate vector (1, 1, 1) at frequency 0 is 1 + z3 + z3^2 = 0
    x = TrigPoly(1, {(k,): root_of_unity(3, k) for k in range(3)})
    y = TrigPoly(1, {(-k,): 1 for k in range(3)})
    got = x * y
    assert (0,) not in got.terms
    assert poly_fields(got) == term_fields(fold_product(x, y))


def test_products_multiply_no_cyclotomic_numbers(monkeypatch):
    x = TrigPoly(2, {(0, 0): Fraction(1, 2), (1, 0): CyclotomicNumber(4, [2])})
    w = TrigPoly(2, {(0, 1): root_of_unity(3, 1), (1, 1): Fraction(-1, 3)})
    cases = [(x, x), (x, w), (w, w)]
    want = [term_fields(fold_product(p, q)) for p, q in cases]

    def refuse(self, other):
        raise AssertionError("TrigPoly product multiplied a CyclotomicNumber")
    monkeypatch.setattr(CyclotomicNumber, "__mul__", refuse)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", refuse)
    assert [poly_fields(p * q) for p, q in cases] == want


# -- the merge ------------------------------------------------------------------

@st.composite
def merge_cases(draw):
    """Pairs with repeated frequencies, each value in its own field (rationals
    held above order 1 among them), then the negations of every pair at some
    frequencies in shuffled order, so those sums cancel to zero."""
    dim = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(frequencies(dim, span=1), coefficients()),
                          max_size=8))
    cancelled = draw(st.sets(frequencies(dim, span=1)))
    pairs += draw(st.permutations([(f, -c) for f, c in pairs if f in cancelled]))
    return dim, pairs


@PROFILE
@given(merge_cases())
def test_merge_matches_pairwise_fold(case):
    dim, pairs = case
    got = TrigPoly._from_pairs(dim, pairs)
    assert poly_fields(got) == term_fields(fold(pairs))


# -- operator norm --------------------------------------------------------------

DILATIONS = {1: [((2,),), ((-3,),)],
             2: [((0, 2), (2, -1)), ((1, 1), (-1, 1)), ((2, 0), (0, 2))]}


@st.composite
def norm_cases(draw):
    dim = draw(st.integers(1, 2))
    size = draw(st.integers(1, 2))
    values = coefficients(orders=(1, 1, 3, 4, 5, 15))
    entries = [[draw(polys(dim, values, min_size=1).filter(
        lambda p: not p.is_zero())) for _ in range(size)] for _ in range(size)]
    return MatrixMask(entries), draw(st.sampled_from(DILATIONS[dim]))


@settings(PROFILE, max_examples=30)
@given(norm_cases())
def test_operator_norm_matches_coefficient_fold(case):
    mask, matrix = case
    got = operator_norm(mask, matrix)
    want = folded_norm(mask, matrix)
    assert (got.lo, got.hi) == (want.lo, want.hi)


@pytest.mark.parametrize("precision_bits", [32, 128])
def test_operator_norm_mixed_fixed_mask(precision_bits):
    z3, z5 = root_of_unity(3, 1), root_of_unity(5, 2)
    mask = MatrixMask([
        [TrigPoly(1, {(0,): Fraction(1, 2), (1,): z3, (2,): Fraction(-1, 3)}),
         TrigPoly(1, {(1,): z5 * Fraction(1, 4), (3,): Fraction(2)})],
        [TrigPoly(1, {(0,): z3 + z5}), TrigPoly(1, {(2,): Fraction(5, 7)})]])
    got = operator_norm(mask, ((2,),), precision_bits)
    want = folded_norm(mask, ((2,),), precision_bits)
    assert not got.is_exact
    assert (got.lo, got.hi) == (want.lo, want.hi)


def counted_enclosures(monkeypatch):
    """The (order, coords) of each value magnitude_interval encloses, in
    the order of the calls."""
    enclosed = []

    def counting(x, precision_bits, den, products):
        order, coords = x
        enclosed.append((order, CyclotomicNumber(
            order, [Fraction(c, den) for c in coords]).coords))
        return magnitude_interval(x, precision_bits, den, products)
    monkeypatch.setattr(cyclotomic, "magnitude_interval", counting)
    return enclosed


def test_operator_norm_encloses_each_value_once(monkeypatch):
    # z repeats across frequencies, entries and both cosets of 2Z
    z, w = root_of_unity(3, 1) + Fraction(1, 2), root_of_unity(5, 2) * Fraction(1, 3)
    mask = MatrixMask([
        [TrigPoly(1, {(0,): z, (1,): z, (2,): w, (3,): z}),
         TrigPoly(1, {(0,): z, (1,): Fraction(1, 4)})],
        [TrigPoly(1, {(1,): z, (2,): z}), TrigPoly(1, {(0,): w, (3,): z})]])
    want = folded_norm(mask, ((2,),))
    enclosed = counted_enclosures(monkeypatch)
    got = operator_norm(mask, ((2,),))
    assert not got.is_exact
    assert (got.lo, got.hi) == (want.lo, want.hi)
    # no value enclosed twice, each held at its own order
    assert len(set(enclosed)) == len(enclosed)
    assert set(enclosed) <= {(z.order, z.coords), (w.order, w.coords)}


def test_operator_norm_skips_a_dominated_row(monkeypatch):
    # row 0 sums 3 + |z| on the even coset; row 1 sums |w| = 1/3 on the odd
    # one, below row 0's bound before anything is enclosed
    z, w = root_of_unity(3, 1), root_of_unity(5, 2) * Fraction(1, 3)
    mask = MatrixMask([[TrigPoly(1, {(0,): Fraction(3), (2,): z})],
                       [TrigPoly(1, {(1,): w})]])
    want = folded_norm(mask, ((2,),))
    enclosed = counted_enclosures(monkeypatch)
    got = operator_norm(mask, ((2,),))
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert enclosed == [(z.order, z.coords)]


def test_integer_row_above_every_bound_encloses_nothing(monkeypatch):
    enclosed = counted_enclosures(monkeypatch)
    got = max_magnitude_sum([[(3, (0, 1)), 2], [-4], [(5, (1, 1, 0, 0))]], 1, 32)
    assert (got.lo, got.hi) == (4, 4)
    assert enclosed == []


# -- pruned magnitude sums against the unpruned search --------------------------

# (order, k) with zeta_order^k one vector of the canonical basis
BASIS_ROOTS = ((3, 1), (4, 1), (5, 1), (5, 2), (5, 3), (12, 1), (12, 2), (12, 3))
# units of modulus below 1, whose powers cancel to far below the sum of their
# |coords|: 2 - sqrt(3) = 2 - z - z^11 at order 12, 2 cos(2 pi/5) = z + z^4
# at order 5
SMALL_UNITS = (CyclotomicNumber(12, [2, -1, *[0] * 9, -1]),
               root_of_unity(5, 1) + root_of_unity(5, 4))


def sum_value(x):
    """The (order, integer coords) that max_magnitude_sum reads for an
    integral non-rational x."""
    deg = len(cyclotomic_polynomial(x.order)) - 1
    return x.order, tuple(int(c) for c in x.coords[:deg])


@st.composite
def magnitude_rows(draw):
    """(rows, den): rows of bound B or B less a gap of 1/den or of up to a
    few units in the last place of the 48- or 144-bit enclosures.  Each row is one
    single-term value c zeta^k, whose magnitude is its bound, one value far
    below its bound, or integers only, all with integers beside them."""
    den = draw(st.sampled_from((1, 3, 12)) | st.sampled_from(
        (40, 60, 140, 160)).map(lambda k: (1 << k) + 1))
    top = draw(st.integers(1, 40)) * den
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        gap = draw(st.sampled_from((0, 1)) | st.integers(0, top >> 45)
                   | st.integers(0, top >> 141))
        bound = max(top - gap, 1)
        kind = draw(st.sampled_from(("single", "single", "cancel", "integers")))
        sign = draw(st.sampled_from((-1, 1)))
        if kind == "integers":
            split = draw(st.integers(0, bound))
            rows.append([split, sign * (split - bound)])
            continue
        if kind == "single":
            order, k = draw(st.sampled_from(BASIS_ROOTS))
            c = draw(st.integers(1, bound))
            rows.append([sum_value(root_of_unity(order, k) * (sign * c)),
                         draw(st.sampled_from((-1, 1))) * (bound - c)])
            continue
        x = root_of_unity(12, draw(st.integers(0, 11))) * sign
        for _ in range(draw(st.integers(1, 8))):
            x = x * draw(st.sampled_from(SMALL_UNITS))
        rows.append([sum_value(x * draw(st.integers(1, max(1, bound >> 20)))),
                     draw(st.integers(0, bound))])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], den


@settings(PROFILE, max_examples=150)
@given(magnitude_rows(), st.booleans())
# an integer row E above a value's bound E - 1 that the value's upper end
# passes, at 32 and at 128 bits: a search without a margin drops that end
@example(([[1 << 60], [(5, (0, (1 << 60) - 1, 0, 0))]], 1), False)
@example(([[1 << 160], [(5, (0, (1 << 160) - 1, 0, 0))]], 1), True)
def test_pruned_magnitude_sum_matches_every_row_enclosed(case, as_generator):
    rows, den = case
    for bits in (32, 128):
        want = reference_max_magnitude_sum(rows, den, bits)
        got = max_magnitude_sum((row for row in rows) if as_generator else rows,
                                den, bits)
        assert (got.lo, got.hi) == (want.lo, want.hi)


# -- raw magnitude enclosures against the iv context -----------------------------

def wide_rationals():
    """Numerators and denominators of 1 to 200 bits: from_int rounds those
    above the working precision (at most 144 bits)."""
    def sized(bits):
        return st.integers(2 ** (bits - 1), 2 ** bits - 1)
    return st.builds(lambda sign, num, den: Fraction(sign * num, den),
                     st.sampled_from((-1, 1)),
                     st.integers(1, 200).flatmap(sized),
                     st.integers(1, 200).flatmap(sized))


def real_part_near(x, bits):
    """A rational within 2**-bits of the real part of x."""
    with mpmath.workprec(bits + 300):
        value = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator
            * mpmath.cospi(mpmath.mpf(2 * k) / x.order)
            for k, c in enumerate(x.coords) if c)
        return Fraction(int(mpmath.nint(value * 2 ** bits)), 2 ** bits)


def real_near_zero(x, bits):
    """x + conj x less a rational within 2**-bits of it."""
    x = x + x.conjugate()
    return x - real_part_near(x, bits)


@st.composite
def wide_numbers(draw):
    """Values of the field orders below.  Some are real (x + conj x) or
    imaginary (x - conj x), so that the enclosure of the other part
    straddles 0; some are real and within 2**-bits of 0, so that |x|^2 may
    be enclosed below 0."""
    order = draw(st.sampled_from((1, 3, 4, 5, 7, 12, 15)))
    coords = draw(st.lists(st.one_of(st.just(Fraction(0)), wide_rationals()),
                           min_size=order, max_size=order))
    x = CyclotomicNumber(order, coords)
    kind = draw(st.sampled_from(("any", "real", "imaginary", "near zero")))
    if kind == "imaginary":
        return x - x.conjugate()
    if kind == "any":
        return x
    if kind == "real":
        return x + x.conjugate()
    return real_near_zero(x, draw(st.integers(1, 200)))


def fibonacci_near_zero(n):
    """F_n * (zeta_5 + zeta_5^4) - F_(n-1), about phi^-n for Fibonacci F_n."""
    a, b = 0, 1
    for _ in range(n - 1):
        a, b = b, a + b
    root = root_of_unity(5, 1) + root_of_unity(5, 4)
    return b * root - a


@settings(PROFILE, max_examples=80)
@given(wide_numbers(), st.sampled_from((32, 64, 128)))
# |x|^2 enclosed below 0 and clamped to 0, below an upper end of 8 bits
# (phi^-121) and of 144 bits (2*cos(pi/6) less a rational near sqrt 3)
@example(fibonacci_near_zero(121), 128)
@example(real_near_zero(root_of_unity(12, 1), 160), 128)
def test_magnitude_endpoints_match_the_iv_context(x, precision_bits):
    got = magnitude_interval(x, precision_bits)
    want = reference_magnitude_interval(x, precision_bits)
    assert (got.lo, got.hi) == (want.lo, want.hi)


# -- the integer dyadic helpers against the libmp functions they replace -------
#
# magnitude_interval computes each operation exactly in ints and rounds each
# end once; mpmath's mpf_add, mpf_mul, mpf_div and mpf_sqrt round correctly
# in the directed modes, so each helper must give libmp's tuple exactly, at
# the working precisions of 32, 128 and 8,192 bits (precision_bits + 16).

PRECS = (48, 144, 8208)


@st.composite
def dyadics(draw, prec, sign=None):
    """(man, exp) of at most prec bits, as every operand of a sum is: zero,
    or a signed mantissa (sign -1, 1 or either) at an exponent up to 400
    bits either side of the precision."""
    if sign is None and draw(st.integers(0, 9)) == 0:
        return 0, 0
    bits = draw(st.integers(1, prec))
    man = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
    if (sign or draw(st.sampled_from((-1, 1)))) < 0:
        man = -man
    return man, draw(st.integers(-prec - 400, 400))


@st.composite
def dyadic_intervals(draw, prec):
    """An interval of dyadics: [0, 0], a point, or two ends in order, either
    or both signs."""
    kind = draw(st.sampled_from(("zero", "point", "any", "straddling")))
    if kind == "zero":
        return (0, 0), (0, 0)
    if kind == "point":
        x = draw(dyadics(prec))
        return x, x
    if kind == "straddling":
        return draw(dyadics(prec, -1)), draw(dyadics(prec, 1))
    ends = sorted((draw(dyadics(prec)), draw(dyadics(prec))),
                  key=lambda e: Fraction(e[0]) * Fraction(2) ** e[1])
    return tuple(ends)


def raw(x):
    return libmp.from_man_exp(*x)


def raw_interval(x):
    return raw(x[0]), raw(x[1])


def precision_cases(strategy):
    return st.sampled_from(PRECS).flatmap(
        lambda prec: st.tuples(st.just(prec), strategy(prec)))


@settings(PROFILE, max_examples=120)
@given(precision_cases(lambda p: st.tuples(dyadics(p), dyadics(p))))
@example((48, ((0, 0), (0, 0))))
@example((48, ((-1, 0), (0, 0))))
# exponent gaps over 300 bits, the far term below and above, both signs
@example((48, ((2 ** 47 + 1, 0), (-1, -400))))
@example((144, ((-(2 ** 143) + 1, -10), (3, -450))))
@example((144, ((5, 400), (2 ** 143 - 1, 0))))
@example((8208, ((1, 0), (-(2 ** 8207) - 1, -8600))))
def test_dyadic_sum_matches_mpf_add(case):
    prec, (x, y) = case
    for up, rnd in ((False, libmp.round_floor), (True, libmp.round_ceiling)):
        assert raw(cyclotomic._add_end(x, y, prec, up)) == \
            libmp.mpf_add(raw(x), raw(y), prec, rnd)


@settings(PROFILE, max_examples=120)
@given(precision_cases(lambda p: st.tuples(dyadic_intervals(p),
                                           dyadic_intervals(p))))
@example((48, (((0, 0), (0, 0)), ((-3, 0), (5, 0)))))
@example((48, (((-3, -2), (5, 0)), ((0, 0), (0, 0)))))
# both straddle 0, and a straddling interval squared
@example((144, (((-3, 0), (5, 0)), ((-7, -1), (1, 0)))))
@example((144, (((-(2 ** 143) + 1, -200), (1, -150)),) * 2))
@example((8208, (((-5, 0), (-1, -9000)), ((2 ** 8207 + 3, 0), (2 ** 8208 - 1, 0)))))
def test_dyadic_product_matches_mpi_mul(case):
    prec, (x, y) = case
    assert raw_interval(cyclotomic._mul_interval(x, y, prec)) == \
        libmp.mpi_mul(raw_interval(x), raw_interval(y), prec)


def wide_ints(prec):
    """Nonzero ints up to 60 bits wider than prec."""
    return st.integers(1, prec + 60).flatmap(
        lambda bits: st.integers(2 ** (bits - 1), 2 ** bits - 1))


@settings(PROFILE, max_examples=120)
@given(precision_cases(lambda p: st.tuples(
    st.tuples(st.sampled_from((-1, 1)), wide_ints(p)).map(lambda t: t[0] * t[1]),
    wide_ints(p))))
@example((48, (1, 1)))
@example((48, (-1, 3)))
# ints wider than prec: the numerator, the denominator, both
@example((48, (2 ** 60 + 1, 3)))
@example((144, (-(3 ** 100), 7)))
@example((144, (5, 2 ** 200 - 1)))
@example((8208, (-(2 ** 8250 - 1), 3 ** 5200)))
def test_dyadic_quotient_matches_mpi_div(case):
    prec, (num, den) = case

    def enclosed(n):
        return (libmp.from_int(n, prec, libmp.round_floor),
                libmp.from_int(n, prec, libmp.round_ceiling))
    assert raw_interval(cyclotomic._quotient_interval(num, den, prec)) == \
        libmp.mpi_div(enclosed(num), enclosed(den), prec)


@settings(PROFILE, max_examples=120)
@given(precision_cases(lambda p: dyadics(p).map(lambda x: (abs(x[0]), x[1]))))
@example((48, (0, 0)))
# exact squares, at even and odd exponents, one below a square and 2**-7
@example((48, (9, 0)))
@example((48, (18, -7)))
@example((48, (1, -7)))
@example((144, ((2 ** 71 - 1) ** 2, 32)))
@example((144, ((2 ** 71 - 1) ** 2 - 1, 32)))
@example((8208, (3 ** 5000, -8000)))
def test_dyadic_sqrt_matches_mpf_sqrt(case):
    prec, x = case
    for up, rnd in ((False, libmp.round_floor), (True, libmp.round_ceiling)):
        assert raw(cyclotomic._sqrt_end(x, prec, up)) == \
            libmp.mpf_sqrt(raw(x), prec, rnd)
