"""The single-reduction evaluation, the integer-numerator product and the
row-sum operator norm against the per-term folds they replaced.

normalized_derivative and eval_at_rational place every term in one
coordinate vector and reduce once; TrigPoly products of rational operands
multiply integer numerators; operator_norm sums rational magnitudes as one
Fraction per row.  The references below are the earlier per-term loops,
copied here.  Results are compared field for field, (order, coords) and the
key order of the terms, because == promotes across orders and would hide a
value held in the wrong field.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coset_fraction_key
from maskforge import trigpoly
from maskforge.cyclotomic import (CyclotomicNumber, exp_of_rational,
                                  magnitude_interval, root_of_unity)
from maskforge.intervals import RatInterval, interval_max
from maskforge.lattice import matrix_inverse
from maskforge.subdivision import MatrixMask, operator_norm
from maskforge.trigpoly import TrigPoly

# deterministic and small: the whole module runs in about three seconds
PROFILE = settings(max_examples=40, deadline=None, derandomize=True,
                   database=None)

ORDERS = (1, 2, 3, 4, 5, 12)


# -- references: the per-term folds -----------------------------------------

def folded_derivative(t, alpha, point):
    """normalized_derivative as it was: one product, one promotion and one
    reduction per term."""
    alpha = tuple(int(a) for a in alpha)
    point = [Fraction(p) for p in point]
    acc = CyclotomicNumber.zero()
    for freq, coeff in t.terms.items():
        factor = Fraction(1)
        for n, a in zip(freq, alpha):
            if a:
                factor *= Fraction(n, t.denom) ** a
        if not factor:
            continue
        turns = sum((Fraction(n) * p for n, p in zip(freq, point)),
                    start=Fraction(0)) / t.denom
        acc = acc + coeff * factor * exp_of_rational(turns)
    return acc


def folded_value(t, point):
    """eval_at_rational as it was."""
    point = [Fraction(p) for p in point]
    acc = CyclotomicNumber.zero()
    for freq, coeff in t.terms.items():
        turns = sum((Fraction(n) * p for n, p in zip(freq, point)),
                    start=Fraction(0)) / t.denom
        acc = acc + coeff * exp_of_rational(turns)
    return acc


def pairwise_product(x, y):
    """The pairwise loop of TrigPoly.__mul__: one CyclotomicNumber product
    and one sum per pair of terms."""
    a, b, common = x._aligned(y)
    out = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            freq = tuple(u + v for u, v in zip(fa, fb))
            prod = ca * cb
            out[freq] = out[freq] + prod if freq in out else prod
    return TrigPoly(x.dim, out, common)


def folded_norm(mask, matrix, precision_bits=128):
    """operator_norm as it was: one RatInterval sum per coefficient."""
    inverse = matrix_inverse(matrix)
    groups = {}
    for alpha in mask.coefficient_support():
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
                        row_sum = row_sum + magnitude_interval(c, precision_bits)
            best = interval_max([best, row_sum])
    return best


def number_fields(x):
    return x.order, x.coords


def poly_fields(t):
    return t.dim, t.denom, [(f, c.order, c.coords) for f, c in t.terms.items()]


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
def polys(draw, dim, values=coefficients(), denoms=(1, 1, 2, 3, 6), min_size=0):
    terms = draw(st.dictionaries(frequencies(dim), values, min_size=min_size,
                                 max_size=5))
    return TrigPoly(dim, terms, draw(st.sampled_from(denoms)))


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
    period = t.denom * lcm(*(p.denominator for p in point))
    shifted = TrigPoly(dim, {tuple(x + period * (i == axis) for i, x in enumerate(f)):
                             -c for f, c in t.terms.items()}, t.denom)
    return t + shifted, point


# -- evaluation ---------------------------------------------------------------

@PROFILE
@given(evaluation_cases())
def test_normalized_derivative_matches_fold(case):
    t, alpha, point = case
    got = t.normalized_derivative(alpha, point)
    assert number_fields(got) == number_fields(folded_derivative(t, alpha, point))


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
    t = TrigPoly(2, {(0, 1): root_of_unity(5, 2), (0, -2): Fraction(1, 3)}, 3)
    got = t.normalized_derivative((1, 0), (Fraction(1, 2), Fraction(1, 7)))
    assert number_fields(got) == (1, (Fraction(0),))
    assert number_fields(got) == number_fields(
        folded_derivative(t, (1, 0), (Fraction(1, 2), Fraction(1, 7))))


# -- rational products --------------------------------------------------------

def rational_polys(dim):
    return polys(dim, coefficients(orders=(1, 1, 2, 4, 12), rational=True),
                 denoms=(1, 1, 2, 3))


@st.composite
def rational_products(draw):
    dim = draw(st.integers(1, 3))
    return draw(rational_polys(dim)), draw(rational_polys(dim))


@st.composite
def cancelling_products(draw):
    """(a + b z^f)(a' - (b a'/a) z^f): the two cross terms at f cancel."""
    dim = draw(st.integers(1, 3))
    f = draw(frequencies(dim).filter(any))
    a, b, a2 = (draw(coefficients(orders=(1, 4), rational=True).filter(bool))
                for _ in range(3))
    b2 = -(b * a2 * a.inverse())
    x = TrigPoly(dim, {(0,) * dim: a, f: b})
    y = TrigPoly(dim, {(0,) * dim: a2, f: b2})
    return x, y, f


@PROFILE
@given(rational_products())
def test_rational_product_matches_pairwise_loop(case):
    x, y = case
    assert poly_fields(x * y) == poly_fields(pairwise_product(x, y))


@PROFILE
@given(cancelling_products())
def test_rational_product_drops_cancelled_sums(case):
    x, y, f = case
    got = x * y
    assert f not in got.terms
    assert poly_fields(got) == poly_fields(pairwise_product(x, y))


def test_order_four_rationals_times_order_one():
    x = TrigPoly(1, {(0,): CyclotomicNumber(4, [Fraction(1, 2)]), (1,): 3})
    y = TrigPoly(1, {(0,): 1, (2,): Fraction(-1, 3)})
    got = x * y
    assert poly_fields(got) == poly_fields(pairwise_product(x, y))
    assert {f: c.order for f, c in got.terms.items()} == \
        {(0,): 4, (1,): 1, (2,): 4, (3,): 1}


def test_rational_operands_take_the_integer_product(monkeypatch):
    calls = []
    kernel = trigpoly._rational_product
    monkeypatch.setattr(trigpoly, "_rational_product",
                        lambda a, b: calls.append(1) or kernel(a, b))
    x = TrigPoly(2, {(0, 0): Fraction(1, 2), (1, 0): CyclotomicNumber(4, [2])})
    x * x
    assert calls == [1]
    w = TrigPoly(2, {(0, 1): root_of_unity(3, 1)})
    assert poly_fields(x * w) == poly_fields(pairwise_product(x, w))
    assert calls == [1]


# -- operator norm --------------------------------------------------------------

DILATIONS = {1: [((2,),), ((-3,),)],
             2: [((0, 2), (2, -1)), ((1, 1), (-1, 1)), ((2, 0), (0, 2))]}


@st.composite
def norm_cases(draw):
    dim = draw(st.integers(1, 2))
    size = draw(st.integers(1, 2))
    values = coefficients(orders=(1, 1, 3, 5))
    entries = [[draw(polys(dim, values, denoms=(1,), min_size=1).filter(
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
