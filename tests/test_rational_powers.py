"""The one power loop of the certificate search against the TrigPoly reference.

The certificate search forms each operator power as integer numerators over
one denominator D^L at the scheme's field order N (N = 1 for a rational
scheme) and reads its norm through one magnitude sum.  operator_powers and
operator_norm, which fold every power as a TrigPoly matrix, are the
reference.  The properties below draw rational matrix masks (1x1 to 3x3,
coefficients held at field orders 1, 2 and 4) and cyclotomic ones (1x1 and
2x2, coefficients at orders 3, 5 and 15, rationals among them) over
dilations in dimensions 1-3 with determinants of both signs, and require
the same bounds at every power, with and without a growth matrix, and the
same coefficients in every power.  A cyclotomic power is compared field for
field, (order, coords): the order a value is held at decides its certified
magnitude, and == would promote across orders.  Past L = 1 the loop holds
each frequency as an int code on one box:
test_coded_powers_match_the_tuple_reference decodes each power and compares
its classes and numerators, and its norm, with conftest.reference_powers and
reference_norm, the loop and norm on point tuples that the coded ones
replaced.  The norm reads each class-form entry once at its labels
(_reduced); conftest.reference_reduced, which assembles each value at the
field order, tests it mod Phi_N and reduces it again at its label, is its
reference, on drawn entries and on the entries of L = 2 powers.
"""

import random
from fractions import Fraction

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import (CASES, contexts, operator_powers, point_entries,
                      random_class_mask, reference_norm, reference_powers,
                      reference_reduced)
from maskforge.cyclotomic import root_of_unity
from maskforge.lattice import (DilationContext, dilation_power,
                               power_inf_norm, transpose)
from maskforge.subdivision import (MatrixMask, _certificate_search, _norm,
                                   _powers, _reduced, _vectors,
                                   check_convergence, operator_norm)
from maskforge.trigpoly import TrigPoly, _number
from test_exact_kernels import coefficients, polys

# deterministic and small; no shrinking, as in test_intertwining
PROFILE = settings(max_examples=5, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])


def rational_masks(dim):
    entries = polys(dim, values=coefficients(orders=(1, 2, 4), rational=True))
    return st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)).map(
            MatrixMask)


def cyclotomic_masks(dim):
    entries = polys(dim, values=coefficients(orders=(1, 3, 5, 15)), min_size=1)
    return st.integers(1, 2).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)).map(
            MatrixMask).filter(lambda mask: not mask.is_rational())


@st.composite
def cyclotomic_cases(draw):
    dim, positive = draw(st.integers(1, 3)), draw(st.booleans())
    return draw(contexts(dim, positive)), draw(cyclotomic_masks(dim))


def check_search(mask, ctx, cap):
    """The search's bounds and certificate, with and without growth, equal
    those of the reference powers' norms, and each power equals the TrigPoly
    power: field for field when the mask is not rational, by value when it
    is."""
    want = list(operator_powers(mask, ctx, cap))
    norms = [operator_norm(symbol, step) for _, symbol, step in want]
    for growth in (None, transpose(ctx.matrix)):
        reference = []
        for L, norm in enumerate(norms, 1):
            bound = norm if growth is None else norm * power_inf_norm(growth, L)
            reference.append((L, bound))
            if bound.certified_below(1):
                break
        bounds, certificate, stopped = _certificate_search(
            mask, ctx, cap, 128, growth is not None)
        assert stopped is None
        assert bounds == reference
        assert certificate == (bounds[-1][0] if bounds[-1][1].certified_below(1)
                               else None)
    fields = (lambda c: c) if mask.is_rational() else (lambda c: (c.order, c.coords))
    for (L, symbol, step), (_, power, power_step) in zip(
            _powers(mask, ctx.matrix, cap), want, strict=True):
        assert step == power_step
        got = [[{freq: fields(_number(vec, symbol.field, label, symbol.den))
                 for freq, (vec, label) in _vectors(symbol.field, entry).items()}
                for entry in row] for row in point_entries(symbol)]
        assert got == [[{freq: fields(c) for freq, c in entry.terms.items()}
                        for entry in row] for row in power.entries], L


@CASES
@PROFILE
@given(data=st.data())
def test_integer_search_matches_the_reference(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    mask = data.draw(rational_masks(dim))
    assert mask.is_rational()
    check_search(mask, ctx, 3)


Z3 = root_of_unity(3, 1)
HALF = Fraction(1, 2)
DOUBLING = DilationContext.create([[2]])


def constants(rows):
    return MatrixMask([[TrigPoly.constant(1, c) for c in row] for row in rows])


@settings(PROFILE, max_examples=12)
@given(case=cyclotomic_cases())
# the square's first product at z^2 pairs (z^2, 1) and (1, z^2) of
# Z3(1 + z - z^2) and vanishes with order 3; the second adds 1/2, held at
# order 1 as the fold holds it, not at the lcm 3 of every pair
@example(case=(DOUBLING, MatrixMask([
    [TrigPoly(1, {(0,): Z3, (1,): Z3, (2,): -Z3}), TrigPoly(1, {(2,): HALF})],
    [TrigPoly.constant(1, 1), TrigPoly.constant(1, HALF)]])))
# the same vanishing product at z^2, second: the first, (1/2 + z^2)(1/2 + z^4),
# leaves 1/2 there, held at order 1
@example(case=(DOUBLING, MatrixMask([
    [TrigPoly(1, {(0,): HALF, (2,): 1}), TrigPoly(1, {(0,): Z3, (1,): Z3, (2,): -Z3})],
    [TrigPoly(1, {(0,): 1, (1,): 1}), TrigPoly.constant(1, HALF)]])))
# the square's entry (0, 0) sums Z3^2 - Z3^2 + 1/2: the running sum vanishes
# after two products, so 1/2 is held at order 1
@example(case=(DOUBLING, constants([[Z3, Z3, HALF], [-Z3, 1, 1], [1, 1, 1]])))
def test_cyclotomic_search_matches_the_reference(case):
    ctx, mask = case
    check_search(mask, ctx, 3)


@st.composite
def power_cases(draw):
    dim, positive = draw(st.integers(1, 3)), draw(st.booleans())
    mask = draw(st.one_of(rational_masks(dim), cyclotomic_masks(dim)))
    return draw(contexts(dim, positive)).matrix, mask, draw(st.integers(1, 3))


@settings(PROFILE, max_examples=20)
@given(case=power_cases())
# no base frequency at 0: the lowest is 1, so the lower corner of box(L) is
# 1 + 2 + ... + 2^(L-1) and moves with L
@example(case=(((2,),), MatrixMask([
    [TrigPoly(1, {(1,): HALF, (2,): Z3}), TrigPoly(1, {(3,): 1})],
    [TrigPoly(1, {(2,): -Z3}), TrigPoly(1, {(1,): HALF, (3,): Z3})]]), 3))
@example(case=(((0, 2), (2, -1)), MatrixMask([
    [TrigPoly(2, {(1, 2): HALF, (2, -1): Fraction(-1, 4)})]]), 3))
# cap 1: the one power is the base, never coded
@example(case=(((2, 0), (0, 2)), constants([[HALF, 1], [Z3, -HALF]]), 1))
# negative determinants, in one and three dimensions
@example(case=(((-3,),), MatrixMask([
    [TrigPoly(1, {(-1,): Z3, (0,): HALF, (2,): 1})]]), 3))
@example(case=(((0, 0, -3), (1, 0, 1), (0, 1, 2)), MatrixMask([
    [TrigPoly(3, {(0, 0, 0): HALF, (1, 0, -1): Z3}),
     TrigPoly(3, {(0, 1, 0): 1})],
    [TrigPoly(3, {(0, 0, 1): -HALF}), TrigPoly(3, {(1, 1, 0): Z3})]]), 2))
# caps above the first box (FIRST_BOX_POWERS = 4): L = 5 is formed from the
# fourth power re-coded on a box of min(cap, 8) powers
@example(case=(((2,),), MatrixMask([
    [TrigPoly(1, {(1,): HALF, (2,): Z3}), TrigPoly(1, {(3,): 1})],
    [TrigPoly(1, {(2,): -Z3}), TrigPoly(1, {(1,): HALF, (3,): Z3})]]), 6))
@example(case=(((-3,),), MatrixMask([
    [TrigPoly(1, {(-1,): Z3, (0,): HALF, (2,): 1})]]), 5))
@example(case=(((1, 1), (-1, 1)), MatrixMask([
    [TrigPoly(2, {(0, 1): HALF, (1, -1): Fraction(-1, 4)})]]), 9))
def test_coded_powers_match_the_tuple_reference(case):
    # each power, decoded, holds the reference's classes and numerators
    # field for field, and its norm is the reference's coset scan
    matrix, mask, cap = case
    for (L, symbol, step), (_, want, want_step) in zip(
            _powers(mask, matrix, cap), reference_powers(mask, matrix, cap),
            strict=True):
        assert step == want_step
        assert (symbol.box is None) == (L == 1)
        assert (symbol.field, symbol.den) == (want.field, want.den)
        assert point_entries(symbol) == want.entries, L
        for bits in (64, 128):
            assert _norm(symbol, dilation_power(matrix, L), bits) \
                == reference_norm(want, step, bits), L


@st.composite
def class_entries(draw):
    """(entry, N): a class-form entry at N in {3, 4, 5, 12, 15}.  Each
    frequency has one label dividing N and classes (label, p), p a multiple
    of N/label, with small numerators.  Some frequencies hold n (1 + z3 +
    z3^2), which vanishes, or classes of label 4 at positions 0 and N/2
    only, a rational held at order 4 (zero when the two cancel)."""
    field = draw(st.sampled_from((3, 4, 5, 12, 15)))
    labels = [d for d in range(1, field + 1) if field % d == 0]
    kinds = ["any"] + ["vanish"] * (field % 3 == 0) + ["order4"] * (field % 4 == 0)
    entry: dict = {}
    for freq in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        n = draw(st.integers(-3, 3).filter(bool))
        if kind == "vanish":
            terms = [((3, j * field // 3), n) for j in range(3)]
        elif kind == "order4":
            terms = [((4, 0), n), ((4, field // 2), draw(st.sampled_from((n, -n, 2))))]
        else:
            label = draw(st.sampled_from(labels))
            step = field // label
            terms = [((label, step * draw(st.integers(0, label - 1))),
                      draw(st.integers(-3, 3).filter(bool)))
                     for _ in range(draw(st.integers(1, 4)))]
        for key, x in terms:
            classes = entry.setdefault(key, {})
            classes[(freq,)] = classes.get((freq,), 0) + x
    return entry, field


@settings(PROFILE, max_examples=60)
@given(class_entries())
# 2 (1 + z3 + z3^2) vanishes at every field order the cube roots divide
@example(({(3, 0): {(0,): 2}, (3, 4): {(0,): 2}, (3, 8): {(0,): 2},
           (12, 1): {(1,): 1}}, 12))
# 1 + z4^2 = 0 and 3 + z4^2 = 2, held at order 4; 5 z15^5 is held at 3
@example(({(4, 0): {(0,): 1, (1,): 3}, (4, 6): {(0,): 1, (1,): 1}}, 12))
@example(({(3, 5): {(2,): 5}, (1, 0): {(3,): -1}}, 15))
def test_reduced_matches_the_field_order_reference(case):
    entry, field = case
    got = _reduced(entry, field)
    assert list(got.items()) == list(reference_reduced(entry, field).items())


@settings(PROFILE, max_examples=4)
@given(case=cyclotomic_cases())
def test_reduced_power_entries_match_the_reference(case):
    # the L = 2 power of a cyclotomic scheme, each entry read at its labels
    ctx, mask = case
    *_, (_, symbol, _) = _powers(mask, ctx.matrix, 2)
    for row in symbol.entries:
        for entry in row:
            got = _reduced(entry, symbol.field)
            assert list(got.items()) == \
                list(reference_reduced(entry, symbol.field).items())


def test_large_3d_trajectory_norms():
    # values recorded from the generic TrigPoly path; 309,324 frequencies
    # at L=4, which is why the test stops at L=3
    ctx = DilationContext.create(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    t = random_class_mask(random.Random(4), ctx, 2)
    T = check_convergence(t, ctx, power_cap=0).difference_mask
    bounds, certificate, stopped = _certificate_search(T, ctx, 3, 128)
    assert bounds == [(1, Fraction(1937, 48)), (2, Fraction(9820145, 18432)),
                      (3, Fraction(463800598219, 226492416))]
    assert certificate is None
    assert stopped is None
