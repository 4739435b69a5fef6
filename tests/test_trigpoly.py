import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (NotDivisible, divide_one_minus_z,
                      fraction_dilated_derivative, fraction_inverse, l1_norm,
                      random_class_mask, random_mask, substitute_one)
from maskforge.decompose import _telescope
from maskforge.errors import DimensionMismatch, WrongCount
from maskforge.lattice import DilationContext
from maskforge.trigpoly import TrigPoly


def test_ring_examples():
    one_minus = TrigPoly.one_minus_exp(1, (1,))
    one_plus = TrigPoly(1, {(0,): 1, (1,): 1})
    assert one_minus * one_plus == TrigPoly(1, {(0,): 1, (2,): -1})
    t = random_mask(random.Random(0), 2)
    assert t * TrigPoly.constant(2, 1) == t
    c1 = TrigPoly.one_minus_exp(2, (1, 0))
    c2 = TrigPoly.one_minus_exp(2, (0, 1))
    assert c1 + c2 == TrigPoly(2, {(0, 0): 2, (1, 0): -1, (0, 1): -1})


def test_numpy_integer_coefficients_are_read_as_python_ints():
    # np.int64 is a numbers.Rational whose products wrap around silently
    a = TrigPoly(1, {(0,): np.int64(2 ** 62)})
    assert (a * a).terms == {(0,): 2 ** 124}
    b = TrigPoly.constant(1, 1) * np.int64(3)
    assert b.vectors == {(0,): ([3], 1)}
    assert type(b.vectors[(0,)][0][0]) is int


def test_ring_laws_random():
    rng = random.Random(1)
    for _ in range(15):
        a = random_mask(rng, 2, n_terms=4)
        b = random_mask(rng, 2, n_terms=4)
        c = random_mask(rng, 2, n_terms=4)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_sum_leaves_its_operands_unchanged():
    # the sum builds new terms; neither operand changes
    x = TrigPoly(1, {(0,): 1, (1,): 2})
    y = TrigPoly(1, {(1,): 3, (2,): Fraction(1, 2)})
    assert x + y == TrigPoly(1, {(0,): 1, (1,): 5, (2,): Fraction(1, 2)})
    assert x.terms == TrigPoly(1, {(0,): 1, (1,): 2}).terms
    assert y.terms == TrigPoly(1, {(1,): 3, (2,): Fraction(1, 2)}).terms


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        TrigPoly.constant(1, 1) + TrigPoly.constant(2, 1)
    with pytest.raises(DimensionMismatch):
        TrigPoly(2, {(1,): 1})


@pytest.mark.parametrize("component", [0.7, Fraction(1, 2), "1"])
def test_non_integer_frequency_raises(component):
    with pytest.raises(TypeError):
        TrigPoly(1, {(component,): 1})


def test_numpy_integer_frequency_accepted():
    t = TrigPoly(2, {(np.int64(1), 2): 3})
    assert t == TrigPoly(2, {(1, 2): 3})
    assert all(type(x) is int for x in next(iter(t.terms)))


def test_library_results_skip_the_checking_constructor(monkeypatch,
                                                       example_ctx):
    x = random_mask(random.Random(10), 2)
    y = random_mask(random.Random(11), 2)
    in_class = random_class_mask(random.Random(12), example_ctx, 1)
    taus = x.polyphase_split(example_ctx)
    calls = []
    checking = TrigPoly.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        checking(self, *args, **kwargs)
    monkeypatch.setattr(TrigPoly, "__init__", counting)
    x + y, x - y, -x, x * y, x.scale(Fraction(2, 3)), x * 3
    x.compose_dilate(example_ctx.matrix)
    x.polyphase_split(example_ctx)
    TrigPoly.polyphase_assemble(taus, example_ctx)
    _telescope(in_class, example_ctx)
    assert calls == []


def test_compose_dilate(example_ctx):
    z1 = TrigPoly.axis(2, 1)
    assert z1.compose_dilate(example_ctx.matrix) == TrigPoly(2, {(0, 2): 1})
    const = TrigPoly.constant(2, Fraction(5, 3))
    assert const.compose_dilate(example_ctx.matrix) == const
    # the inverse-dilated evaluation undoes it
    rng = random.Random(2)
    points = [(0, 0), (Fraction(1, 2), Fraction(-1, 3)), (Fraction(2, 5), 1)]
    inverse = fraction_inverse(example_ctx)
    for _ in range(10):
        t = random_mask(rng, 2)
        back = t.compose_dilate(example_ctx.matrix)
        for beta in ((0, 0), (1, 0), (1, 1)):
            for p in points:
                assert fraction_dilated_derivative(back, inverse, beta, p) \
                    == t.normalized_derivative(beta, p)


def test_polyphase_split_examples(example_ctx):
    one = TrigPoly.constant(2, 1)
    taus = one.polyphase_split(example_ctx)
    assert taus[0] == one and all(t.is_zero() for t in taus[1:])

    per_coset = TrigPoly(2, {s: 1 for s in example_ctx.digits})
    assert all(t == TrigPoly.constant(2, 1)
               for t in per_coset.polyphase_split(example_ctx))


def test_polyphase_split_reproduces_example(example_ctx, example_mask,
                                            example_polyphase):
    assert example_mask.polyphase_split(example_ctx) == example_polyphase


def test_polyphase_round_trip_random(example_ctx):
    rng = random.Random(4)
    canonical = DilationContext.create([[0, 2], [2, -1]])
    for ctx in (example_ctx, canonical):
        for _ in range(50):
            t = random_mask(rng, 2)
            assert TrigPoly.polyphase_assemble(t.polyphase_split(ctx), ctx) == t


def test_polyphase_assemble_all_ones(example_ctx):
    ones = [TrigPoly.constant(2, 1)] * 4
    assert TrigPoly.polyphase_assemble(ones, example_ctx) == \
        TrigPoly(2, {s: 1 for s in example_ctx.digits})
    with pytest.raises(WrongCount):
        TrigPoly.polyphase_assemble(ones[:3], example_ctx)


def test_eval_examples(example_ctx, example_mask):
    assert TrigPoly.one_minus_exp(1, (1,)).eval_at_rational([0]).is_zero()
    one_plus = TrigPoly(1, {(0,): 1, (1,): 1})
    assert one_plus.eval_at_rational([Fraction(1, 2)]).is_zero()
    inverse = fraction_inverse(example_ctx)
    for dual in example_ctx.dual_digits[1:]:
        assert fraction_dilated_derivative(example_mask, inverse, (0, 0),
                                           dual).is_zero()


def test_evaluation_needs_dim_components():
    # zip would drop the extra components and answer for a shorter index
    t = TrigPoly(2, {(1, 2): 1})
    for alpha, point in [((1, 0, 5), (0, 0)), ((1,), (0, 0)), ((1, 0), (0, 0, 1))]:
        with pytest.raises(DimensionMismatch):
            t.normalized_derivative(alpha, point)
    with pytest.raises(DimensionMismatch):
        t.eval_at_rational([Fraction(1, 2)])


def test_normalized_derivative_examples():
    assert TrigPoly.axis(2, 1).normalized_derivative((1, 0), (0, 0)) == Fraction(1)
    c1 = TrigPoly.one_minus_exp(2, (1, 0))
    assert c1.normalized_derivative((1, 0), (0, 0)) == Fraction(-1)
    t = random_mask(random.Random(6), 2)
    p = (Fraction(1, 3), Fraction(2, 5))
    assert t.normalized_derivative((0, 0), p) == t.eval_at_rational(p)


def test_normalized_derivative_leibniz():
    rng = random.Random(8)
    from maskforge.sumrules import binom_multi, indices_below
    for _ in range(8):
        a = random_mask(rng, 2, n_terms=3, freq_range=2)
        b = random_mask(rng, 2, n_terms=3, freq_range=2)
        p = (Fraction(rng.randint(0, 3), 4), Fraction(rng.randint(0, 3), 4))
        for alpha in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
            product_rule = None
            for beta in indices_below(alpha):
                rest = tuple(x - y for x, y in zip(alpha, beta))
                term = (a.normalized_derivative(beta, p)
                        * b.normalized_derivative(rest, p)
                        * binom_multi(alpha, beta))
                product_rule = term if product_rule is None else product_rule + term
            assert (a * b).normalized_derivative(alpha, p) == product_rule


# the TrigPoly telescoping kept in conftest as the reference of
# decompose._telescope

def test_substitute_one():
    assert substitute_one(TrigPoly.one_minus_exp(2, (1, 0)), 1).is_zero()
    t = TrigPoly(2, {(1, 1): 1, (0, 1): 1})
    assert substitute_one(t, 1) == TrigPoly(2, {(0, 1): 2})
    s = TrigPoly(2, {(0, 2): 1, (0, -1): 3})
    assert substitute_one(s, 1) == s


def test_divide_one_minus_z():
    t = TrigPoly(1, {(0,): 1, (2,): -1})
    assert divide_one_minus_z(t, 1) == TrigPoly(1, {(0,): 1, (1,): 1})
    laurent = TrigPoly(1, {(-1,): 1, (1,): -1})
    q = divide_one_minus_z(laurent, 1)
    assert q == TrigPoly(1, {(-1,): 1, (0,): 1})
    assert q * TrigPoly.one_minus_exp(1, (1,)) == laurent
    with pytest.raises(NotDivisible):
        divide_one_minus_z(TrigPoly(2, {(0, 0): 1, (0, 1): -1}), 1)


def test_divide_round_trip_random():
    rng = random.Random(9)
    for _ in range(25):
        u = random_mask(rng, 2, n_terms=5)
        j = rng.randint(1, 2)
        product = u * TrigPoly.one_minus_exp(
            2, tuple(int(i == j - 1) for i in range(2)))
        assert divide_one_minus_z(product, j) == u


def test_l1_norm(example_mask):
    t = TrigPoly(2, {(0, 0): Fraction(5, 16), (0, 1): Fraction(3, 16)})
    norm = l1_norm(t)
    assert norm.is_exact and norm.lo == Fraction(1, 2)
    assert l1_norm(TrigPoly.zero(2)).is_exact
    assert l1_norm(TrigPoly.zero(2)).lo == 0
    tau_110 = TrigPoly(2, {(0, 0): Fraction(-1, 16), (0, 1): Fraction(2, 16),
                           (1, 1): Fraction(1, 16), (0, 2): Fraction(2, 16),
                           (1, 2): Fraction(1, 16)})
    assert l1_norm(tau_110) == Fraction(7, 16)


def test_l1_norm_cyclotomic_interval():
    from maskforge.cyclotomic import root_of_unity
    t = TrigPoly(1, {(0,): 1 + root_of_unity(4, 1), (1,): Fraction(1, 2)})
    norm = l1_norm(t, 64)
    assert not norm.is_exact
    # sqrt(2) + 1/2 = 1.9142135... lies inside
    assert norm.lo < Fraction(19142136, 10000000)
    assert norm.hi > Fraction(19142135, 10000000)
