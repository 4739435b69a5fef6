import random
from fractions import Fraction

import pytest

from conftest import (fraction_dilated_derivative, fraction_inverse,
                      matrix_inverse, random_class_mask, random_mask)
from maskforge.cyclotomic import CyclotomicNumber
from maskforge.errors import NotInClass
from maskforge.lattice import DilationContext
from maskforge.sumrules import (DerivativeTable, _unit_moment_line,
                                derivative_table,
                                digit_interpolant,
                                mask_from_derivative_table, multi_indices,
                                multi_indices_up_to, sum_rule_order,
                                sum_rule_order_direct, unit_derivative_poly)
from maskforge.trigpoly import TrigPoly


@pytest.fixture(scope="module")
def ctx1():
    return DilationContext.create([[2]])


def test_zero_polynomial_reaches_any_cap_at_once(ctx1, example_ctx):
    # every derivative of 0 vanishes; a scan to the cap would take O(cap^d)
    for ctx in (ctx1, example_ctx):
        zero = TrigPoly.zero(ctx.dim)
        assert sum_rule_order(zero, ctx, cap=10 ** 9) == 10 ** 9
        assert sum_rule_order_direct(zero, ctx, cap=10 ** 9) == 10 ** 9


def test_unit_moment_line_is_a_column_of_the_fraction_inverse():
    # the adjugate over the determinant, against Gauss-Jordan in Fractions
    for cap in range(8):
        inverse = matrix_inverse([[s ** g for s in range(cap + 1)]
                                  for g in range(cap + 1)])
        for target in range(cap + 1):
            assert _unit_moment_line(cap, target) == \
                tuple(row[target] for row in inverse)


def test_order_examples_1d(ctx1):
    assert sum_rule_order(TrigPoly(1, {(0,): 1, (1,): 1}), ctx1) == 0
    halved_square = TrigPoly(1, {(0,): Fraction(1, 2), (1,): 1,
                                 (2,): Fraction(1, 2)})
    assert sum_rule_order(halved_square, ctx1) == 1
    assert sum_rule_order(TrigPoly.constant(1, 1), ctx1) == -1


def test_example_mask_order(example_ctx, example_mask):
    assert sum_rule_order(example_mask, example_ctx) == 0
    taus = example_mask.polyphase_split(example_ctx)
    for tau in taus:
        assert tau.eval_at_rational((0, 0)) == Fraction(1)


def test_value_identity_iff_order0(example_ctx):
    # both directions of the polyphase-value characterization of order 0
    rng = random.Random(21)
    seen_in, seen_out = 0, 0
    for _ in range(60):
        t = random_mask(rng, 2, n_terms=5)
        if t.is_zero():
            continue
        taus = t.polyphase_split(example_ctx)
        target = t.value_at_zero() * Fraction(1, example_ctx.m)
        values_equal = all(tau.eval_at_rational((0, 0)) == target for tau in taus)
        in_class = sum_rule_order(t, example_ctx, cap=0) >= 0
        assert values_equal == in_class
        seen_in += in_class
        seen_out += not in_class
    # build masks that are certainly in the class, to hit both branches
    for _ in range(5):
        t = random_class_mask(rng, example_ctx, 0)
        taus = t.polyphase_split(example_ctx)
        target = t.value_at_zero() * Fraction(1, example_ctx.m)
        assert all(tau.eval_at_rational((0, 0)) == target for tau in taus)
        assert sum_rule_order(t, example_ctx, cap=0) >= 0
        seen_in += 1
    assert seen_in and seen_out


def test_checkers_agree_random(example_ctx, ctx1):
    rng = random.Random(33)
    two_i = DilationContext.create([[2, 0], [0, 2]])
    for ctx in (ctx1, example_ctx, two_i):
        for _ in range(30):
            t = random_mask(rng, ctx.dim, n_terms=5)
            direct = sum_rule_order_direct(t, ctx, cap=2)
            assert sum_rule_order(t, ctx, cap=2) == direct  # dual-route internal
        for order in (0, 1, 2):
            t = random_class_mask(rng, ctx, order)
            assert sum_rule_order_direct(t, ctx, cap=2) >= order
            assert sum_rule_order(t, ctx, cap=2) >= order


def test_derivative_table_examples(example_ctx):
    all_ones = TrigPoly(2, {s: 1 for s in example_ctx.digits})
    table = derivative_table(all_ones, example_ctx, 0)
    assert table.value((0, 0)) == Fraction(example_ctx.m)


def test_derivative_table_rejects_wrong_class(example_ctx, example_mask):
    with pytest.raises(NotInClass):
        derivative_table(example_mask, example_ctx, 1)  # mask is order 0 only


def test_scan_hands_back_the_derivative_table(example_ctx, ctx1):
    rng = random.Random(41)
    for ctx in (ctx1, example_ctx):
        masks = [random_mask(rng, ctx.dim, n_terms=5) for _ in range(6)]
        masks += [random_class_mask(rng, ctx, order) for order in (0, 1, 2)]
        for t in masks:
            order, table = sum_rule_order(t, ctx, cap=3, with_table=True)
            assert order == sum_rule_order(t, ctx, cap=3)
            if order < 0:
                assert table is None
            else:
                assert table == derivative_table(t, ctx, order)


def test_table_round_trip(example_ctx):
    rng = random.Random(14)
    for order in (0, 1, 2):
        values = {beta: CyclotomicNumber.from_rational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for beta in multi_indices_up_to(2, order)}
        values[(0, 0)] = CyclotomicNumber.from_rational(4)
        table = DerivativeTable(dim=2, order=order, values=values)
        mask = mask_from_derivative_table(example_ctx, table)
        assert sum_rule_order(mask, example_ctx, cap=order) >= order
        back = derivative_table(mask, example_ctx, order)
        assert all(back.values[b] == values[b] for b in values)


def test_mask_from_order0_table(example_ctx):
    values = {(0, 0): CyclotomicNumber.from_rational(example_ctx.m)}
    mask = mask_from_derivative_table(
        example_ctx, DerivativeTable(dim=2, order=0, values=values))
    for tau in mask.polyphase_split(example_ctx):
        assert tau.eval_at_rational((0, 0)) == Fraction(1)
    assert mask.value_at_zero() == Fraction(example_ctx.m)


def test_unit_derivative_poly_conditions():
    # exhaustive postconditions for caps <= 3 in dimensions 1..3
    for dim in (1, 2, 3):
        for cap in range(4):
            for target in multi_indices_up_to(dim, cap):
                poly = unit_derivative_poly(cap, target, dim)
                zero = (0,) * dim
                for gamma in multi_indices_up_to(dim, cap):
                    want = Fraction(int(gamma == target))
                    assert poly.normalized_derivative(gamma, zero) == want


def test_unit_derivative_poly_examples():
    assert unit_derivative_poly(0, (0, 0), 2) == TrigPoly.constant(2, 1)
    g = unit_derivative_poly(1, (1, 0), 2)
    zero = (0, 0)
    assert g.normalized_derivative((1, 0), zero) == Fraction(1)
    assert g.normalized_derivative((0, 0), zero) == Fraction(0)
    assert g.normalized_derivative((0, 1), zero) == Fraction(0)
    g2 = unit_derivative_poly(2, (1, 1), 2)
    for gamma in multi_indices_up_to(2, 2):
        assert g2.normalized_derivative(gamma, zero) == \
            Fraction(int(gamma == (1, 1)))


def test_digit_interpolant_matrix_identity(example_ctx):
    # interpolation matrix across all digit pairs is exactly the identity
    inverse = fraction_inverse(example_ctx)
    for nu in range(example_ctx.m):
        h = digit_interpolant(nu, example_ctx)
        for mu, dual in enumerate(example_ctx.dual_digits):
            assert fraction_dilated_derivative(h, inverse, (0, 0), dual) == \
                Fraction(int(mu == nu))


def test_digit_interpolant_leading(example_ctx):
    h0 = digit_interpolant(0, example_ctx)
    assert all(c == Fraction(1, example_ctx.m) for c in h0.terms.values())
    assert set(h0.terms) == set(example_ctx.digits)


def test_digit_interpolants_are_built_once_per_context(example_ctx):
    # equal contexts hash alike, so a lift on a context built again reads
    # the interpolants already built
    again = DilationContext.create(example_ctx.matrix, example_ctx.digits,
                                   example_ctx.dual_digits)
    assert all(digit_interpolant(nu, again) is digit_interpolant(nu, example_ctx)
               for nu in range(example_ctx.m))
    with pytest.raises(ValueError):
        digit_interpolant(-1, example_ctx)


def test_digit_interpolants_sum_to_one_at_duals(example_ctx):
    total = TrigPoly.zero(2)
    for nu in range(example_ctx.m):
        total = total + digit_interpolant(nu, example_ctx)
    inverse = fraction_inverse(example_ctx)
    for dual in example_ctx.dual_digits:
        assert fraction_dilated_derivative(total, inverse, (0, 0), dual) == \
            Fraction(1)


def test_multi_index_enumeration():
    assert list(multi_indices(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(multi_indices_up_to(1, 2)) == [(0,), (1,), (2,)]


def test_table_json_round_trip(example_ctx):
    rng = random.Random(2)
    values = {beta: CyclotomicNumber.from_rational(Fraction(rng.randint(-3, 3)))
              for beta in multi_indices_up_to(2, 1)}
    table = DerivativeTable(dim=2, order=1, values=values)
    # nothing reads a table back, so its JSON form is checked against values
    doc = table.to_json()
    assert doc["order"] == 1
    assert [tuple(item["beta"]) for item in doc["values"]] == sorted(values)
    assert all(item["value"] == values[tuple(item["beta"])].to_json()
               for item in doc["values"])
