"""The integer decisions of the sum-rule and decomposition layers against the
field-arithmetic references they replaced, over random dilations.

The direct checker decides each order on integer vectors tested modulo the
cyclotomic polynomial; the reference asks the Fraction oracle
(conftest.fraction_dilated_derivative) for every derivative value and
whether it is zero.  The decomposition guards decide the identity
by shifted integer numerators; the reference multiplies TrigPolys.  The plain
decomposition telescopes integer numerator vectors; the reference subtracts,
collapses and divides TrigPolys (conftest.folded_plain_rows).  The
properties draw dilations in dimensions 1-3 with determinants of both signs
(test_dilated_evaluation.contexts), coefficients in the fields of orders 1,
3, 4, 5 and 15, masks built from derivative tables at their order and one
above it, and decompositions tampered at one coefficient.
"""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (CASES, contexts, folded_plain_rows,
                      fraction_dilated_derivative, fraction_inverse, points,
                      random_class_mask, random_cyclotomic_class_mask)
from maskforge import cli
from maskforge.cyclotomic import CyclotomicNumber, root_of_unity
from maskforge.decompose import (MaskDecomposition, _plain,
                                 decompose_levels, decompose_to_class,
                                 dilated_difference, plain_difference)
from maskforge.lattice import mat_vec
from maskforge.sumrules import (_direct_kernel, _direct_order_holds,
                                derivative_table, digit_interpolant,
                                multi_indices, unit_derivative_poly)
from maskforge.trigpoly import TrigPoly
from test_dilated_evaluation import PROFILE
from test_exact_kernels import coefficients

ORDERS = (1, 3, 4, 5, 15)


def reference_order_holds(t, ctx, total):
    """Every total-order derivative value at every nonzero dual digit is
    zero, asked of the Fraction oracle value by value."""
    inverse = fraction_inverse(ctx)
    return all(fraction_dilated_derivative(t, inverse, beta, dual).is_zero()
               for dual in ctx.dual_digits[1:]
               for beta in multi_indices(ctx.dim, total))


def class_mask(data, ctx):
    """A mask built for a drawn order (0-2 in one and two dimensions, 0-1 in
    three), with rational or cyclotomic table values, and that order."""
    order = data.draw(st.integers(0, 2 if ctx.dim < 3 else 1))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    roots = data.draw(st.sampled_from([None, (3,), (5,), (3, 5)]))
    if roots is None:
        return random_class_mask(rng, ctx, order), order
    return random_cyclotomic_class_mask(rng, ctx, order, roots), order


@CASES
@PROFILE
@given(data=st.data())
def test_direct_kernel_matches_derivative_values(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    t = TrigPoly(dim, data.draw(st.dictionaries(
        points(dim, 3), coefficients(orders=ORDERS), max_size=5)))
    mask, order = class_mask(data, ctx)
    for poly in (t, mask):
        kernel = _direct_kernel(poly, ctx)
        for total in range(4):
            assert _direct_order_holds(kernel, ctx, total) == \
                reference_order_holds(poly, ctx, total)
    # totals 0-3 cover each class mask's order and the one above it
    assert all(_direct_order_holds(_direct_kernel(mask, ctx), ctx, total)
               for total in range(order + 1))


@CASES
@PROFILE
@given(data=st.data())
def test_direct_kernel_decides_each_dual_digit(dim, positive, data):
    # the checker's verdict is the same at delta and -delta taken together,
    # so each digit is compared alone: H_nu(inverse-transpose x) is nonzero
    # at dual digit nu only
    ctx = data.draw(contexts(dim, positive))
    nu = data.draw(st.integers(1, ctx.m - 1)) if ctx.m > 1 else 0
    t = digit_interpolant(nu, ctx).scale(data.draw(coefficients(orders=ORDERS)))
    field, den, images, shifted, powers = _direct_kernel(t, ctx)
    inverse = fraction_inverse(ctx)
    for total in range(3):
        for dual, terms in zip(ctx.dual_digits[1:], shifted):
            assert _direct_order_holds((field, den, images, [terms], powers),
                                       ctx, total) == \
                all(fraction_dilated_derivative(t, inverse, beta, dual).is_zero()
                    for beta in multi_indices(dim, total))


@CASES
@PROFILE
@given(data=st.data())
def test_table_values_keep_their_field_order(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    mask, order = class_mask(data, ctx)
    table = derivative_table(mask, ctx, order)
    tau0 = mask.polyphase_split(ctx)[0]
    for beta, value in table.values.items():
        want = tau0.normalized_derivative(beta, (0,) * dim) * ctx.m
        assert (value.order, value.coords) == (want.order, want.coords)


def fold_value_at_zero(t):
    """The coefficients summed one CyclotomicNumber addition at a time."""
    acc = CyclotomicNumber.zero()
    for coeff in t.terms.values():
        acc = acc + coeff
    return acc


@pytest.mark.parametrize("dim", [1, 2, 3])
@PROFILE
@given(data=st.data())
def test_value_at_zero_matches_the_fold(dim, data):
    t = TrigPoly(dim, data.draw(st.dictionaries(
        points(dim, 3), coefficients(orders=ORDERS), max_size=6)))
    got, want = t.value_at_zero(), fold_value_at_zero(t)
    assert (got.order, got.coords) == (want.order, want.coords)


def reference_identity_holds(dec):
    """The length-n product identity by TrigPoly products, as it was."""
    d = dec.ctx.dim
    for k_tuple in dec.axis_tuples():
        lhs = dec.source
        for k in k_tuple:
            lhs = lhs * plain_difference(d, k)
        rhs = TrigPoly.zero(d)
        for j_tuple in dec.axis_tuples():
            term = dec.entries[(j_tuple, k_tuple)]
            for j in j_tuple:
                term = term * dilated_difference(dec.ctx, j)
            rhs = rhs + term
        if lhs != rhs:
            return False
    return True


def reference_value_constraint_holds(dec):
    t0, inverse = fold_value_at_zero(dec.source), fraction_inverse(dec.ctx)
    for (j_tuple, k_tuple), entry in dec.entries.items():
        factor = Fraction(1)
        for j, k in zip(j_tuple, k_tuple):
            factor *= inverse[j - 1][k - 1]
        if fold_value_at_zero(entry) != t0 * factor:
            return False
    return True


def tampered(dec, key, freq, delta):
    entries = dict(dec.entries)
    entries[key] = entries[key] + TrigPoly.monomial(dec.ctx.dim, freq, delta)
    return MaskDecomposition(source=dec.source, ctx=dec.ctx, order=dec.order,
                             entries=entries, achieved_class=dec.achieved_class)


@CASES
@PROFILE
@given(data=st.data())
def test_guards_match_the_product_reference(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    mask, order = class_mask(data, ctx)
    # order 2 lifts the entries (two-factor identities come from two levels)
    if data.draw(st.booleans()) or order == 0:
        dec = decompose_to_class(mask, ctx, order)
    else:
        dec = decompose_levels(mask, ctx, 2, order)
    assert dec.identity_holds() and reference_identity_holds(dec)
    assert dec.value_constraint_holds() and reference_value_constraint_holds(dec)
    key = data.draw(st.sampled_from(sorted(dec.entries)))
    entry = dec.entries[key]
    freq = data.draw(st.sampled_from(sorted(entry.terms) or [(0,) * dim]))
    delta = data.draw(st.sampled_from([root_of_unity(3), Fraction(1, 7)]))
    bad = tampered(dec, key, freq, delta)
    assert bad.identity_holds() == reference_identity_holds(bad) is False
    assert bad.value_constraint_holds() == \
        reference_value_constraint_holds(bad) is False


def entry_fields(dec):
    """Every entry's terms as (freq, order, coords) in key order: == would
    promote across orders and hide a value held in the wrong field."""
    return {key: [(f, c.order, c.coords) for f, c in entry.terms.items()]
            for key, entry in dec.entries.items()}


def spread_class_mask(data, ctx):
    """A class mask times 1 + c z^(matrix v), which keeps its class (the
    factor is a polynomial in the dilated variable): coefficients in
    different fields meet on the lines of the telescoping, and where the
    two copies of the mask do not overlap, running sums vanish between
    them."""
    mask, order = class_mask(data, ctx)
    v = mat_vec(ctx.matrix, data.draw(points(ctx.dim, 2).filter(any)))
    c = data.draw(coefficients(orders=ORDERS).filter(bool))
    return mask * TrigPoly(ctx.dim, {(0,) * ctx.dim: 1, v: c}), order


@CASES
@PROFILE
@given(data=st.data())
def test_telescoping_matches_the_fold(dim, positive, data):
    # every entry coefficient keeps the order the TrigPoly fold holds it at,
    # in the fold's key order; an order-2 source is compared at order 1, the
    # plain entries its lift starts from (the lift is the same code after)
    ctx = data.draw(contexts(dim, positive))
    mask, order = spread_class_mask(data, ctx)
    want = _plain(mask, ctx, folded_plain_rows(mask, ctx), -1)
    got = decompose_to_class(mask, ctx, min(order, 1))
    assert entry_fields(got) == entry_fields(want)


def test_unit_derivative_poly_rejects_non_integer_targets():
    exact = unit_derivative_poly(2, (1, 0), 2)
    for target in ((1.7, 0), (Fraction(3, 2), 0), (1.0, 0), (Fraction(1), 0)):
        with pytest.raises(TypeError):
            unit_derivative_poly(2, target, 2)
    assert unit_derivative_poly(2, (1, 0), 2) is exact


def test_parser_is_built_once_on_first_use():
    assert cli._shared_parser() is cli._shared_parser()
    # importing the CLI builds no parser
    code = ("import maskforge.cli as c; "
            "print(c._shared_parser.cache_info().currsize)")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "0"
