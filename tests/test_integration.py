"""Cross-module exercises on less symmetric inputs."""

import random
from fractions import Fraction

from conftest import (digit_fourier_is_unitary, random_class_mask, random_mask,
                      random_sequence)
from maskforge.cyclotomic import CyclotomicNumber, root_of_unity
from maskforge.decompose import decompose_mask, refine_decomposition
from maskforge.lattice import DilationContext
from maskforge.subdivision import (MatrixMask, apply, check_c1, gradient,
                                   second_difference_scheme)
from maskforge.sumrules import (DerivativeTable, derivative_table,
                                mask_from_derivative_table,
                                multi_indices_up_to, sum_rule_order,
                                sum_rule_order_direct)


def asymmetric_ctx():
    # transpose differs from the matrix, so primal and dual digit data split
    return DilationContext.create([[1, -1], [1, 1]])


def test_asymmetric_dilation_digit_machinery():
    ctx = asymmetric_ctx()
    assert ctx.m == 2
    assert ctx.dual_matrix != ctx.matrix
    assert digit_fourier_is_unitary(ctx)


def test_asymmetric_dilation_full_pipeline():
    ctx = asymmetric_ctx()
    rng = random.Random(77)
    # checker equivalence on raw masks
    for _ in range(25):
        t = random_mask(rng, 2, n_terms=5)
        assert sum_rule_order(t, ctx, cap=2) == \
            sum_rule_order_direct(t, ctx, cap=2)
    # order-1 mask: decomposition + refinement + operator identities
    t = random_class_mask(rng, ctx, 1)
    assert t.value_at_zero() == Fraction(2)
    dec = decompose_mask(t, ctx)
    assert dec.identity_holds() and dec.value_constraint_holds()
    assert dec.achieved_class == 0
    T = MatrixMask.from_decomposition(dec)
    Q = second_difference_scheme(T, ctx)
    for _ in range(15):
        f = random_sequence(rng, 2)
        assert gradient(apply(t, ctx, f)) == apply(T, ctx, gradient(f))
        g = random_sequence(rng, 2, width=2, n_points=4)
        assert gradient(apply(T, ctx, g)) == apply(Q, ctx, gradient(g))


def test_asymmetric_dilation_smoothness_report_runs():
    # the matrix is isotropic (eigenvalues 1 +- i), so every gate can engage
    ctx = asymmetric_ctx()
    rng = random.Random(78)
    t = random_class_mask(rng, ctx, 1)
    report = check_c1(t, ctx, power_cap=2)
    assert report.isotropy.verdict == "yes"
    assert report.verdict in ("C1", "inconclusive")
    assert report.in_order1_class
    assert len(report.products) >= 1


def test_cyclotomic_coefficient_mask_pipeline(example_ctx):
    # a derivative table with a genuinely cyclotomic entry flows through
    # construction, both checkers, decomposition, and refinement
    i = root_of_unity(4, 1)
    values = {beta: CyclotomicNumber.from_rational(0)
              for beta in multi_indices_up_to(2, 2)}
    values[(0, 0)] = CyclotomicNumber.from_rational(4)
    values[(1, 0)] = 1 + i
    values[(0, 2)] = i * Fraction(1, 2)
    table = DerivativeTable(dim=2, order=2, values=values)
    mask = mask_from_derivative_table(example_ctx, table)
    assert any(not c.is_rational() for c in mask.terms.values())
    assert sum_rule_order(mask, example_ctx, cap=2) >= 2
    back = derivative_table(mask, example_ctx, 2)
    assert back.values[(1, 0)] == 1 + i
    dec = refine_decomposition(mask, decompose_mask(mask, example_ctx),
                               example_ctx, 2)
    assert dec.achieved_class == 1
    assert dec.identity_holds()
    for j in (1, 2):
        for k in (1, 2):
            assert sum_rule_order_direct(dec.entry(j, k), example_ctx,
                                         cap=1) >= 1
