"""The dilated evaluation t(inverse-transpose x) against the Fraction oracle,
over random dilations.

The direct checker's kernel maps each integer frequency to g = sign(det) *
adjugate @ freq over m = |det| and sums numerator * g^beta at the nonzero
dual digits (trigpoly._point_moments), each sum labelled with the order its
value is held at; the lift reads its weights there.  The properties below
draw dilations in dimensions 1-3 with determinants of both signs and masks
with rational and cyclotomic coefficients.  They require every derivative
of order at most 2 at every nonzero dual digit, read off the kernel at its
label over t.den * m^|beta|, to equal, field for field, the sum of coeff *
(inverse @ freq)^beta * e^(2*pi*i*(inverse @ freq, p)) folded in Fractions,
and masks built from derivative tables to reach their order by both
sum-rule checkers.
"""

import random

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (CASES, contexts, fraction_dilated_derivative,
                      fraction_inverse, points, random_class_mask,
                      random_cyclotomic_class_mask, rationals)
from maskforge.sumrules import (_direct_kernel, multi_indices_up_to,
                                sum_rule_order, sum_rule_order_direct)
from maskforge.trigpoly import (TrigPoly, _number, _point_moments,
                                _point_orders)
from test_exact_kernels import coefficients

# deterministic and small: the whole module runs in about two seconds
PROFILE = settings(max_examples=5, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])


@CASES
@PROFILE
@given(data=st.data())
def test_dilated_derivatives_match_the_fraction_oracle(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    t = TrigPoly(dim, data.draw(st.dictionaries(
        points(dim, 3), coefficients(orders=(1, 1, 3, 4)), max_size=5)))
    kernel, inverse = _direct_kernel(t, ctx), fraction_inverse(ctx)
    for beta in multi_indices_up_to(dim, 2):
        moments = zip(_point_moments(kernel, beta), _point_orders(kernel, beta))
        for dual, (vec, order) in zip(ctx.dual_digits[1:], moments, strict=True):
            got = _number(vec, kernel[0], order, kernel[1] * ctx.m ** sum(beta))
            want = fraction_dilated_derivative(t, inverse, beta, dual)
            assert (got.order, got.coords) == (want.order, want.coords)


@CASES
@PROFILE
@given(data=st.data())
def test_built_masks_reach_their_order_by_both_checkers(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    order = data.draw(st.integers(0, 2))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    if data.draw(st.booleans()):
        mask = random_cyclotomic_class_mask(rng, ctx, order, (3,))
    else:
        mask = random_class_mask(rng, ctx, order)
    assert sum_rule_order(mask, ctx, cap=order) == order
    assert sum_rule_order_direct(mask, ctx, cap=order) == order
    # one more term usually breaks the rules; sum_rule_order raises
    # MethodDisagreement unless the direct and polyphase checkers agree
    bumped = mask + TrigPoly.monomial(dim, data.draw(points(dim, 3)),
                                      data.draw(rationals()))
    assert sum_rule_order(bumped, ctx, cap=order) <= order
