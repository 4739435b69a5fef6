"""The certificate search of rational schemes against the generic reference.

For a rational square scheme, the certificate search forms each operator
power in integers over one denominator D^L and reads its norm as one
Fraction.  operator_powers and operator_norm, which hold every power as a
TrigPoly matrix, are the reference: the properties below draw rational
matrix masks (1x1 to 3x3, coefficients held at field orders 1, 2 and 4)
over dilations in dimensions 1-3 with determinants of both signs, and
require the same bounds at every power up to 3, with and without a growth
matrix.
"""

import random
from fractions import Fraction

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import CASES, contexts, random_class_mask
from maskforge.lattice import DilationContext, power_inf_norm, transpose
from maskforge.subdivision import (MatrixMask, _certificate_search,
                                   check_convergence, operator_norm,
                                   operator_powers)
from test_exact_kernels import coefficients, polys

# deterministic and small; no shrinking, as in test_intertwining
PROFILE = settings(max_examples=5, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])


def rational_masks(dim):
    entries = polys(dim, values=coefficients(orders=(1, 2, 4), rational=True))
    return st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)).map(
            MatrixMask)


def reference_search(mask, ctx, cap, growth):
    bounds = []
    for L, symbol, dilation in operator_powers(mask, ctx, cap):
        bound = operator_norm(symbol, dilation)
        if growth is not None:
            bound = bound * power_inf_norm(growth, L)
        bounds.append((L, bound))
        if bound.certified_below(1):
            break
    return bounds


@CASES
@PROFILE
@given(data=st.data())
def test_integer_search_matches_the_reference(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    mask = data.draw(rational_masks(dim))
    assert mask.is_rational()
    for growth in (None, transpose(ctx.matrix)):
        bounds, certificate = _certificate_search(mask, ctx, 3, 128, growth)
        assert bounds == reference_search(mask, ctx, 3, growth)
        assert certificate == (bounds[-1][0] if bounds[-1][1].certified_below(1)
                               else None)


def test_large_3d_trajectory_norms():
    # values recorded from the generic TrigPoly path; 309,324 frequencies
    # at L=4, which is why the test stops at L=3
    ctx = DilationContext.create(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    t = random_class_mask(random.Random(4), ctx, 2)
    T = check_convergence(t, ctx, power_cap=0).difference_mask
    bounds, certificate = _certificate_search(T, ctx, 3, 128)
    assert bounds == [(1, Fraction(1937, 48)), (2, Fraction(9820145, 18432)),
                      (3, Fraction(463800598219, 226492416))]
    assert certificate is None
