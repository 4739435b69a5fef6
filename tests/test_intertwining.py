"""Gradient intertwining over random dilations.

A decomposition of an order-1 mask t gives its difference scheme T with
grad(S_t f) = S_T grad(f), and decomposing the entries of T once more gives
Q with grad(S_T g) = S_Q grad(g).  Both identities are exact.  The
properties below draw dilations in dimensions 1-3 with determinants of both
signs, order-1 masks with rational or zeta_3 coefficients, and sequences
with rational and zeta_3 values, and require both sides to be the same
sequence.
"""

import random

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (CASES, contexts, points, random_class_mask,
                      random_cyclotomic_class_mask)
from maskforge.decompose import decompose_to_class
from maskforge.subdivision import (MatrixMask, Sequence, apply, gradient,
                                   second_difference_scheme)
from test_exact_kernels import coefficients

# deterministic and small; no shrinking, which takes minutes on these masks
# when a property fails
PROFILE = settings(max_examples=5, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])


def sequences(dim, width):
    """One to three points with rational values or values in Q(zeta_3)."""
    values = st.tuples(*[coefficients(orders=(1, 3))] * width)
    return st.dictionaries(points(dim, 2), values, min_size=1, max_size=3).map(
        lambda data: Sequence(dim, width, data))


@CASES
@PROFILE
@given(data=st.data())
def test_gradient_intertwines_both_difference_schemes(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    if data.draw(st.booleans()):
        t = random_cyclotomic_class_mask(rng, ctx, 1, (3,))
    else:
        t = random_class_mask(rng, ctx, 1)
    T = MatrixMask.from_decomposition(decompose_to_class(t, ctx, 1))
    Q = second_difference_scheme(T, ctx)
    f = data.draw(sequences(dim, 1))
    assert gradient(apply(t, ctx, f)) == apply(T, ctx, gradient(f))
    g = data.draw(sequences(dim, dim))
    assert gradient(apply(T, ctx, g)) == apply(Q, ctx, gradient(g))
