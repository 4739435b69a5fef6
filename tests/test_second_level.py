"""The C1 scheme from the shared level step, against its reference.

second_difference_scheme reads the difference scheme T back as the first
decomposition level, takes one more level at class 0 (decompose._next_level)
and lays it out in Kronecker-power order (decompose._symbol_matrix), the
step and layout decompose_levels uses.  Its reference
(conftest.reference_second_difference_scheme) decomposes each entry of T on
its own and re-lays the blocks out by hand.  The property draws dilations in
dimensions 1-3, masks built from derivative tables at orders 1-3 with
rational or Q(zeta_3) values, some times an M-periodic factor, and requires
every entry's terms, the order each value is held at and the key order to
match.  It also pins the relation the shared step rests on: up to order 2
the C1 scheme is the layout of decompose_levels(t, ctx, 2, order); at order
3 decompose_levels lifts its second level and the C1 scheme does not, so on
the order-3 golden mask the two differ.
"""

import random

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import (contexts, points, random_class_mask,
                      random_cyclotomic_class_mask,
                      reference_second_difference_scheme, term_fields)
from maskforge.cyclotomic import root_of_unity
from maskforge.decompose import decompose_levels, decompose_to_class
from maskforge.lattice import DilationContext, mat_vec
from maskforge.subdivision import MatrixMask, second_difference_scheme
from maskforge.trigpoly import TrigPoly


@st.composite
def cases(draw):
    """(context, order, seed, roots, period): a mask of the order built from
    seed, with Q(zeta_3) table values when roots is (3,), times
    1 + zeta_3 z^(matrix w) + zeta_3^2 z^(2 matrix w) when period is w.  The
    factor is M-periodic, so the product keeps the mask's sum rules; its
    values sum to 1 + zeta_3 + zeta_3^2 = 0 at the origin and along the
    lines the decompositions telescope."""
    dim = draw(st.integers(1, 3))
    ctx = draw(contexts(dim, draw(st.booleans())))
    # a drawn 3-d mask at order 3 takes up to a second on 2I; the example
    # below runs one on a det-2 dilation
    order = draw(st.integers(1, 3 if dim < 3 else 2))
    roots = draw(st.sampled_from([None, (3,)]))
    period = draw(st.none() | points(dim, 1).filter(any))
    return ctx, order, draw(st.integers(0, 2 ** 16)), roots, period


def build(ctx, order, seed, roots, period) -> TrigPoly:
    rng = random.Random(seed)
    if roots is None:
        mask = random_class_mask(rng, ctx, order)
    else:
        mask = random_cyclotomic_class_mask(rng, ctx, order, roots)
    if period is not None:
        step = mat_vec(ctx.matrix, period)
        mask = mask * TrigPoly(ctx.dim, {(0,) * ctx.dim: 1,
                                         step: root_of_unity(3, 1),
                                         tuple(2 * x for x in step): root_of_unity(3, 2)})
    return mask


def matrix_fields(mask: MatrixMask) -> list:
    """term_fields of every entry, row by row: == would promote across
    orders and hide a value held in the wrong field."""
    return [[term_fields(entry.terms) for entry in row] for row in mask.entries]


# the golden order-3 mask on 2I (test_golden_cyclotomic's twice2_cyc3_order3)
TWICE2_CYC3_ORDER3 = (DilationContext.create(((2, 0), (0, 2))), 3, 1, (3,), None)


@settings(max_examples=16, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(case=cases())
# a rational mask times 1 + zeta_3 z^(2, 0) + zeta_3^2 z^(4, 0): t(0) and
# the entries' sums at the origin are 1 + zeta_3 + zeta_3^2 times a
# rational, and vanish, as do sums of T's entries along the telescoped lines
@example(case=(DilationContext.create(((2, 0), (0, 2))), 1, 3, None, (1, 0)))
@example(case=TWICE2_CYC3_ORDER3)
# a 3-d order-3 mask, whose second level decompose_levels lifts in 3-d
@example(case=(DilationContext.create(((0, 0, 2), (1, 0, 0), (0, 1, 0))), 3, 5,
               (3,), None))
def test_second_level_matches_the_reference(case):
    ctx, order = case[0], case[1]
    mask = build(*case)
    T = MatrixMask.from_decomposition(decompose_to_class(mask, ctx, order))
    Q = second_difference_scheme(T, ctx)
    assert matrix_fields(Q) == matrix_fields(reference_second_difference_scheme(T, ctx))
    levels = MatrixMask.from_decomposition(decompose_levels(mask, ctx, 2, order))
    if order <= 2:
        assert matrix_fields(Q) == matrix_fields(levels)
    elif case is TWICE2_CYC3_ORDER3:
        assert matrix_fields(Q) != matrix_fields(levels)
