"""The int-coded decomposition against the references it replaced, over
random dilations.

decompose._telescope codes every point it meets on one box and sums a
value as one int numerator when every value of the mask is rational; its
reference (conftest.reference_telescope) telescopes tuple-keyed vectors.
decompose._correction_block and the row exchanges of decompose._lift merge
integer vectors and signed shifts; their references
(conftest.reference_correction_block and reference_lift) fold TrigPoly
products, sums and compose_dilate.  The property draws dilations in
dimensions 1-3 with |det| <= 8, masks built from derivative tables at
orders 0-3 with rational or Q(zeta_3) values, some of them times a factor
1 + c z^(matrix v) so that sums vanish on the lines of the telescoping, and
requires every entry's terms, the order each value is held at and the key
order to match.
"""

import random
from fractions import Fraction

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import (EXAMPLE_DILATION, contexts, points, random_class_mask,
                      random_cyclotomic_class_mask, reference_correction_block,
                      reference_lift, reference_telescope, term_fields)
from maskforge.cyclotomic import root_of_unity
from maskforge.decompose import (_correction_block, _plain, _telescope,
                                 decompose_to_class)
from maskforge.lattice import DilationContext, mat_vec
from maskforge.sumrules import _direct_kernel
from maskforge.trigpoly import TrigPoly

QUINCUNX = ((1, 1), (-1, 1))


@st.composite
def cases(draw):
    """(context, order, seed, roots, spread): a mask of the order built from
    seed, with Q(zeta_3) table values when roots is (3,), times
    1 + c z^(matrix w) when spread is (w, c)."""
    dim = draw(st.integers(1, 3))
    ctx = draw(contexts(dim, draw(st.booleans())))
    order = draw(st.integers(0, 3))
    roots = draw(st.sampled_from([None, (3,)]))
    spread = draw(st.none() | st.tuples(
        points(dim, 2).filter(any),
        st.sampled_from([Fraction(1), Fraction(-1, 2), root_of_unity(3)])))
    return ctx, order, draw(st.integers(0, 2 ** 16)), roots, spread


def build(ctx, order, seed, roots, spread) -> TrigPoly:
    rng = random.Random(seed)
    if roots is None:
        mask = random_class_mask(rng, ctx, order)
    else:
        mask = random_cyclotomic_class_mask(rng, ctx, order, roots)
    if spread is not None:
        w, c = spread
        mask = mask * TrigPoly(ctx.dim, {(0,) * ctx.dim: 1,
                                         mat_vec(ctx.matrix, w): c})
    return mask


def entry_fields(entries: dict) -> dict:
    return {key: term_fields(entry.terms) for key, entry in entries.items()}


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(case=cases())
# sums vanish on the lines: running sums, collapses, and differences at
# x_j = 0, one of them the first point of a line whose quotient then
# follows its next point
@example(case=(DilationContext.create(EXAMPLE_DILATION), 1, 0, None,
               ((-2, -1), Fraction(-1, 2))))
# an order-3 mask: two lift passes
@example(case=(DilationContext.create(QUINCUNX), 3, 5, None, None))
# a rational mask whose lifted entries hold rationals at order 4
@example(case=(DilationContext.create(EXAMPLE_DILATION), 2, 7, None, None))
def test_coded_decomposition_matches_the_references(case):
    ctx, order = case[0], case[1]
    mask = build(*case)
    plain = _plain(mask, ctx, reference_telescope(mask, ctx), -1)
    assert entry_fields(_plain(mask, ctx, _telescope(mask, ctx), -1).entries) == \
        entry_fields(plain.entries)
    want = reference_lift(plain, order) if order >= 2 else plain
    assert entry_fields(decompose_to_class(mask, ctx, order).entries) == \
        entry_fields(want.entries)
    # each correction block of the first lift pass, on its own
    d = ctx.dim
    for l in range(1, d):
        for k in range(1, d + 1):
            kernel = _direct_kernel(plain.entry(l, k), ctx)
            for j in range(l + 1, d + 1):
                for n in range(1, order):
                    assert term_fields(_correction_block(kernel, ctx, n, l, j).terms) == \
                        term_fields(reference_correction_block(kernel, ctx, n, l, j).terms)
