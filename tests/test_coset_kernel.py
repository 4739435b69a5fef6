"""The integer coset kernel of DilationContext against the Fraction oracle.

Cosets of matrix Z^d are decided by adjugate @ vec modulo |det| and quotients
by exact division by det.  The properties below draw dilations in dimensions
1-3 and check that kernel against the fractional part of inverse @ vec (the
key the kernel replaced, kept in conftest), the polyphase round trip of
base_point, the inverse-dilation substitution and the digit-set validation.
The dual lattice is the context of the transposed dilation with the dual
digits.  The integer adjugate and similarity products are checked against
the Fraction inverse they replaced.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (CASES, contexts, coset_fraction_key, dilations,
                      dual_context, fraction_dilated_derivative,
                      fraction_inverse, points, rationals,
                      similarity_reference)
from maskforge.errors import UserDigitsInvalid
from maskforge.lattice import (DilationContext, adjugate, digit_set,
                               is_isotropic, mat_vec)
from maskforge.trigpoly import TrigPoly

# deterministic and small: the whole module runs in under a second
PROFILE = settings(max_examples=15, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])

DIMS = pytest.mark.parametrize("dim", [1, 2, 3])


@DIMS
@PROFILE
@given(data=st.data())
def test_coset_index_partitions_as_fraction_oracle(dim, data):
    primal = DilationContext.create(data.draw(dilations(dim)))
    vecs = data.draw(st.lists(points(dim, 4), min_size=2, max_size=8))
    for ctx in (primal, dual_context(primal)):
        inverse = fraction_inverse(ctx)
        assert [ctx.coset_index(s) for s in ctx.digits] == list(range(ctx.m))
        for a, b in itertools.combinations(vecs, 2):
            same = coset_fraction_key(inverse, a) == coset_fraction_key(inverse, b)
            assert (ctx.coset_index(a) == ctx.coset_index(b)) == same


@DIMS
@PROFILE
@given(data=st.data())
def test_base_point_round_trip(dim, data):
    primal = DilationContext.create(data.draw(dilations(dim)))
    vec = data.draw(points(dim, 6))
    for ctx in (primal, dual_context(primal)):
        idx, quot = ctx.base_point(vec)
        assert idx == ctx.coset_index(vec)
        assert all(type(q) is int for q in quot)
        assert tuple(x + s for x, s in
                     zip(mat_vec(ctx.matrix, quot), ctx.digits[idx])) == vec


@CASES
@PROFILE
@given(data=st.data())
def test_base_point_recovers_quotient_and_digit(dim, positive, data):
    # vec = matrix @ q + digit[idx] is split back into exactly (idx, q)
    primal = data.draw(contexts(dim, positive))
    q = data.draw(points(dim, 6))
    for ctx in (primal, dual_context(primal)):
        idx = data.draw(st.integers(0, ctx.m - 1))
        vec = tuple(x + s for x, s in zip(mat_vec(ctx.matrix, q), ctx.digits[idx]))
        assert ctx.base_point(vec) == (idx, q)


@CASES
@PROFILE
@given(data=st.data())
def test_adjugate_and_similarity_products_match_the_fraction_inverse(
        dim, positive, data):
    # the adjugate is det times the Fraction inverse, and the similarity
    # products from integer powers over |det|^k equal those of the inverse
    ctx = data.draw(contexts(dim, positive))
    assert adjugate(ctx.matrix) == ctx.adjugate == tuple(
        tuple(ctx.det * x for x in row) for row in fraction_inverse(ctx))
    assert is_isotropic(ctx.matrix).max_similarity_product \
        == similarity_reference(ctx.matrix)


@DIMS
@PROFILE
@given(data=st.data())
def test_compose_dilate_undoes_inverse_dilate(dim, data):
    ctx = DilationContext.create(data.draw(dilations(dim)))
    terms = data.draw(st.dictionaries(points(dim, 3), rationals(), max_size=5))
    t = TrigPoly(dim, terms)
    # t(transpose(matrix) inverse-transpose x) = t(x), field for field
    dilated, inverse = t.compose_dilate(ctx.matrix), fraction_inverse(ctx)
    beta = data.draw(st.tuples(*[st.integers(0, 1)] * dim))
    for p in data.draw(st.lists(points(dim).map(
            lambda v: tuple(Fraction(x, 6) for x in v)), min_size=1, max_size=3)):
        got = fraction_dilated_derivative(dilated, inverse, beta, p)
        want = t.normalized_derivative(beta, p)
        assert (got.order, got.coords) == (want.order, want.coords)


@DIMS
@PROFILE
@given(data=st.data())
def test_digit_set_rejects_congruent_pair(dim, data):
    matrix = data.draw(dilations(dim))
    digits = list(digit_set(matrix))
    m = len(digits)
    i = data.draw(st.integers(1, m - 1))
    j = data.draw(st.integers(0, m - 1).filter(lambda k: k != i))
    lift = data.draw(points(dim, 2))
    moved = tuple(x + s for x, s in zip(mat_vec(matrix, lift), digits[i]))
    # the same coset, another representative: still a complete digit set
    valid = digits[:i] + [moved] + digits[i + 1:]
    assert digit_set(matrix, valid) == tuple(valid)
    congruent = tuple(x + s for x, s in zip(mat_vec(matrix, lift), digits[j]))
    with pytest.raises(UserDigitsInvalid, match="congruent pair"):
        digit_set(matrix, digits[:i] + [congruent] + digits[i + 1:])
