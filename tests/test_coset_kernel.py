"""The integer coset kernel of DilationContext against the Fraction oracle.

Cosets of matrix Z^d are decided by adjugate @ vec modulo |det| and quotients
by exact division by det.  The properties below draw dilations in dimensions
1-3 and check that kernel against the fractional part of inverse @ vec (the
key the kernel replaced, kept in conftest), the polyphase round trip of
base_point, the inverse-dilation substitution and the digit-set validation.
"""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coset_fraction_key
from maskforge.errors import UserDigitsInvalid
from maskforge.lattice import DilationContext, digit_set, mat_vec, transpose
from maskforge.trigpoly import TrigPoly
from test_apply_kernel import dilations, points, rationals

# deterministic and small: the whole module runs in under a second
PROFILE = settings(max_examples=15, deadline=None, derandomize=True,
                   database=None)

DIMS = pytest.mark.parametrize("dim", [1, 2, 3])


@DIMS
@PROFILE
@given(data=st.data())
def test_coset_index_partitions_as_fraction_oracle(dim, data):
    ctx = DilationContext.create(data.draw(dilations(dim)))
    vecs = data.draw(st.lists(points(dim, 4), min_size=2, max_size=8))
    for dual, inverse in ((False, ctx.inverse), (True, ctx.dual_inverse)):
        digits = ctx.dual_digits if dual else ctx.digits
        assert [ctx.coset_index(s, dual) for s in digits] == list(range(ctx.m))
        for a, b in itertools.combinations(vecs, 2):
            same = coset_fraction_key(inverse, a) == coset_fraction_key(inverse, b)
            assert (ctx.coset_index(a, dual) == ctx.coset_index(b, dual)) == same


@DIMS
@PROFILE
@given(data=st.data())
def test_base_point_round_trip(dim, data):
    ctx = DilationContext.create(data.draw(dilations(dim)))
    vec = data.draw(points(dim, 6))
    for dual in (False, True):
        matrix = transpose(ctx.matrix) if dual else ctx.matrix
        digits = ctx.dual_digits if dual else ctx.digits
        idx, quot = ctx.base_point(vec, dual)
        assert idx == ctx.coset_index(vec, dual)
        assert all(type(q) is int for q in quot)
        assert tuple(x + s for x, s in zip(mat_vec(matrix, quot), digits[idx])) == vec


@DIMS
@PROFILE
@given(data=st.data())
def test_compose_dilate_undoes_inverse_dilate(dim, data):
    ctx = DilationContext.create(data.draw(dilations(dim)))
    terms = data.draw(st.dictionaries(points(dim, 3), rationals(), max_size=5))
    denom = data.draw(st.integers(1, 4))
    t = TrigPoly(dim, terms, denom)
    inv = t.compose_inverse_dilate(ctx.inverse)
    assert inv.compose_dilate(ctx.matrix) == t
    # every frequency is inverse @ freq / denom, over the least denominator
    expected = {tuple(x / t.denom for x in mat_vec(ctx.inverse, f)): c
                for f, c in t.terms.items()}
    assert {tuple(Fraction(x, inv.denom) for x in f): c
            for f, c in inv.terms.items()} == expected
    assert not inv.terms or gcd(inv.denom, *itertools.chain(*inv.terms)) == 1


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
