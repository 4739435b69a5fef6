"""apply's integer kernel against the exact reference path.

apply() steps an IntSequence under a rational scalar mask on the integer
kernel, and takes every Sequence, rational or not, to the reference path,
which multiplies one exact value at a time.  The properties below draw
dilations, masks and data and require the kernel, reached through
IntSequence.from_sequence, to build the very same sequence as the
reference: the same support (points whose contributions cancel are dropped
by both) and the same Fractions.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import dilations, points, rationals
from maskforge import subdivision
from maskforge.cyclotomic import root_of_unity
from maskforge.lattice import mat_vec
from maskforge.subdivision import IntSequence, MatrixMask, Sequence, apply
from maskforge.trigpoly import TrigPoly

# deterministic and small: the whole module runs in about three seconds
PROFILE = settings(max_examples=60, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])


def scalar_masks(dim):
    return st.dictionaries(points(dim, 2), rationals(), max_size=5).map(
        lambda terms: TrigPoly(dim, terms))


def sequences(dim):
    return st.dictionaries(points(dim), st.tuples(rationals()), max_size=6).map(
        lambda values: Sequence(dim, 1, values))


@st.composite
def scalar_cases(draw):
    dim = draw(st.integers(1, 3))
    return draw(dilations(dim)), draw(scalar_masks(dim)), draw(sequences(dim))


@st.composite
def cancelling_cases(draw):
    """Coefficient c at alpha and at alpha + M delta, data v at beta and -v at
    beta + delta: both contributions to alpha + M(beta + delta) cancel."""
    dim = draw(st.integers(1, 3))
    matrix = draw(dilations(dim))
    alpha, beta = draw(points(dim)), draw(points(dim))
    delta = draw(points(dim, 1).filter(any))
    c = draw(rationals().filter(bool))
    v = draw(rationals().filter(bool))
    shifted = tuple(a + s for a, s in zip(alpha, mat_vec(matrix, delta)))
    mask = TrigPoly(dim, {alpha: c, shifted: c})
    beta2 = tuple(b + s for b, s in zip(beta, delta))
    f = Sequence(dim, 1, {beta: (v,), beta2: (-v,)})
    target = tuple(a + s for a, s in zip(alpha, mat_vec(matrix, beta2)))
    return matrix, mask, f, target


def assert_same_as_generic(mask, matrix, f):
    fast = apply(mask, matrix, IntSequence.from_sequence(f)).to_sequence()
    ref = subdivision._apply_generic(subdivision._as_matrix_mask(mask),
                                     matrix, f)
    assert (fast.dim, fast.width) == (ref.dim, ref.width)
    assert fast.values == ref.values
    out = apply(mask, matrix, f)  # a Sequence takes the reference path
    assert out.values == ref.values
    assert all(type(v) is Fraction for vec in out.values.values() for v in vec)
    return fast


@PROFILE
@given(scalar_cases())
def test_scalar_kernel_matches_generic(case):
    matrix, mask, f = case
    assert_same_as_generic(mask, matrix, f)


@PROFILE
@given(cancelling_cases())
def test_cancelled_points_are_dropped(case):
    matrix, mask, f, target = case
    out = assert_same_as_generic(mask, matrix, f)
    assert target not in out.values
    assert len(out.values) == 2


def test_rational_inputs_take_the_kernel(monkeypatch, example_ctx, example_mask):
    def refuse(patch, name):
        def refused(*args):
            raise AssertionError(f"{name} taken")
        patch.setattr(subdivision, name, refused)

    f = Sequence.delta(2)
    with monkeypatch.context() as patch:
        refuse(patch, "_apply_generic")  # integer data take the kernel
        fast = apply(example_mask, example_ctx, IntSequence.from_sequence(f))
    refuse(monkeypatch, "_subdivide")  # a Sequence takes the reference path
    out = apply(example_mask, example_ctx, f)
    assert len(out.values) == len(example_mask.terms)
    assert fast.to_sequence() == out


@pytest.mark.parametrize("case", ["mask", "value"])
def test_cyclotomic_inputs_take_the_generic_path(monkeypatch, case):
    i = root_of_unity(4, 1)
    matrix = ((2,),)
    if case == "mask":
        mask = TrigPoly(1, {(0,): i, (1,): Fraction(1, 2)})
        f = Sequence(1, 1, {(0,): (Fraction(1),), (1,): (Fraction(-2, 3),)})
        want = {(0,): (i,), (1,): (Fraction(1, 2),), (2,): (i * Fraction(-2, 3),),
                (3,): (Fraction(-1, 3),)}
    else:
        mask = TrigPoly(1, {(0,): Fraction(1, 2), (1,): 1})
        f = Sequence(1, 1, {(0,): (i,), (1,): (Fraction(3),)})
        want = {(0,): (i * Fraction(1, 2),), (1,): (i,), (2,): (Fraction(3, 2),),
                (3,): (Fraction(3),)}

    def refuse(*args):
        raise AssertionError("integer kernel taken for cyclotomic inputs")
    monkeypatch.setattr(subdivision, "_subdivide", refuse)
    out = apply(mask, matrix, f)
    assert out == Sequence(1, 1, want)
    assert out == subdivision._apply_generic(MatrixMask.from_scalar(mask),
                                             matrix, f)
