"""The TrigPoly ring laws and the polyphase round trip over random
dilations, and every ring operation against the CyclotomicNumber fold.

A TrigPoly holds integer numerators, each value labelled with the order the
CyclotomicNumber fold holds it at (trigpoly.py).  The properties draw
dilations in dimensions 1-3 with determinants of both signs
(conftest.contexts), coefficients in the fields of orders 1, 3, 4 and 5 with
rationals held above order 1 among them, and operands that carry the
negation of some terms of the one before, so that their sums cancel there;
polyphase components are cycled from them, in different fields and over
different denominators.

Laws that keep every label (commutativity, the additive identity and
inverse, compose_dilate as a homomorphism, the polyphase round trip) are
compared field for field: order and coords, and the key order where the
operation defines it.  Associativity and distributivity are compared as
values: a sum that vanishes on one side drops its label there, as the fold
does.  The differential property compares each operation with
conftest.fold field for field, key order included.
"""

from fractions import Fraction
from functools import reduce
from itertools import chain, cycle, islice
from operator import add

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (CASES, contexts, fold, fold_assemble, fold_product,
                      fold_split, points, rationals, term_fields)
from maskforge.cyclotomic import CyclotomicNumber
from maskforge.lattice import mat_vec
from maskforge.trigpoly import TrigPoly
from test_exact_kernels import coefficients

# deterministic and small: the whole module runs in about a second
PROFILE = settings(max_examples=4, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])

ORDERS = (1, 3, 4, 5)


@st.composite
def operands(draw, dim, count):
    """`count` polynomials of up to four terms; each after the first, with
    even odds, minus some terms of the one before it."""
    polys = []
    for _ in range(count):
        t = TrigPoly(dim, draw(st.dictionaries(
            points(dim, 2), coefficients(orders=ORDERS), max_size=4)))
        if polys and polys[-1].terms and draw(st.booleans()):
            cancel = draw(st.sets(st.sampled_from(sorted(polys[-1].terms))))
            t = t - TrigPoly(dim, {f: c for f, c in polys[-1].terms.items()
                                   if f in cancel})
        polys.append(t)
    return polys


def unordered(t: TrigPoly) -> list:
    return sorted(term_fields(t.terms))


def components(ctx, t, u) -> list:
    return list(islice(cycle((t, u, t * u, t - u)), ctx.m))


@CASES
@PROFILE
@given(data=st.data())
def test_ring_laws(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    a, b, c = data.draw(operands(dim, 3))
    assert unordered(a + b) == unordered(b + a)
    assert unordered(a * b) == unordered(b * a)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert term_fields((a + TrigPoly.zero(dim)).terms) == \
        term_fields((a * TrigPoly.constant(dim, 1)).terms) == term_fields(a.terms)
    assert (a + -a).is_zero() and (a - a).is_zero() and a == -(-a)
    matrix = ctx.matrix
    assert term_fields((a + b).compose_dilate(matrix).terms) == term_fields(
        (a.compose_dilate(matrix) + b.compose_dilate(matrix)).terms)
    assert term_fields((a * b).compose_dilate(matrix).terms) == term_fields(
        (a.compose_dilate(matrix) * b.compose_dilate(matrix)).terms)


@CASES
@PROFILE
@given(data=st.data())
def test_polyphase_round_trip(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    t, u = data.draw(operands(dim, 2))
    assert unordered(TrigPoly.polyphase_assemble(t.polyphase_split(ctx), ctx)) \
        == unordered(t)
    parts = components(ctx, t, u)
    again = TrigPoly.polyphase_assemble(parts, ctx).polyphase_split(ctx)
    assert [term_fields(p.terms) for p in again] == \
        [term_fields(p.terms) for p in parts]


@CASES
@PROFILE
@given(data=st.data())
def test_operations_match_the_fold(dim, positive, data):
    ctx = data.draw(contexts(dim, positive))
    a, b = data.draw(operands(dim, 2))
    factor = data.draw(coefficients(orders=ORDERS))
    parts = components(ctx, b, a)
    terms_a, terms_b = a.terms.items(), b.terms.items()
    cases = [
        (a + b, fold(chain(terms_a, terms_b))),
        (a - b, fold(chain(terms_a, ((f, -c) for f, c in terms_b)))),
        (-a, fold((f, -c) for f, c in terms_a)),
        (a * b, fold_product(a, b)),
        (a.scale(factor), fold((f, c * factor) for f, c in terms_a)),
        (a.compose_dilate(ctx.matrix),
         fold((mat_vec(ctx.matrix, f), c) for f, c in terms_a)),
        (TrigPoly.polyphase_assemble(parts, ctx), fold_assemble(parts, ctx)),
        *zip(a.polyphase_split(ctx), fold_split(a, ctx)),
    ]
    for got, want in cases:
        assert term_fields(got.terms) == term_fields(want)
    value = (a + b).value_at_zero()
    want = reduce(add, fold(chain(terms_a, terms_b)).values(),
                  CyclotomicNumber.zero())
    assert (value.order, value.coords) == (want.order, want.coords)


@pytest.mark.parametrize("dim", [1, 2, 3])
@PROFILE
@given(data=st.data())
def test_constructor_places_rationals_as_order_one_values(dim, data):
    # the constructor places a Rational directly; the same value passed as
    # CyclotomicNumber.from_rational must give the same field, denominator
    # and labelled vectors, in the same key order
    terms = data.draw(st.dictionaries(points(dim, 2), st.one_of(
        rationals(), st.integers(-9, 9), coefficients(orders=ORDERS)), max_size=6))
    got = TrigPoly(dim, terms)
    want = TrigPoly(dim, {f: CyclotomicNumber.from_rational(c)
                          if isinstance(c, (int, Fraction)) else c
                          for f, c in terms.items()})
    assert (got.field, got.den, list(got.vectors.items())) == \
        (want.field, want.den, list(want.vectors.items()))
