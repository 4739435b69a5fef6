"""The integer parser and reduction against the Fraction paths they replaced.

maskfile.mask_terms_from_json places each value as integer numerators over
the file's common denominator at its own order and reduces them modulo the
cyclotomic polynomial in integers; the reference (conftest.
reference_mask_terms) builds a Fraction or a CyclotomicNumber per value,
reduced top-down, and merges them with TrigPoly._from_pairs.  Values are
drawn at orders 1, 3, 4, 5, 12 and 15, in dimensions 1-3, with coords that
are shorter than the order, not canonical, not in lowest terms, or that
vanish.  cyclotomic._reduce_coords adds precomputed rows of x^i mod Phi_N;
the reference (conftest.reference_reduce_coords) divides from the top.
"""

import json
from fractions import Fraction

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import (reference_mask_terms, reference_reduce_coords,
                      term_fields)
from maskforge.cyclotomic import _reduce_coords, cyclotomic_polynomial
from maskforge.maskfile import mask_terms_from_json, mask_terms_json

PROFILE = settings(max_examples=60, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])

ORDERS = (1, 3, 4, 5, 12, 15)


def ratio_text(value: Fraction, scale: int):
    """value as JSON: an int, or a "p/q" string with p and q times scale."""
    if value.denominator == 1 and scale == 1:
        return value.numerator
    return f"{value.numerator * scale}/{value.denominator * scale}"


@st.composite
def json_values(draw):
    """A rational, or an {"order", "coords"} object whose coords may stop
    short of the order and may carry a multiple of a shifted Phi_order,
    which leaves the value unchanged (and may cancel it)."""
    order = draw(st.sampled_from(ORDERS))
    if order == 1 and draw(st.booleans()):
        return ratio_text(draw(st.fractions(-9, 9, max_denominator=6)),
                          draw(st.sampled_from((1, 2))))
    coords = draw(st.lists(st.fractions(-9, 9, max_denominator=6),
                           max_size=order))
    if draw(st.booleans()):
        phi = cyclotomic_polynomial(order)
        shift, c = draw(st.integers(0, order - 1)), draw(st.fractions(-3, 3, max_denominator=4))
        coords += [Fraction(0)] * (order - len(coords))
        for i, p in enumerate(phi):
            coords[(i + shift) % order] += c * p
    scale = draw(st.sampled_from((1, 2, 3)))
    return {"order": order, "coords": [ratio_text(x, scale) for x in coords]}


@st.composite
def payloads(draw):
    dim = draw(st.integers(1, 3))
    freqs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), unique=True,
                          max_size=6))
    return dim, {"coefficients": [{"freq": list(f), "value": draw(json_values())}
                                  for f in freqs]}


def one_dim(*values):
    return 1, {"coefficients": [{"freq": [k], "value": v} for k, v in enumerate(values)]}


@PROFILE
@given(payloads())
# 1 + zeta_3 + zeta_3^2 vanishes and is dropped
@example(one_dim({"order": 3, "coords": ["1", "1", "1"]}, "1/2"))
# not canonical: zeta_4^2 + zeta_4^3 is -1 - zeta_4
@example(one_dim({"order": 4, "coords": ["0", "0", "1", "1"]}))
# shorter than the order, beside a value of another order
@example(one_dim({"order": 12, "coords": ["1/3", "0", "-2"]},
                 {"order": 5, "coords": [1]}))
# not in lowest terms
@example(one_dim("2/4", {"order": 3, "coords": ["2/4", "-6/8"]}))
def test_parsed_mask_matches_the_reference(case):
    dim, payload = case
    got = mask_terms_from_json(payload, dim)
    want = reference_mask_terms(payload, dim)
    assert (got.field, got.den, list(got.vectors.items())) == \
        (want.field, want.den, list(want.vectors.items()))
    assert term_fields(got.terms) == term_fields(want.terms)
    assert json.dumps(mask_terms_json(got)) == json.dumps(mask_terms_json(want))


@PROFILE
@given(st.sampled_from(ORDERS + (2, 7, 8, 9, 30)), st.booleans(), st.data())
def test_reduce_coords_matches_top_down(order, integers, data):
    entries = (st.integers(-50, 50) if integers
               else st.fractions(-9, 9, max_denominator=6))
    coords = data.draw(st.lists(entries, min_size=order, max_size=order))
    deg = len(cyclotomic_polynomial(order)) - 1
    got = _reduce_coords(coords, order)
    want = reference_reduce_coords(coords, order)
    assert got == want[:deg] and not any(want[deg:])
    assert all(type(x) is (int if integers else Fraction) for x in got)
