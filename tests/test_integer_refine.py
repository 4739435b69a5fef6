"""The integer refine against k-fold application of the generic exact path.

refine carries integer numerators over one denominator through every round
and keeps each grid point as adjugate^k alpha over det^k; the rows are
formatted straight from those integers, a block at a time.  The properties
below require the very rows that format_rational prints for the k-fold
generic apply and the Fraction grid matrix^-k alpha, and that the per-row
reference formatter prints, over random dilations of both determinant
signs, so that odd rounds under a negative determinant put a negative
denominator under every grid cell.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from conftest import (CASES, EXAMPLE_DILATION, contexts, fraction_inverse,
                      points, rationals, reference_refined_rows)
from maskforge import subdivision
from maskforge.cli import main
from maskforge.cyclotomic import root_of_unity
from maskforge.errors import BudgetExceeded, ShapeMismatch
from maskforge.lattice import DilationContext, mat_vec, matrix_power
from maskforge.maskfile import (BLOCK_ROWS, format_ratio, format_rational,
                                refined_rows)
from maskforge.subdivision import IntSequence, MatrixMask, Sequence, refine
from maskforge.trigpoly import TrigPoly

from test_cli import EXAMPLE

PROFILE = settings(max_examples=6, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])


def block_case():
    """(ctx, t, f) whose refine passes BLOCK_ROWS rows by round 2: 1,100
    points under the example dilation (det -4) and a two-term mask, which
    doubles the rows each round."""
    ctx = DilationContext.create(EXAMPLE_DILATION)
    t = TrigPoly(2, {(0, 0): Fraction(1, 2), (1, -1): Fraction(-2, 3)})
    f = Sequence(2, 1, {(k % 40 - 20, 7 * (k // 40)): (Fraction(k % 11 - 5, k % 7 + 1),)
                        for k in range(1210) if k % 11 != 5})
    return ctx, t, f


def check_rounds(ctx, t, f) -> list:
    """Checks refine's rows for rounds 0-3 against the k-fold generic apply
    and the per-row reference formatter; returns the last round's blocks."""
    mask = MatrixMask.from_scalar(t)
    reference = f
    for rounds in range(4):
        refined = refine(t, ctx, f, rounds)
        assert all(type(n) is int for n in refined.data.values)
        assert refined.data.to_sequence() == reference
        blocks = list(refined_rows(refined))
        assert all(0 < len(lines) <= BLOCK_ROWS for lines in blocks)
        rows = [line for lines in blocks for line in lines]
        assert rows == [",".join(cells) for cells in reference_refined_rows(refined)]
        inverse = matrix_power(fraction_inverse(ctx), rounds)
        assert rows == [
            ",".join([*map(format_rational, mat_vec(inverse, alpha)), format_rational(v)])
            for alpha, (v,) in sorted(reference.values.items())]
        reference = subdivision._apply_generic(mask, ctx.matrix, reference)
    return blocks


@CASES
@PROFILE
@given(data=st.data())
@example(data=None)  # block_case, run under its own dimension and sign
def test_integer_refine_matches_k_fold_generic_apply(dim, positive, data):
    if data is None:
        assume((dim, positive) == (2, False))
        assert len(check_rounds(*block_case())) > 1
        return
    ctx = data.draw(contexts(dim, positive))
    t = TrigPoly(dim, data.draw(st.dictionaries(points(dim, 1), rationals(),
                                                min_size=1, max_size=3)))
    f = Sequence(dim, 1, data.draw(st.dictionaries(
        points(dim), st.tuples(rationals()), max_size=3)))
    check_rounds(ctx, t, f)
    # and two more data under the same scheme: points spread up to 10^9
    # from the origin (a round's box follows the span, its memory the
    # support), and values that all cancel, so no row
    wide = Sequence(dim, 1, data.draw(st.dictionaries(
        points(dim, 10**9), st.tuples(rationals()), max_size=3)))
    check_rounds(ctx, t, wide)
    cancelled = f + Sequence(dim, 1, {alpha: (-v,) for alpha, (v,) in f.values.items()})
    assert cancelled.is_zero()
    check_rounds(ctx, t, cancelled)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6).filter(bool))
@example(0, -7)
@example(6, -4)
@example(-8, -4)
@example(-5, -1)
def test_format_ratio_matches_format_rational(p, q):
    assert format_ratio(p, q) == format_rational(Fraction(p, q))


def test_refine_stops_at_the_budget(monkeypatch, example_ctx, example_mask):
    terms = len(example_mask.terms)
    # the impulse's first round forms `terms` products; its second forms
    # terms * |supp S delta| > terms
    monkeypatch.setattr(subdivision, "PRODUCT_BUDGET", terms)
    assert len(refine(example_mask, example_ctx, Sequence.delta(2), 1).data.values) > 1
    with pytest.raises(BudgetExceeded, match="after 1 of 3 rounds") as info:
        refine(example_mask, example_ctx, Sequence.delta(2), 3)
    assert f"x {terms} mask terms" in str(info.value)


def test_cli_refine_budget_exit_7(monkeypatch, tmp_path, capsys):
    # the example impulse's rounds form 23, 23 * 23 and 171 * 23 products
    monkeypatch.setattr(subdivision, "PRODUCT_BUDGET", 1000)
    out = tmp_path / "r.csv"
    assert main(["refine", EXAMPLE, "--rounds", "4", "--out", str(out)]) == 7
    captured = capsys.readouterr()
    assert captured.err.startswith("error: refine stopped after 2 of 4 rounds: "
                                   "round 3 would form 3933 products")
    assert "over the budget of 1000" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_refine_rejects_cyclotomic_and_vector_data():
    ctx = DilationContext.create([[2]])
    hat = TrigPoly(1, {(0,): Fraction(1, 2), (1,): 1, (2,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        refine(TrigPoly(1, {(0,): root_of_unity(4, 1)}), ctx, Sequence.delta(1), 1)
    with pytest.raises(TypeError):
        refine(hat, ctx, Sequence(1, 1, {(0,): (root_of_unity(3, 1),)}), 1)
    with pytest.raises(ShapeMismatch):
        refine(hat, ctx, Sequence.delta(1, width=2), 1)
    with pytest.raises(ShapeMismatch):
        subdivision.apply(MatrixMask([[hat], [hat]]), ctx,
                          IntSequence.from_sequence(Sequence.delta(1)))


def test_apply_steps_integer_data_as_it_steps_fractions(example_ctx, example_mask):
    f = Sequence(2, 1, {(0, 0): (Fraction(1, 3),), (1, -1): (Fraction(-2, 5),)})
    data = IntSequence.from_sequence(f)
    assert (data.den, data.axes, data.values) == (15, [(0, 1), (0, -1)], [5, -6])
    stepped = subdivision.apply(example_mask, example_ctx, data)
    assert all(type(n) is int for n in stepped.values)
    points = list(zip(*stepped.axes))
    assert points == sorted(points) and len(points) == len(stepped.values)
    assert stepped.to_sequence() == subdivision.apply(example_mask, example_ctx, f)


@pytest.mark.parametrize("zero", ["data", "mask"])
def test_refine_stops_at_the_first_empty_round(monkeypatch, example_ctx,
                                               example_mask, zero):
    # zero data, or a zero mask, leave no value after round 1; the later
    # rounds' factors go into the denominator in one power, and no grid is
    # formed for data with no point
    t = TrigPoly.zero(2) if zero == "mask" else example_mask
    f = Sequence(2, 1, {(0, 0): (Fraction(0 if zero == "data" else 1, 3),)})
    mask = MatrixMask.from_scalar(t)
    stepped = IntSequence.from_sequence(f)
    for _ in range(3):
        stepped = subdivision.apply(mask, example_ctx, stepped)
    assert stepped.values == []
    calls, apply = [], subdivision.apply

    def counted(*args):
        calls.append(args)
        return apply(*args)
    monkeypatch.setattr(subdivision, "apply", counted)
    assert refine(t, example_ctx, f, 3) == (stepped, None, None)
    assert len(calls) == 1


def test_zero_data_refine_prints_nothing(tmp_path, capsys):
    data = tmp_path / "zero.csv"
    data.write_text("0,0,0\n")
    # no grid is formed for data with no point, so 10^6 rounds are quick
    assert main(["refine", EXAMPLE, "--rounds", "1000000", "--data", str(data)]) == 0
    assert capsys.readouterr().out == ""
