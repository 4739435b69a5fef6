"""The per-process caches of dilation-only data: one shared context for equal
arguments, memoized isotropy reports and matrix powers, each cache within
its bound, and no error kept in any of them."""

import json
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (EXAMPLE_DIGITS, EXAMPLE_DILATION,
                      characteristic_values_hold, dilations,
                      similarity_reference)
from maskforge import lattice, sumrules
from maskforge.cli import main
from maskforge.errors import MaskforgeError, UserDigitsInvalid
from maskforge.lattice import (CONTEXT_CACHE_SIZE, POWER_CACHE_SIZE,
                               DilationContext, adjugate, determinant,
                               dilation_power, is_isotropic, matrix_power,
                               power_inf_norm, transpose)
from maskforge.maskfile import load_mask_file, mask_document
from maskforge.sumrules import digit_interpolant

EXAMPLE = str(Path(__file__).parent / "data" / "example_mask_2d.json")

PROFILE = settings(max_examples=6, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])

# the example's digits negated: another complete set of representatives
NEGATED_DIGITS = [[0, 0], [-1, 0], [0, -1], [-1, -1]]
# (2, 2) = M (1, 1) is congruent to the leading zero
CONGRUENT_DIGITS = [[0, 0], [2, 2], [0, 1], [1, 1]]


def machine_block(text: str) -> dict:
    return json.loads(next(line[len("MACHINE "):] for line in text.splitlines()
                           if line.startswith("MACHINE ")))


def test_equal_arguments_share_one_context():
    as_lists = DilationContext.create([[0, 2], [2, -1]],
                                      digits=[list(d) for d in EXAMPLE_DIGITS])
    assert DilationContext.create(EXAMPLE_DILATION, EXAMPLE_DIGITS) is as_lists
    canonical = DilationContext.create(EXAMPLE_DILATION)
    assert DilationContext.create([[0, 2], [2, -1]], None, None) is canonical
    # digits given, even the canonical ones, are other arguments: an equal
    # context, built once more
    again = DilationContext.create(EXAMPLE_DILATION, canonical.digits)
    assert again == canonical and again is not canonical
    assert DilationContext.create(EXAMPLE_DILATION, NEGATED_DIGITS) is not as_lists


def test_invalid_digits_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(UserDigitsInvalid, match="congruent pair"):
            DilationContext.create(EXAMPLE_DILATION, CONGRUENT_DIGITS)
    assert lattice._shared_context.cache_info().currsize == 0


def test_arguments_not_read_as_ints_are_checked_as_given():
    # the singular matrix is refused before the digits are read
    with pytest.raises(MaskforgeError, match="nonsingular"):
        DilationContext.create([[0, 0], [0, 0]], digits=[["a", 0]])
    with pytest.raises(ValueError):
        DilationContext.create(EXAMPLE_DILATION, digits=[["a", 0]])
    with pytest.raises(ValueError, match="square"):
        DilationContext.create([[2, 0]])
    assert lattice._shared_context.cache_info().currsize == 0


def test_digits_override_gets_its_own_context(tmp_path, capsys):
    mask, ctx = load_mask_file(EXAMPLE)
    plain = mask_document(mask, ctx)
    del plain["digits"], plain["dual_digits"]
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(plain))
    digits = tmp_path / "digits.json"
    digits.write_text(json.dumps(NEGATED_DIGITS))
    assert main(["analyze", str(path)]) == 0
    canonical = machine_block(capsys.readouterr().out)["digits"]
    assert main(["analyze", str(path), "--digits", str(digits)]) == 0
    assert machine_block(capsys.readouterr().out)["digits"] == NEGATED_DIGITS
    assert canonical != NEGATED_DIGITS


def test_congruent_digits_exit_3_on_every_call(tmp_path, capsys):
    doc = json.loads(Path(EXAMPLE).read_text())
    doc["digits"] = CONGRUENT_DIGITS
    path = tmp_path / "congruent.json"
    path.write_text(json.dumps(doc))
    for _ in range(2):
        assert main(["analyze", str(path)]) == 3
        assert "congruent pair" in capsys.readouterr().err


def test_caches_hold_at_most_their_bounds():
    # shears of 2I: distinct matrices with |det| = 4 and small digit searches
    contexts = [DilationContext.create(((2, k), (0, 2)))
                for k in range(CONTEXT_CACHE_SIZE + 8)]
    for ctx in contexts:
        is_isotropic(ctx.matrix)
        digit_interpolant(1, ctx)
    for cached, bound in ((lattice._shared_context, CONTEXT_CACHE_SIZE),
                          (lattice._isotropy, CONTEXT_CACHE_SIZE),
                          (sumrules._digit_interpolants, CONTEXT_CACHE_SIZE),
                          (lattice.dilation_power, POWER_CACHE_SIZE)):
        info = cached.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound, cached
    # the first context was let go: the next create builds an equal one
    again = DilationContext.create(((2, 0), (0, 2)))
    assert again == contexts[0] and again is not contexts[0]


@pytest.mark.parametrize("dim", [1, 2, 3])
@PROFILE
@given(data=st.data())
def test_powers_and_isotropy_match_the_direct_forms(dim, data):
    matrix = data.draw(dilations(dim))
    first = dilation_power(matrix, 1)
    for exponent in range(5):
        power = dilation_power(matrix, exponent)
        direct = matrix_power(matrix, exponent)
        assert power.matrix == direct
        # adjugate(M^L) = adjugate(M)^L and |det(M^L)| = |det M|^L
        assert power.adjugate == adjugate(direct) \
            == matrix_power(first.adjugate, exponent)
        assert abs(power.det) == abs(determinant(direct)) == abs(first.det) ** exponent
        assert power.transposed_norm == power_inf_norm(transpose(matrix), exponent)
    report = is_isotropic([list(row) for row in matrix])
    assert is_isotropic(matrix) is report
    assert report.max_similarity_product == similarity_reference(matrix)
    assert characteristic_values_hold(matrix, report.characteristic_polynomial)
    lattice._isotropy.cache_clear()
    lattice.dilation_power.cache_clear()
    assert is_isotropic(matrix) == report
