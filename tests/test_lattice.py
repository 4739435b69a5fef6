import itertools
import random
from fractions import Fraction

import pytest

from maskforge.errors import MaskforgeError, UserDigitsInvalid
from conftest import digit_fourier_is_unitary, digit_fractions, dual_context
from maskforge.lattice import (DilationContext, determinant, digit_set,
                               is_isotropic, mat_vec, matrix_power,
                               power_inf_norm, transpose)


def cofactor_det(m):
    # independent determinant oracle
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def test_determinant_examples():
    assert determinant([[0, 2], [2, -1]]) == -4
    assert determinant([[2, 0], [0, 2]]) == 4
    assert determinant([[1, 0], [0, 1]]) == 1


def test_determinant_random_against_cofactor():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == cofactor_det(m)


def test_digit_set_canonical_1d():
    assert digit_set([[2]]) == ((0,), (1,))


def test_digit_set_user_supplied_example():
    digits = digit_set([[0, 2], [2, -1]],
                       user_digits=[(0, 0), (1, 0), (0, 1), (1, 1)])
    assert digits == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_digit_set_rejects_bad_lists():
    m = [[0, 2], [2, -1]]
    with pytest.raises(UserDigitsInvalid):
        digit_set(m, user_digits=[(0, 0), (1, 0), (0, 1)])  # wrong cardinality
    with pytest.raises(UserDigitsInvalid):
        digit_set(m, user_digits=[(1, 0), (0, 0), (0, 1), (1, 1)])  # 0 not first
    with pytest.raises(UserDigitsInvalid):
        # (2,1) is congruent to (0,0): (2,1) = M(1,1) - (0,1)... check a real pair
        digit_set(m, user_digits=[(0, 0), (2, 2), (0, 1), (1, 1)])


def test_canonical_digits_hit_every_coset(example_ctx):
    # brute-force: every point of a box lands on exactly one digit's coset
    canonical = DilationContext.create([[0, 2], [2, -1]])
    counts = [0] * canonical.m
    for p in itertools.product(range(-4, 5), repeat=2):
        counts[canonical.coset_index(p)] += 1
    assert all(c > 0 for c in counts)
    # and the digits themselves map bijectively onto 0..m-1
    assert sorted(canonical.coset_index(d) for d in canonical.digits) == [0, 1, 2, 3]


def test_coset_index_examples(example_ctx):
    ctx = example_ctx
    # brute force the coset of (2,1): unique digit with integral preimage
    matches = [nu for nu, s in enumerate(ctx.digits)
               if all(Fraction(x).denominator == 1
                      for x in (Fraction(a - b) for a, b in zip((2, 1), s))
                      ) and ctx.coset_index((2, 1)) == nu]
    assert ctx.coset_index((2, 1)) == 0
    assert ctx.coset_index((0, 0)) == 0
    shift = tuple(s + sum(m_row[j] * v for j, v in enumerate((5, -2)))
                  for s, m_row in zip(ctx.digits[3], ctx.matrix))
    assert ctx.coset_index(shift) == 3


def test_coset_index_translation_invariant(example_ctx):
    rng = random.Random(11)
    ctx = example_ctx
    dual = dual_context(ctx)
    for _ in range(50):
        n = tuple(rng.randint(-6, 6) for _ in range(2))
        ell = tuple(rng.randint(-3, 3) for _ in range(2))
        shifted = tuple(a + sum(row[j] * ell[j] for j in range(2))
                        for a, row in zip(n, ctx.matrix))
        assert ctx.coset_index(n) == ctx.coset_index(shifted)
        assert dual.coset_index(n) == dual.coset_index(
            tuple(a + sum(ctx.dual_matrix[i][j] * ell[j] for j in range(2))
                  for i, a in enumerate(n)))


def test_power_inf_norm():
    assert power_inf_norm([[1, 0], [0, 1]], 5) == 1
    assert power_inf_norm(transpose([[0, 2], [2, -1]]), 1) == 3
    assert power_inf_norm([[2, 0], [0, 2]], 3) == 8


def test_power_norm_submultiplicative():
    rng = random.Random(5)
    for _ in range(10):
        m = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        assert power_inf_norm(m, a + b) <= power_inf_norm(m, a) * power_inf_norm(m, b)


def test_isotropy_verdicts():
    assert is_isotropic([[2, 0], [0, 2]]).verdict == "yes"
    report = is_isotropic([[0, 2], [2, -1]])
    assert report.verdict == "no"
    # characteristic polynomial x^2 + x - 4 has roots (-1 +- sqrt(17))/2
    lo, hi = report.eigenvalue_moduli
    assert abs(lo - (17 ** 0.5 - 1) / 2) < 1e-9
    assert abs(hi - (17 ** 0.5 + 1) / 2) < 1e-9
    assert is_isotropic([[1, -1], [1, 1]]).verdict == "yes"
    assert report.max_similarity_product >= 1


def test_isotropy_defective_matrix_inconclusive():
    # equal eigenvalue moduli but no eigenvector basis: never upgraded to yes
    report = is_isotropic([[2, 1], [0, 2]])
    assert report.verdict == "inconclusive"
    # the similarity products actually grow for this matrix
    assert report.max_similarity_product > 2


def test_dilation_context_validation():
    with pytest.raises(MaskforgeError):
        DilationContext.create([[1, 0], [0, 2]])  # eigenvalue 1
    with pytest.raises(MaskforgeError):
        DilationContext.create([[0, 0], [0, 0]])
    with pytest.raises(MaskforgeError):
        DilationContext.create([[1]])  # |det| < 2


def test_digit_fractions_denominators(example_ctx):
    # the adjugate image of each digit over det is inverse @ digit
    ctx = example_ctx
    for s, r in zip(ctx.digits, digit_fractions(ctx)):
        assert tuple(Fraction(x, ctx.det) for x in mat_vec(ctx.adjugate, s)) == r
        for x in r:
            assert ctx.m % x.denominator == 0
    assert digit_fractions(ctx)[0] == (0, 0)


def test_context_holds_integers_only():
    ctx = DilationContext.create([[0, 2], [2, -1]])
    assert ctx.adjugate == ((-1, -2), (-2, 0))
    for name in ("matrix", "digits", "dual_digits", "adjugate"):
        assert all(type(x) is int for row in getattr(ctx, name) for x in row)
    assert ctx == DilationContext.create([[0, 2], [2, -1]])


def test_digit_fourier_unitary(example_ctx):
    assert digit_fourier_is_unitary(example_ctx)
    assert digit_fourier_is_unitary(DilationContext.create([[2]]))
    assert digit_fourier_is_unitary(DilationContext.create([[1, -1], [1, 1]]))


def test_matrix_power_int():
    assert matrix_power([[0, 2], [2, -1]], 2) == ((4, -2), (-2, 5))
