import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from maskforge.errors import MaskforgeError, UserDigitsInvalid
from conftest import (characteristic_values_hold, digit_fourier_is_unitary,
                      digit_fractions, dual_context,
                      reference_canonical_candidates)
from maskforge.lattice import (DilationContext, _canonical_candidates, adjugate,
                               characteristic_polynomial, determinant,
                               digit_set, is_isotropic, mat_mul, mat_vec,
                               matrix_power, power_inf_norm, transpose)

# the profile of test_ring_properties.py, deterministic and without shrinking
PROFILE = settings(max_examples=4, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])


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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shells_match_the_filtered_ball(dim):
    # each shell yielded directly comes out in the order the whole ball,
    # filtered by max-norm, gave
    for radius in range(8):
        assert list(_canonical_candidates(dim, radius)) == \
            list(reference_canonical_candidates(dim, radius))


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
    # x^2 + x - 4, whose roots (-1 +- sqrt(17))/2 have different moduli
    assert report.characteristic_polynomial == (-4, 1, 1)
    assert is_isotropic([[1, -1], [1, 1]]).verdict == "yes"
    assert report.max_similarity_product >= 1


def test_isotropy_defective_matrix_is_not_isotropic():
    # equal eigenvalue moduli but no eigenvector basis
    report = is_isotropic([[2, 1], [0, 2]])
    assert report.verdict == "no"
    # the similarity products actually grow for this matrix
    assert report.max_similarity_product > 2


SIGNED_SCALES = [-3, -2, 2, 3]
# (a, b, c) with a^2 + b^2 = c^2: the block [[a, -b], [b, a]] beside c
PYTHAGOREAN = [(2, 0, 2), (0, 2, 2), (0, 3, 3), (3, 4, 5), (4, 3, 5)]


@st.composite
def signed_permutation(draw, dim):
    perm = draw(st.permutations(range(dim)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=dim, max_size=dim))
    return tuple(tuple(signs[i] * (j == perm[i]) for j in range(dim))
                 for i in range(dim))


@st.composite
def unimodular(draw, dim):
    """A signed permutation times three integer shears: determinant +-1."""
    u = draw(signed_permutation(dim))
    for _ in range(3 if dim > 1 else 0):
        i, j = draw(st.sampled_from([(a, b) for a in range(dim)
                                     for b in range(dim) if a != b]))
        c = draw(st.integers(-2, 2))
        u = mat_mul(u, [[int(r == s) + c * ((r, s) == (i, j))
                         for s in range(dim)] for r in range(dim)])
    return u


FAMILIES = [(1, "permutation")] + [
    (dim, family) for dim in (2, 3)
    for family in ("permutation", "rotation", "triangular", "jordan")]


@st.composite
def known_family(draw, dim, family):
    """(B, verdict): a scaled signed permutation or a rotation block beside
    a scalar of the same modulus ("yes"), a triangular matrix whose
    diagonal entries have different moduli, or a Jordan block lambda*I + N
    ("no"); every eigenvalue has modulus at least 2."""
    if family == "permutation":
        scale = draw(st.sampled_from(SIGNED_SCALES))
        return mat_mul([[scale * (i == j) for j in range(dim)]
                        for i in range(dim)], draw(signed_permutation(dim))), "yes"
    if family == "rotation":
        if dim == 2:
            a, b = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                 min_size=2, max_size=2))
            return ((a, -b), (b, a)), "yes"
        a, b, c = (x * draw(st.sampled_from([-1, 1]))
                   for x in draw(st.sampled_from(PYTHAGOREAN)))
        return ((a, -b, 0), (b, a, 0), (0, 0, c)), "yes"
    diag = [draw(st.sampled_from(SIGNED_SCALES))] * dim
    upper = draw(st.lists(st.integers(-2, 2), min_size=dim * dim,
                          max_size=dim * dim))
    if family == "triangular":
        diag = diag[:1] + draw(st.lists(st.sampled_from(SIGNED_SCALES),
                                        min_size=dim - 1, max_size=dim - 1))
        # a modulus other than the first diagonal entry's: 2 <-> 3
        diag[draw(st.integers(1, dim - 1))] = (5 - abs(diag[0])) * draw(
            st.sampled_from([-1, 1]))
    else:
        upper[1] = draw(st.sampled_from([-2, -1, 1, 2]))  # N != 0
    return tuple(tuple(diag[i] if i == j else upper[i * dim + j] * (j > i)
                       for j in range(dim)) for i in range(dim)), "no"


@st.composite
def conjugated_families(draw):
    """One (M, B, verdict) for each of FAMILIES, with
    M = U @ B @ adj(U) * det(U) = U @ B @ U^-1."""
    cases = []
    for dim, family in FAMILIES:
        base, verdict = draw(known_family(dim, family))
        u = draw(unimodular(dim))
        inverse = [[determinant(u) * x for x in row] for row in adjugate(u)]
        cases.append((mat_mul(mat_mul(u, base), inverse), base, verdict))
    return cases


# defective dilations with chi = (x + 2)^2 (x - 2) and rank(M + 2I) = 2: a
# float eigenvector basis was conditioned well enough to pass for isotropic
JORDAN_3D = ((-2, 1, 0), (0, -2, 0), (0, 0, 2))


@PROFILE
@given(cases=conjugated_families())
@example(cases=[(((-2, -1, 0), (3, 2, -1), (0, -3, -2)), JORDAN_3D, "no"),
                (((1, 2, 1), (-1, -3, 1), (2, 1, 0)), JORDAN_3D, "no"),
                (((2, 1), (0, 2)), ((2, 1), (0, 2)), "no")])
def test_isotropy_of_conjugated_families(cases):
    for matrix, base, verdict in cases:
        report = is_isotropic(matrix)
        assert report.verdict == verdict, matrix
        assert report.characteristic_polynomial == characteristic_polynomial(base)
        assert characteristic_values_hold(matrix, report.characteristic_polynomial)


@pytest.mark.parametrize("matrix", [
    ((0, -2), (1, 4)),  # x^2 - 4x + 2: roots 2 +- sqrt(2), one inside
    ((0, 0, 3), (1, 0, -4), (0, 1, 4)),  # (x^2 - x + 1)(x - 3): two on it
    ((7, -8), (4, -5)),  # roots 3 and -1, one on it
])
def test_dilation_context_refuses_roots_on_or_inside_the_unit_circle(matrix):
    # |det| >= 2 in every case, so only the Schur-Cohn test refuses them
    assert abs(determinant(matrix)) >= 2
    with pytest.raises(MaskforgeError, match="exceed 1 in modulus"):
        DilationContext.create(matrix)


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
