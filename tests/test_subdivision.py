import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (coefficient_support, contexts, coset_coefficient_sums,
                      coset_fraction_key, fraction_inverse, points, power_symbol,
                      random_class_mask, random_sequence, rationals,
                      refined_points, sup_norm)
from maskforge.decompose import decompose_mask
from maskforge.errors import ShapeMismatch
from maskforge.lattice import DilationContext, mat_vec, matrix_power, transpose
from maskforge.subdivision import (MatrixMask, Sequence, apply, check_c1,
                                   check_convergence, gradient, operator_norm,
                                   refine, second_difference_scheme)
from maskforge.trigpoly import TrigPoly


@pytest.fixture(scope="module")
def ctx1():
    return DilationContext.create([[2]])


@pytest.fixture(scope="module")
def hat():
    return TrigPoly(1, {(0,): Fraction(1, 2), (1,): 1, (2,): Fraction(1, 2)})


def test_numpy_integer_data_is_read_as_python_ints(ctx1):
    # the value 2^124 at 0 overflowed an np.int64 numerator and was dropped
    mask = TrigPoly(1, {(0,): 2 ** 62, (1,): 1})
    out = apply(mask, ctx1, Sequence(1, 1, {(0,): (np.int64(2 ** 62),)}))
    assert out.values == {(0,): (Fraction(2 ** 124),), (1,): (Fraction(2 ** 62),)}
    assert all(type(v.numerator) is int for vec in out.values.values() for v in vec)


def test_apply_identity_symbol(example_ctx):
    eye = MatrixMask([[TrigPoly.constant(2, 1), TrigPoly.zero(2)],
                      [TrigPoly.zero(2), TrigPoly.constant(2, 1)]])
    rng = random.Random(3)
    f = random_sequence(rng, 2, width=2)
    out = apply(eye, example_ctx, f)
    want = {tuple(mat_vec(example_ctx.matrix, beta)): vec
            for beta, vec in f.support()}
    assert out == Sequence(2, 2, want)


def test_apply_delta_reads_coefficients(example_ctx, example_mask):
    out = apply(example_mask, example_ctx, Sequence.delta(2))
    for freq, coeff in example_mask.support():
        assert out.value(freq)[0] == coeff.rational_value()
    assert len(out.values) == len(example_mask.terms)


def test_apply_linear(example_ctx, example_mask):
    rng = random.Random(5)
    for _ in range(10):
        f = random_sequence(rng, 2)
        g = random_sequence(rng, 2)
        lhs = apply(example_mask, example_ctx, f + g)
        rhs = apply(example_mask, example_ctx, f) + \
            apply(example_mask, example_ctx, g)
        assert lhs == rhs


@pytest.mark.parametrize("component", [0.7, 1.5, Fraction(1, 2), "1"])
def test_sequence_rejects_non_integer_points(component):
    with pytest.raises(TypeError):
        Sequence(1, 1, {(component,): (1,)})


@pytest.mark.parametrize("value", ["0.5", "1e3", "1/2", 0.5])
def test_sequence_rejects_inexact_or_string_values(value):
    with pytest.raises(TypeError):
        Sequence(1, 1, {(0,): (value,)})


def test_sequence_accepts_numpy_integer_points():
    f = Sequence(2, 1, {(np.int64(1), 2): (3,)})
    assert f == Sequence(2, 1, {(1, 2): (3,)})
    assert all(type(x) is int for alpha in f.values for x in alpha)


def test_apply_shape_mismatch(example_ctx, example_mask):
    with pytest.raises(ShapeMismatch):
        apply(example_mask, example_ctx, Sequence.delta(2, width=2))


def test_gradient_examples():
    d0 = Sequence.delta(1)
    g = gradient(d0)
    assert g.value((0,)) == (Fraction(1),)
    assert g.value((1,)) == (Fraction(-1),)

    # gradient of linear samples is constant on the interior of a box
    c = (Fraction(2), Fraction(-3))
    box = {(i, j): (c[0] * i + c[1] * j,) for i in range(4) for j in range(4)}
    g2 = gradient(Sequence(2, 1, box))
    for i in range(1, 4):
        for j in range(1, 4):
            assert g2.value((i, j)) == (c[0], c[1])

    two = Sequence(1, 2, {(0,): (Fraction(1), Fraction(5))})
    g3 = gradient(two)
    # block order: differences of component 0, then component 1
    assert g3.value((0,)) == (Fraction(1), Fraction(5))
    assert g3.value((1,)) == (Fraction(-1), Fraction(-5))


def test_gradient_intertwines_scalar_scheme(example_ctx, example_mask, ctx1, hat):
    rng = random.Random(7)
    cases = [(example_mask, example_ctx), (hat, ctx1)]
    for mask, ctx in cases:
        T = MatrixMask.from_decomposition(decompose_mask(mask, ctx))
        for _ in range(20):
            f = random_sequence(rng, ctx.dim)
            assert gradient(apply(mask, ctx, f)) == apply(T, ctx, gradient(f))


def test_gradient_intertwines_difference_scheme(example_ctx):
    rng = random.Random(11)
    t = random_class_mask(rng, example_ctx, 1)
    T = MatrixMask.from_decomposition(decompose_mask(t, example_ctx))
    Q = second_difference_scheme(T, example_ctx)
    for _ in range(10):
        g = random_sequence(rng, 2, width=2)
        assert gradient(apply(T, example_ctx, g)) == \
            apply(Q, example_ctx, gradient(g))


def test_coset_sums_for_normalized_order1(example_ctx):
    rng = random.Random(13)
    dual_inverse = transpose(fraction_inverse(example_ctx))
    for _ in range(4):
        t = random_class_mask(rng, example_ctx, 1)
        T = MatrixMask.from_decomposition(decompose_mask(t, example_ctx))
        for block in coset_coefficient_sums(T, example_ctx):
            for i in range(2):
                for j in range(2):
                    assert block[i][j] == dual_inverse[i][j]


def brute_force_norm(mask: MatrixMask, ctx: DilationContext) -> Fraction:
    """Enumerate all sign patterns over the relevant input positions and take
    the exact sup of output magnitudes over one representative per coset."""
    inverse = fraction_inverse(ctx)
    best = Fraction(0)
    support = sorted(coefficient_support(mask))
    groups = {}
    for alpha in support:
        groups.setdefault(coset_fraction_key(inverse, alpha), []).append(alpha)
    for rep_key, alphas in groups.items():
        probe_at = alphas[0]
        # input positions: beta with probe_at - M beta in support
        positions = []
        for gamma in alphas:
            diff = tuple(a - g for a, g in zip(probe_at, gamma))
            beta = tuple(mat_vec(inverse, diff))
            assert all(b.denominator == 1 for b in beta)
            positions.append((tuple(int(b) for b in beta), gamma))
        for i in range(mask.rows):
            slots = [(beta, j) for beta, _ in positions for j in range(mask.cols)]
            slots = sorted(set(slots))
            for signs in itertools.product((-1, 1), repeat=len(slots)):
                values = {}
                for (beta, j), s in zip(slots, signs):
                    vec = values.setdefault(beta, [Fraction(0)] * mask.cols)
                    vec[j] = Fraction(s)
                f = Sequence(ctx.dim, mask.cols,
                             {b: tuple(v) for b, v in values.items()})
                out = apply(mask, ctx, f)
                best = max(best, abs(Fraction(out.value(probe_at)[i])))
    return best


def test_operator_norm_examples(example_ctx, example_mask):
    eye = MatrixMask([[TrigPoly.constant(2, 1)]])
    assert operator_norm(eye, example_ctx) == Fraction(1)
    T = MatrixMask.from_decomposition(decompose_mask(example_mask, example_ctx))
    norm = operator_norm(T, example_ctx)
    assert norm.is_exact and norm.lo == Fraction(15, 16)


def test_operator_norm_cyclotomic_interval(ctx1):
    from maskforge.cyclotomic import root_of_unity
    t = TrigPoly(1, {(0,): 1 + root_of_unity(4, 1)})
    norm = operator_norm(MatrixMask.from_scalar(t), ctx1, precision_bits=64)
    assert not norm.is_exact
    # |1+i| = sqrt(2) = 1.41421356...
    assert norm.lo < Fraction(14142136, 10000000)
    assert norm.hi > Fraction(14142135, 10000000)


def test_apply_cyclotomic_probe(ctx1):
    from maskforge.cyclotomic import root_of_unity
    i = root_of_unity(4, 1)
    t = TrigPoly(1, {(0,): i, (1,): Fraction(1, 2)})
    out = apply(t, ctx1, Sequence.delta(1))
    assert out.value((0,))[0] == i
    assert out.value((1,))[0] == Fraction(1, 2)


@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(data=st.data())
def test_operator_norm_against_brute_force(data):
    # rational masks only: the brute force enumerates sign patterns
    for dim, positive in itertools.product((1, 2, 3), (True, False)):
        ctx = data.draw(contexts(dim, positive))
        terms = data.draw(st.dictionaries(points(dim, 1), rationals(),
                                          min_size=1, max_size=4))
        t = TrigPoly(dim, terms)
        if t.is_zero():
            continue
        mask = MatrixMask.from_scalar(t)
        assert operator_norm(mask, ctx) == brute_force_norm(mask, ctx)


def test_power_symbol_examples(ctx1, hat, example_ctx, example_mask):
    assert power_symbol(hat, ctx1, 1).entry(0, 0) == hat
    d0 = Sequence.delta(1)
    for k in (2, 3):
        composed = d0
        for _ in range(k):
            composed = apply(hat, ctx1, composed)
        via_symbol = apply(power_symbol(hat, ctx1, k),
                           matrix_power(ctx1.matrix, k), d0)
        assert composed == via_symbol

    T = MatrixMask.from_decomposition(decompose_mask(example_mask, example_ctx))
    for k in (2, 3):
        mk = matrix_power(example_ctx.matrix, k)
        pk = power_symbol(T, example_ctx, k)
        for comp in range(2):
            probe = Sequence.delta(2, width=2, component=comp)
            composed = probe
            for _ in range(k):
                composed = apply(T, example_ctx, composed)
            assert composed == apply(pk, mk, probe)


def test_power_norm_submultiplicative(example_ctx):
    rng = random.Random(19)
    for _ in range(4):
        t = random_class_mask(rng, example_ctx, 0)
        T = MatrixMask.from_decomposition(decompose_mask(t, example_ctx))
        norms = {}
        for k in (1, 2, 3):
            norms[k] = operator_norm(power_symbol(T, example_ctx, k),
                                     matrix_power(example_ctx.matrix, k)).hi
        assert norms[2] <= norms[1] * norms[1]
        assert norms[3] <= norms[1] * norms[2]


def test_check_convergence_example(example_ctx, example_mask):
    report = check_convergence(example_mask, example_ctx, power_cap=1)
    assert report.verdict == "convergent"
    assert report.certificate_power == 1
    assert report.norms[0][1] == Fraction(15, 16)


def test_check_convergence_hat(ctx1, hat):
    report = check_convergence(hat, ctx1)
    assert report.verdict == "convergent"
    assert report.certificate_power == 1
    assert report.norms[0][1] == Fraction(1, 2)


def test_check_convergence_normalization_gate(ctx1):
    bad = TrigPoly(1, {(0,): 1, (1,): 1})  # value 2 at 0 but order... value == m
    report = check_convergence(TrigPoly(1, {(0,): Fraction(1, 2),
                                            (1,): Fraction(1, 2)}), ctx1)
    assert report.verdict == "inconclusive"
    assert any("normalization" in r for r in report.reasons)


def test_check_c1_gates(example_ctx, example_mask, ctx1):
    report = check_c1(example_mask, example_ctx, power_cap=1)
    assert report.verdict == "inconclusive"
    assert report.isotropy.verdict == "no"
    assert any("isotropic" in r for r in report.reasons)

    # frozen via the exact norm pipeline: the degree-2 and degree-3 B-spline
    # masks are certified C1 at power 1 with product 1/2; the hat mask never
    # certifies (the product is exactly 1 at every power)
    quad = TrigPoly(1, {(0,): Fraction(1, 4), (1,): Fraction(3, 4),
                        (2,): Fraction(3, 4), (3,): Fraction(1, 4)})
    rep2 = check_c1(quad, ctx1)
    assert rep2.verdict == "C1"
    assert rep2.certificate_power == 1
    assert rep2.products[0][1] == Fraction(1, 2)

    cubic = TrigPoly(1, {(0,): Fraction(1, 8), (1,): Fraction(1, 2),
                         (2,): Fraction(3, 4), (3,): Fraction(1, 2),
                         (4,): Fraction(1, 8)})
    rep3 = check_c1(cubic, ctx1)
    assert rep3.verdict == "C1"
    assert rep3.certificate_power == 1

    hat = TrigPoly(1, {(0,): Fraction(1, 2), (1,): 1, (2,): Fraction(1, 2)})
    rep_hat = check_c1(hat, ctx1, power_cap=4)
    assert rep_hat.verdict == "inconclusive"
    assert all(p == Fraction(1) for _, p in rep_hat.products)


def test_refine_rounds_zero(ctx1, hat):
    f = Sequence(1, 1, {(2,): (Fraction(3),), (-1,): (Fraction(1, 2),)})
    refined = refine(hat, ctx1, f, 0)
    assert refined.data.to_sequence() == f
    assert refined_points(refined) == [((Fraction(-1),), (Fraction(1, 2),)),
                                       ((Fraction(2),), (Fraction(3),))]


def test_refine_approaches_hat_function(ctx1, hat):
    rounds = 10
    refined = refine(hat, ctx1, Sequence.delta(1), rounds)
    worst = Fraction(0)
    for (x,), (v,) in refined_points(refined):
        target = max(Fraction(0), 1 - abs(x - 1))
        worst = max(worst, abs(v - target))
    assert worst < Fraction(1, 1000)


def test_refine_cauchy_on_example(example_ctx, example_mask):
    # sup of successive normalized differences decreases (convergent scheme)
    seq = Sequence.delta(2)
    sups = []
    current = seq
    for _ in range(4):
        current = apply(example_mask, example_ctx, current)
        sups.append(sup_norm(gradient(current)))
    assert sups[-1] < sups[0]
    assert all(s > 0 for s in sups)
