import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from maskforge.cyclotomic import CyclotomicNumber, root_of_unity
from maskforge.lattice import DilationContext, mat_vec
from maskforge.sumrules import (DerivativeTable, mask_from_derivative_table,
                                multi_indices_up_to)
from maskforge.trigpoly import TrigPoly

# hypothesis keeps caches under its home directory, ./.hypothesis by default;
# a temporary one keeps the tests from writing into the source tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="maskforge-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

EXAMPLE_DILATION = ((0, 2), (2, -1))
EXAMPLE_DIGITS = ((0, 0), (1, 0), (0, 1), (1, 1))

# polyphase coefficients of the worked 2-d example mask, times 16
EXAMPLE_POLYPHASE_16 = [
    {(0, 0): 4, (1, 0): 4, (0, 1): 4, (1, 1): 4},
    {(0, 0): 5, (1, 0): 4, (-1, 0): 1, (0, 1): 2, (0, -1): 3, (1, 1): 1},
    {(0, 0): 4, (1, 0): 1, (-1, 0): 2, (0, 1): 5, (0, -1): 1, (1, 1): 3},
    {(0, 0): 5, (1, 0): 1, (-1, 0): 4, (0, 1): 1, (0, -1): 3, (1, 1): 1,
     (-1, 1): 1},
]


@pytest.fixture(scope="session")
def example_ctx() -> DilationContext:
    return DilationContext.create(EXAMPLE_DILATION, digits=EXAMPLE_DIGITS)


@pytest.fixture(scope="session")
def example_polyphase(example_ctx):
    return [TrigPoly(2, {f: Fraction(c, 16) for f, c in part.items()})
            for part in EXAMPLE_POLYPHASE_16]


@pytest.fixture(scope="session")
def example_mask(example_ctx, example_polyphase) -> TrigPoly:
    return TrigPoly.polyphase_assemble(example_polyphase, example_ctx)


def coset_fraction_key(inverse, vec) -> tuple[Fraction, ...]:
    """Fractional part of inverse @ vec; equal keys mean congruent vectors."""
    out = []
    for x in mat_vec(inverse, vec):
        x = Fraction(x)
        out.append(Fraction(x.numerator % x.denominator, x.denominator))
    return tuple(out)


def random_mask(rng: random.Random, dim: int, n_terms: int = 6,
                freq_range: int = 3, denom_cap: int = 8) -> TrigPoly:
    terms = {}
    for _ in range(n_terms):
        freq = tuple(rng.randint(-freq_range, freq_range) for _ in range(dim))
        terms[freq] = Fraction(rng.randint(-9, 9), rng.randint(1, denom_cap))
    return TrigPoly(dim, terms)


def random_class_mask(rng: random.Random, ctx: DilationContext,
                      order: int) -> TrigPoly:
    """Random mask satisfying the order-n sum rules with value m at 0."""
    values = {}
    for beta in multi_indices_up_to(ctx.dim, order):
        values[beta] = CyclotomicNumber.from_rational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    values[(0,) * ctx.dim] = CyclotomicNumber.from_rational(ctx.m)
    table = DerivativeTable(dim=ctx.dim, order=order, values=values)
    return mask_from_derivative_table(ctx, table)


def random_cyclotomic_class_mask(rng: random.Random, ctx: DilationContext,
                                 order: int, roots: tuple) -> TrigPoly:
    """Random mask satisfying the order-n sum rules with value m at 0 whose
    other table entries are a rational plus a rational multiple of a
    primitive root of unity; the orders of the roots cycle through `roots`
    (each a prime, so every nonzero power is primitive)."""
    values = {}
    for index, beta in enumerate(multi_indices_up_to(ctx.dim, order)):
        root = roots[index % len(roots)]
        values[beta] = (CyclotomicNumber.from_rational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            + root_of_unity(root, rng.randint(1, root - 1))
            * Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
    values[(0,) * ctx.dim] = CyclotomicNumber.from_rational(ctx.m)
    table = DerivativeTable(dim=ctx.dim, order=order, values=values)
    return mask_from_derivative_table(ctx, table)


def random_sequence(rng: random.Random, dim: int, width: int = 1,
                    n_points: int = 6, span: int = 4) -> "Sequence":
    from maskforge.subdivision import Sequence
    values = {}
    for _ in range(n_points):
        alpha = tuple(rng.randint(-span, span) for _ in range(dim))
        values[alpha] = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                              for _ in range(width))
    return Sequence(dim, width, values)
