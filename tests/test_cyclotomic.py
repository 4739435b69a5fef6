import random
from fractions import Fraction

import mpmath
import pytest

from maskforge.cyclotomic import (CyclotomicNumber, cyclotomic_polynomial,
                                  magnitude_interval, root_of_unity)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 15, 20])
def test_cyclotomic_product_identity(n):
    # independent oracle: the product over all divisors must give x^n - 1
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    want = [0] * (n + 1)
    want[0] = -1
    want[n] = 1
    assert prod == want


def test_roots_of_unity():
    i = root_of_unity(4, 1)
    assert i * i == Fraction(-1)
    assert root_of_unity(1, 0) == Fraction(1)
    z3 = root_of_unity(3, 1)
    assert (root_of_unity(3, 0) + z3 + z3 * z3).is_zero()


def test_arithmetic_examples():
    z8 = root_of_unity(8, 1)
    assert z8 * root_of_unity(8, 7) == Fraction(1)
    i = root_of_unity(4, 1)
    assert (1 + i) * (1 - i) == Fraction(2)
    promoted = root_of_unity(2, 1).promote(4)
    assert promoted == Fraction(-1)
    assert promoted.coords[0] == -1 and not any(promoted.coords[1:])


def test_field_axioms_random():
    rng = random.Random(42)

    def rand_elem():
        order = rng.choice([3, 4, 6, 8, 12])
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(order)]
        return CyclotomicNumber(order, coords)

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_zero_detection_matches_float_evaluation():
    # |value| below 2^-100 at 256 bits iff exactly zero
    rng = random.Random(7)
    threshold = mpmath.mpf(2) ** -100
    for _ in range(40):
        order = rng.choice([3, 4, 5, 6, 8, 12])
        acc = CyclotomicNumber.zero()
        parts = []
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(0, order - 1)
            parts.append(k)
            acc = acc + root_of_unity(order, k)
        if rng.random() < 0.5:
            # force an exact cancellation
            for k in parts:
                acc = acc - root_of_unity(order, k)
        with mpmath.workprec(256):
            z = mpmath.mpc(0)
            for k, coeff in enumerate(acc.coords):
                if coeff:
                    z += mpmath.mpf(coeff.numerator) / coeff.denominator * \
                        mpmath.expjpi(mpmath.mpf(2 * k) / acc.order)
            tiny = abs(z) < threshold
        assert tiny == acc.is_zero()


def test_magnitude_interval_examples():
    exact = magnitude_interval(CyclotomicNumber.from_rational(Fraction(3, 4)), 32)
    assert exact.is_exact and exact.lo == Fraction(3, 4)

    root2 = magnitude_interval(1 + root_of_unity(4, 1), 32)
    with mpmath.workprec(512):
        sign, man, exp, _ = mpmath.sqrt(2)._mpf_
        sqrt2 = Fraction(int(man)) * Fraction(2) ** int(exp)
    assert root2.contains(sqrt2)
    assert root2.width < Fraction(1, 2 ** 30)

    zero = magnitude_interval(CyclotomicNumber.zero(), 32)
    assert zero.lo == 0 and zero.hi < Fraction(1, 2 ** 30)


def test_magnitude_contains_high_precision_estimate():
    rng = random.Random(13)
    for _ in range(20):
        order = rng.choice([5, 7, 8, 12])
        x = CyclotomicNumber(order, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                     for _ in range(order)])
        enclosure = magnitude_interval(x, 64)
        with mpmath.workprec(512):
            z = mpmath.mpc(0)
            for k, coeff in enumerate(x.coords):
                if coeff:
                    z += mpmath.mpf(coeff.numerator) / coeff.denominator * \
                        mpmath.expjpi(mpmath.mpf(2 * k) / x.order)
            mag = abs(z)
            sign, man, exp, _ = mag._mpf_
            estimate = Fraction(int(man)) * Fraction(2) ** int(exp)
            if sign:
                estimate = -estimate
        assert enclosure.lo <= estimate <= enclosure.hi


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", [81, 121])
def test_magnitude_near_zero_is_clamped(n):
    # F_n / F_(n-1) tends to the golden ratio, and zeta_5 + zeta_5^4 is its
    # inverse, so |x| is about phi^-n: at n = 121 the enclosure of |x|^2
    # reaches below 0 at 128 bits, and its lower end is clamped to 0
    from maskforge.lattice import DilationContext
    from maskforge.subdivision import MatrixMask, operator_norm
    from maskforge.trigpoly import TrigPoly
    x = fibonacci(n) * (root_of_unity(5, 1) + root_of_unity(5, 4)) \
        - fibonacci(n - 1)
    enclosure = magnitude_interval(x, 128)
    with mpmath.workprec(1200):
        z = mpmath.mpf(fibonacci(n)) * 2 * mpmath.cos(2 * mpmath.pi / 5) \
            - fibonacci(n - 1)
        sign, man, exp, _ = abs(z)._mpf_
        estimate = Fraction(int(man)) * Fraction(2) ** int(exp)
    assert 0 <= enclosure.lo <= estimate <= enclosure.hi
    assert (enclosure.lo == 0) == (n == 121)
    mask = MatrixMask.from_scalar(TrigPoly(1, {(0,): x}))
    norm = operator_norm(mask, DilationContext.create([[2]]), 128)
    assert (norm.lo, norm.hi) == (enclosure.lo, enclosure.hi)


def test_conjugate_gives_square_magnitude():
    z12 = root_of_unity(12, 5)
    x = 2 + z12 - 3 * root_of_unity(12, 35 % 12)
    sq = x * x.conjugate()
    # x conj(x) is real: equal to its own conjugate
    assert sq == sq.conjugate()


def test_json_round_trip():
    from maskforge.maskfile import parse_scalar
    x = CyclotomicNumber(8, [Fraction(1, 2), Fraction(-3, 4), 0, 1])
    back = parse_scalar(x.to_json())
    assert back == x
    r = CyclotomicNumber.from_rational(Fraction(-7, 3))
    assert parse_scalar(r.to_json()) == Fraction(-7, 3)
