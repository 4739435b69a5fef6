"""Exact arithmetic in the field generated by a primitive N-th root of unity.

Values are stored as length-N rational coordinate vectors against the power
basis 1, zeta, ..., zeta^(N-1), kept in canonical form: the representative
polynomial is reduced modulo the N-th cyclotomic polynomial, so equality of
coordinates is equality of field values.  Reduction modulo x^N - 1 alone would
not be faithful (that ring has zero divisors), hence the cyclotomic modulus;
each coordinate i >= deg Phi_N adds its multiple of a cached row x^i mod Phi_N.

|x| is enclosed in outward-rounded interval arithmetic on raw mpmath.libmp
tuples, so each endpoint is a dyadic rational; a sum of magnitudes adds them
exactly as integer numerators, one Fraction per end.  Dicts living for one
operator norm hold each distinct value's enclosure, keyed by its order and
integer coords over the norm's denominator, and each term's products.
Only these enclosures need mpmath, imported by the first of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Rational

from .errors import InternalIdentityViolation, MaskforgeError
from .intervals import RatInterval

DEFAULT_PRECISION_BITS = 128


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients (constant term first) of the cyclotomic polynomial.

    Computed by exact division of x^order - 1 by the cyclotomic polynomials of
    all proper divisors.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    poly = [0] * (order + 1)
    poly[0] = -1
    poly[order] = 1
    for d in range(1, order):
        if order % d == 0:
            poly = _divide_monic(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _divide_monic(num: list, den: list) -> list:
    """Exact quotient of polynomials with den monic; a remainder is a bug."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise InternalIdentityViolation("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def _power_rows(order: int) -> tuple:
    """x^i mod Phi_order for i = deg Phi_order .. order - 1, each as the
    sparse row of its (position, integer coefficient) pairs."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rows, row = [], [-c for c in phi[:deg]]  # x^deg
    for _ in range(deg, order):
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
        row = [r - row[-1] * c for r, c in zip([0, *row[:-1]], phi)]  # times x
    return tuple(rows)


def _reduce_coords(coords, order: int) -> tuple:
    """The canonical coordinates (at most deg Phi_order of them) of a vector
    of at most `order` ints or Fractions: each nonzero coordinate past them
    adds its multiple of one precomputed row of x^i mod Phi_order."""
    rows = _power_rows(order)
    deg = order - len(rows)
    rem = list(coords[:deg])
    for c, row in zip(coords[deg:], rows):
        if c:
            for j, r in row:
                rem[j] += c * r
    return tuple(rem)


_F0 = Fraction(0)
_F1 = Fraction(1)


def _canonical(vec: list, field: int, order: int) -> tuple:
    """The coords at `order` of a coordinate vector at order `field` whose
    nonzero positions all have orders dividing `order`: read at stride
    field/order and reduced once, the tail that reduction zeroes left off."""
    coords = tuple(vec[::field // order])
    if any(coords[1:]):  # else a rational, canonical at every order
        coords = _reduce_coords(coords, order)
    return coords


class CyclotomicNumber:
    """Element of the cyclotomic field of the given order, in canonical form."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords, reduce: bool = True) -> None:
        if order < 1:
            raise ValueError("order must be a positive integer")
        coords = [c if type(c) is Fraction else Fraction(c) for c in coords]
        if len(coords) > order:
            raise ValueError("coordinate vector longer than the field order")
        self.order = order
        if reduce:
            coords = _reduce_coords(coords, order)
        self.coords = (*coords, *[_F0] * (order - len(coords)))

    @classmethod
    def from_rational(cls, value) -> "CyclotomicNumber":
        return cls(1, [Fraction(value)], reduce=False)

    @classmethod
    def zero(cls) -> "CyclotomicNumber":
        return cls.from_rational(0)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise MaskforgeError(f"{self!r} is not rational")
        return self.coords[0]

    def promote(self, order: int) -> "CyclotomicNumber":
        """Re-express in the field of the given order (a multiple of self.order)."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("target order must be a multiple of the current order")
        coords = [_F0] * order
        coords[::order // self.order] = self.coords
        return CyclotomicNumber(order, coords)

    def _pair(self, other) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        other = coerce(other)
        if self.order == other.order:
            return self, other
        common = lcm(self.order, other.order)
        return self.promote(common), other.promote(common)

    def __add__(self, other) -> "CyclotomicNumber":
        a, b = self._pair(other)
        return CyclotomicNumber(a.order, [x + y for x, y in zip(a.coords, b.coords)],
                                reduce=False)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, [-c for c in self.coords], reduce=False)

    def __sub__(self, other) -> "CyclotomicNumber":
        return self + (-coerce(other))

    def __rsub__(self, other) -> "CyclotomicNumber":
        return coerce(other) + (-self)

    def __mul__(self, other) -> "CyclotomicNumber":
        if isinstance(other, Rational):
            q = Fraction(other)
            return CyclotomicNumber(self.order, [c * q for c in self.coords],
                                    reduce=False)
        a, b = self._pair(other)
        n = a.order
        prod = [_F0] * n
        for i, x in enumerate(a.coords):
            if x:
                for j, y in enumerate(b.coords):
                    if y:
                        prod[(i + j) % n] += x * y
        return CyclotomicNumber(n, prod)

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugate (zeta^k -> zeta^(order-k))."""
        return CyclotomicNumber(self.order, [self.coords[0], *self.coords[:0:-1]])

    def __eq__(self, other) -> bool:
        if isinstance(other, Rational):
            return self.is_rational() and self.coords[0] == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.coords == b.coords

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyc({self.coords[0]})"
        terms = [f"{c}*z{self.order}^{k}" if k else str(c)
                 for k, c in enumerate(self.coords) if c]
        return "Cyc(" + " + ".join(terms) + ")"

    def to_json(self):
        from .maskfile import format_rational
        if self.is_rational():
            return format_rational(self.coords[0])
        return {"order": self.order,
                "coords": [format_rational(c) for c in self.coords]}


def coerce(value) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value
    if isinstance(value, Rational):
        return CyclotomicNumber.from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")


def root_of_unity(order: int, power: int = 1) -> CyclotomicNumber:
    """zeta_order^power in canonical form."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    power %= order
    coords = [_F0] * order
    coords[power] = _F1
    return CyclotomicNumber(order, coords)


def exp_of_rational(turns: Fraction) -> CyclotomicNumber:
    """e^(2*pi*i*turns) for rational turns, as an exact root of unity."""
    turns = Fraction(turns)
    q = turns.denominator
    return root_of_unity(q, turns.numerator % q)


def _dyadic(num: int, exp: int) -> Fraction:
    """num * 2**exp, by shifts."""
    return Fraction(num << exp) if exp >= 0 else Fraction(num, 1 << -exp)


def _dyadic_add(total: tuple[int, int], end: Fraction) -> tuple[int, int]:
    """A dyadic total (numerator, exponent) plus a Fraction whose
    denominator is a power of 2."""
    num, exp = total
    man, e = end.numerator, 1 - end.denominator.bit_length()
    if e < exp:
        return (num << (exp - e)) + man, e
    return num + (man << (e - exp)), exp


@lru_cache(maxsize=None)
def _mpmath():
    import mpmath
    return mpmath


@lru_cache(maxsize=4096)
def _root_enclosure(k: int, order: int, prec: int):
    """Raw (lo, hi) enclosures of cos and sin of the angle 2*pi*k/order,
    evaluated in the iv context at precision prec."""
    iv = _mpmath().iv
    old_prec = iv.prec
    try:
        iv.prec = prec
        angle = 2 * iv.pi * iv.mpf(k) / iv.mpf(order)
        return iv.cos(angle)._mpi_, iv.sin(angle)._mpi_
    finally:
        iv.prec = old_prec


def _enclose_int(libmp, n: int, prec: int):
    return (libmp.from_int(n, prec, libmp.round_floor),
            libmp.from_int(n, prec, libmp.round_ceiling))


def magnitude_interval(x, precision_bits: int = DEFAULT_PRECISION_BITS,
                       den: int = 1, products: dict | None = None) -> RatInterval:
    """Certified rational enclosure of |x|, for a CyclotomicNumber or
    Rational x, or for x = (order, integer coords over den).

    Rational values get an exact point interval.  Otherwise each endpoint is
    the dyadic mpf the iv context gives at precision_bits + 16: re and im sum
    num/den times the (cos, sin) of each root in k order, then
    sqrt(re*re + im*im).  `products`, a caller's dict used at one precision,
    keeps each term's products, keyed by (num, den, k, order) in lowest terms.
    """
    if precision_bits < 32:
        raise ValueError("precision_bits must be at least 32")
    if not isinstance(x, tuple):
        x = coerce(x)
        if x.is_rational():
            return RatInterval.exact(abs(x.coords[0]))
        den = lcm(*(c.denominator for c in x.coords))
        x = (x.order, [c.numerator * (den // c.denominator) for c in x.coords])
    order, coords = x
    products = {} if products is None else products
    libmp, prec = _mpmath().libmp, precision_bits + 16
    mpi_add, mpi_mul, fzero = libmp.mpi_add, libmp.mpi_mul, libmp.fzero
    re = im = (fzero, fzero)
    for k, n in enumerate(coords):
        if n:
            g = gcd(n, den)
            key = (n // g, den // g, k, order)
            pair = products.get(key)
            if pair is None:
                coeff = libmp.mpi_div(_enclose_int(libmp, key[0], prec),
                                      _enclose_int(libmp, key[1], prec), prec)
                cos, sin = _root_enclosure(k, order, prec)
                pair = products[key] = (mpi_mul(coeff, cos, prec),
                                        mpi_mul(coeff, sin, prec))
            re = mpi_add(re, pair[0], prec)
            im = mpi_add(im, pair[1], prec)
    sq_lo, sq_hi = mpi_add(mpi_mul(re, re, prec), mpi_mul(im, im, prec), prec)
    if sq_lo[0]:
        # a negative lower end (sign bit set) is rounding slack: |x|^2 >= 0
        sq_lo = fzero
    lo, hi = libmp.mpi_sqrt((sq_lo, sq_hi), prec)
    return RatInterval(_dyadic(lo[1], lo[2]), _dyadic(hi[1], hi[2]))


def max_magnitude_sum(rows, den: int, precision_bits: int) -> RatInterval:
    """Certified enclosure of the largest of the sums of |x| over each row
    of values x over den: a rational value given as its integer numerator,
    any other as (order, its integer coords in canonical form at that
    order).

    Rational values are summed exactly in integers.  Every other distinct
    value is enclosed once per call by magnitude_interval, from its integer
    coords, and each term product once per call; each end of a row's
    enclosures is summed as one integer numerator and one exponent.  A row of rational
    values is compared as one integer, so the result is a point interval
    whenever every value is rational.
    """
    memo: dict = {}
    products: dict = {}
    best_exact = 0
    best_lo = best_hi = _F0
    for row in rows:
        exact = 0
        lo = hi = (0, 0)
        for value in row:
            if isinstance(value, int):
                exact += abs(value)
                continue
            enclosure = memo.get(value)
            if enclosure is None:
                enclosure = memo[value] = magnitude_interval(
                    value, precision_bits, den, products)
            lo = _dyadic_add(lo, enclosure.lo)
            hi = _dyadic_add(hi, enclosure.hi)
        if hi == (0, 0):  # no enclosure: |x| > 0 for every value enclosed
            best_exact = max(best_exact, exact)
            continue
        exact = Fraction(exact, den)
        best_lo = max(best_lo, exact + _dyadic(*lo))
        best_hi = max(best_hi, exact + _dyadic(*hi))
    best_exact = Fraction(best_exact, den)
    return RatInterval(max(best_lo, best_exact), max(best_hi, best_exact))
