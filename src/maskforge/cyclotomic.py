"""Exact arithmetic in the field generated by a primitive N-th root of unity.

Values are stored as length-N rational coordinate vectors against the power
basis 1, zeta, ..., zeta^(N-1), kept in canonical form: the representative
polynomial is reduced modulo the N-th cyclotomic polynomial, so equality of
coordinates is equality of field values.  Reduction modulo x^N - 1 alone would
not be faithful (that ring has zero divisors), hence the cyclotomic modulus.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Rational

import mpmath
from mpmath import iv

from .errors import MaskforgeError
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
    """Exact quotient of polynomials with den monic; raises if a remainder is left."""
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
        raise ArithmeticError("polynomial division left a remainder")
    return quot


def _reduce_coords(coords: list[Fraction], order: int) -> tuple[Fraction, ...]:
    """Reduce a length-`order` coordinate vector modulo the cyclotomic polynomial."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rem = list(coords)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = _F0
            for j in range(deg):
                rem[i - deg + j] -= c * phi[j]
    return tuple(rem)


_F0 = Fraction(0)
_F1 = Fraction(1)


class CyclotomicNumber:
    """Element of the cyclotomic field of the given order, in canonical form."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords, reduce: bool = True) -> None:
        if order < 1:
            raise ValueError("order must be a positive integer")
        coords = [Fraction(c) for c in coords]
        if len(coords) < order:
            coords += [_F0] * (order - len(coords))
        elif len(coords) > order:
            raise ValueError("coordinate vector longer than the field order")
        self.order = order
        self.coords = _reduce_coords(coords, order) if reduce else tuple(coords)

    @classmethod
    def from_rational(cls, value) -> "CyclotomicNumber":
        return cls(1, [Fraction(value)], reduce=False)

    @classmethod
    def zero(cls) -> "CyclotomicNumber":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "CyclotomicNumber":
        return cls.from_rational(1)

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
        step = order // self.order
        coords = [_F0] * order
        for k, c in enumerate(self.coords):
            if c:
                coords[(k * step) % order] += c
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

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of cyclotomic zero")
        if self.is_rational():
            return CyclotomicNumber.from_rational(1 / self.coords[0])
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        u = _poly_invert_mod(list(self.coords[: len(phi) - 1]), phi)
        return CyclotomicNumber(self.order, u + [_F0] * (self.order - len(u)))

    def __truediv__(self, other) -> "CyclotomicNumber":
        return self * coerce(other).inverse()

    def __pow__(self, n: int) -> "CyclotomicNumber":
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugate (zeta -> zeta^(order-1))."""
        n = self.order
        coords = [_F0] * n
        for k, c in enumerate(self.coords):
            if c:
                coords[(-k) % n] += c
        return CyclotomicNumber(n, coords)

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


def _poly_invert_mod(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo a monic irreducible polynomial, by extended Euclid."""
    r0, r1 = list(modulus), _poly_trim(a)
    s0, s1 = [], [_F1]
    while _poly_deg(r1) > 0:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    if not r1:
        raise ZeroDivisionError("element is not invertible")
    c = r1[0]
    return [x / c for x in s1]


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p = p[:-1]
    return list(p)


def _poly_deg(p: list[Fraction]) -> int:
    return len(p) - 1


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else _F0) - (b[i] if i < len(b) else _F0)
           for i in range(n)]
    return _poly_trim(out)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list, list]:
    a = list(a)
    db = _poly_deg(b)
    lead = b[-1]
    quot = [_F0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] / lead
        if c:
            quot[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return _poly_trim(quot), _poly_trim(a)


def _raw_mpf_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    man = int(man)
    if man == 0:
        return _F0
    value = Fraction(man) * Fraction(2) ** int(exp)
    return -value if sign else value


def _interval_endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of an mpmath ivmpf (directed, not rounded)."""
    raw_lo, raw_hi = x._mpi_
    return _raw_mpf_to_fraction(raw_lo), _raw_mpf_to_fraction(raw_hi)


def magnitude_interval(x: CyclotomicNumber,
                       precision_bits: int = DEFAULT_PRECISION_BITS) -> RatInterval:
    """Certified rational enclosure of |x|.

    Rational values get an exact point interval; otherwise the value is
    evaluated in outward-rounded interval arithmetic, so the result always
    contains the true magnitude.
    """
    if precision_bits < 32:
        raise ValueError("precision_bits must be at least 32")
    x = coerce(x)
    if x.is_rational():
        return RatInterval.exact(abs(x.coords[0]))
    old_prec = iv.prec
    try:
        iv.prec = precision_bits + 16
        two_pi = 2 * iv.pi
        re = iv.mpf(0)
        im = iv.mpf(0)
        for k, c in enumerate(x.coords):
            if c:
                coeff = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                angle = two_pi * iv.mpf(k) / iv.mpf(x.order)
                re += coeff * iv.cos(angle)
                im += coeff * iv.sin(angle)
        sq = re * re + im * im
        sq_lo, sq_hi = _interval_endpoints(sq)
        if sq_lo < 0:
            # magnitude-squared is nonnegative; clamp rounding slack
            sq = iv.mpf([0, mpmath.mpf(sq_hi)])
        mag = iv.sqrt(sq)
        lo, hi = _interval_endpoints(mag)
    finally:
        iv.prec = old_prec
    return RatInterval(max(lo, _F0), max(hi, _F0))
