"""Exact arithmetic in the field generated by a primitive N-th root of unity.

Values are stored as length-N rational coordinate vectors against the power
basis 1, zeta, ..., zeta^(N-1), kept in canonical form: the representative
polynomial is reduced modulo the N-th cyclotomic polynomial, so equality of
coordinates is equality of field values.  Reduction modulo x^N - 1 alone would
not be faithful (that ring has zero divisors), hence the cyclotomic modulus;
each coordinate i >= deg Phi_N adds its multiple of a cached row x^i mod Phi_N.

|x| is enclosed in outward-rounded interval arithmetic on integer dyadics,
(signed mantissa, exponent) pairs: each operation is computed exactly in ints
and each end rounded once, down or up, to the working precision, so every
endpoint is the one mpmath's iv context gives.  A sum of magnitudes adds the
ends exactly as integer numerators, one Fraction per end.  Dicts living for
one operator norm hold each distinct value's enclosure, keyed by its order
and integer coords over the norm's denominator, and each term's products.
Only the cos and sin enclosures of each root need mpmath, imported by the
first of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import fsum, gcd, isqrt, lcm, ldexp, sqrt
from numbers import Rational
from operator import itemgetter

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


def _rounded(man: int, exp: int, prec: int, up: bool) -> tuple[int, int]:
    """man * 2**exp rounded to prec significant bits, toward +inf when up
    and toward -inf otherwise."""
    n = abs(man).bit_length() - prec
    if n <= 0:
        return man, exp
    return (-(-man >> n) if up else man >> n), exp + n


def _add_end(x: tuple[int, int], y: tuple[int, int], prec: int,
             up: bool) -> tuple[int, int]:
    """The sum of two dyadics (man, exp), exact once the exponents are
    aligned, rounded once."""
    (a, ea), (b, eb) = x, y
    if ea > eb:
        return _rounded((a << (ea - eb)) + b, eb, prec, up)
    return _rounded(a + (b << (eb - ea)), ea, prec, up)


def _mul_interval(x: tuple, y: tuple, prec: int) -> tuple:
    """The product of two dyadic intervals (lo, hi), by the sign cases of
    mpmath's mpi_mul: each end is one exact product rounded once, and only
    when both operands straddle 0 are two products compared."""
    (xl, xh), (yl, yh) = x, y
    if xl[0] >= 0:
        if yl[0] >= 0:
            lo, hi = (xl, yl), (xh, yh)
        elif yh[0] <= 0:
            lo, hi = (xh, yl), (xl, yh)
        else:
            lo, hi = (xh, yl), (xh, yh)
    elif xh[0] <= 0:
        if yl[0] >= 0:
            lo, hi = (xl, yh), (xh, yl)
        elif yh[0] <= 0:
            lo, hi = (xh, yh), (xl, yl)
        else:
            lo, hi = (xl, yh), (xl, yl)
    elif yl[0] >= 0:
        lo, hi = (xl, yh), (xh, yh)
    elif yh[0] <= 0:
        lo, hi = (xh, yl), (xl, yl)
    else:
        return (_rounded(*_extreme(xl, yh, xh, yl, min), prec, False),
                _rounded(*_extreme(xl, yl, xh, yh, max), prec, True))
    (a, b), (c, d) = lo, hi
    return (_rounded(a[0] * b[0], a[1] + b[1], prec, False),
            _rounded(c[0] * d[0], c[1] + d[1], prec, True))


def _extreme(a, b, c, d, pick) -> tuple[int, int]:
    """pick (min or max) of the exact dyadic products a*b and c*d."""
    m, e = a[0] * b[0], a[1] + b[1]
    n, f = c[0] * d[0], c[1] + d[1]
    if e > f:
        return pick(m << (e - f), n), f
    return pick(m, n << (f - e)), e


def _divided(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple:
    """x / y for dyadics with y > 0 and x of at most prec bits, rounded
    down and rounded up: one divmod keeps at least prec + 1 quotient bits,
    and its remainder decides the ceiling."""
    (a, ea), (b, eb) = x, y
    shift = prec + 1 + b.bit_length() - abs(a).bit_length()
    quot, rem = divmod(a << shift, b)
    exp = ea - eb - shift
    return (_rounded(quot, exp, prec, False),
            _rounded(quot + (rem != 0), exp, prec, True))


def _quotient_interval(num: int, den: int, prec: int) -> tuple:
    """mpmath's mpi_div of the from_int enclosures of num and den > 0: each
    int wider than prec is first rounded both ways, then each end of the
    hull is one quotient of those ends, rounded once.  When neither int is
    wider, one quotient gives both ends."""
    nl, nh = _rounded(num, 0, prec, False), _rounded(num, 0, prec, True)
    dl, dh = _rounded(den, 0, prec, False), _rounded(den, 0, prec, True)
    if num < 0:
        dl, dh = dh, dl
    if nl == nh and dl == dh:
        return _divided(nl, dl, prec)
    return _divided(nl, dh, prec)[0], _divided(nh, dl, prec)[1]


def _sqrt_end(x: tuple[int, int], prec: int, up: bool) -> tuple[int, int]:
    """The square root of a dyadic x >= 0, rounded once: math.isqrt of the
    mantissa at an even exponent, widened to at least 2 * prec + 4 bits.
    An inexact root is rounded up through the odd value 2r + 1, which lies
    strictly between r and r + 1 as the root does, as in mpmath's mpf_sqrt."""
    man, exp = x
    if not man:
        return 0, 0
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(0, 2 * prec + 4 - man.bit_length())
    shift += shift & 1
    man <<= shift
    root, exp = isqrt(man), (exp - shift) // 2
    if up and root * root != man:
        root, exp = 2 * root + 1, exp - 1
    return _rounded(root, exp, prec, up)


@lru_cache(maxsize=4096)
def _root_enclosure(k: int, order: int, prec: int) -> tuple:
    """Dyadic (lo, hi) enclosures of cos and sin of the angle 2*pi*k/order,
    evaluated once in mpmath's iv context at precision prec, each end as a
    (signed mantissa, exponent) pair."""
    from mpmath import iv
    old_prec = iv.prec
    try:
        iv.prec = prec
        angle = 2 * iv.pi * iv.mpf(k) / iv.mpf(order)
        enclosure = tuple(tuple((-int(man) if sign else int(man), int(exp))
                                for sign, man, exp, _ in part._mpi_)
                          for part in (iv.cos(angle), iv.sin(angle)))
    finally:
        iv.prec = old_prec
    # max_magnitude_sum's pruning margin takes each enclosure at most
    # 2^(7-prec) wide; the angle is below 2*pi, and the widths seen are at
    # most 40 * 2^-prec
    if any(_dyadic(*hi) - _dyadic(*lo) > Fraction(1, 1 << (prec - 7))
           for lo, hi in enclosure):
        raise InternalIdentityViolation(
            f"enclosure of cos or sin of 2*pi*{k}/{order} wider than 2^{7 - prec}")
    return enclosure


_ZERO = (0, 0)


def magnitude_interval(x, precision_bits: int = DEFAULT_PRECISION_BITS,
                       den: int = 1, products: dict | None = None) -> RatInterval:
    """Certified rational enclosure of |x|, for a CyclotomicNumber or
    Rational x, or for x = (order, integer coords over den).

    Rational values get an exact point interval.  Otherwise each endpoint is
    the dyadic that mpmath's iv context gives at precision_bits + 16: re and
    im sum num/den times the (cos, sin) of each root in k order, then
    sqrt(re*re + im*im).  Each operation is computed exactly in ints and
    rounded once, outward, so each end is the one mpmath's correctly
    rounded operation gives.  `products`, a caller's dict used at one
    precision, keeps each term's products, keyed by (num, den, k, order) in
    lowest terms.
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
    prec = precision_bits + 16
    re_lo = re_hi = im_lo = im_hi = _ZERO
    for k, n in enumerate(coords):
        if n:
            g = gcd(n, den)
            key = (n // g, den // g, k, order)
            pair = products.get(key)
            if pair is None:
                coeff = _quotient_interval(key[0], key[1], prec)
                cos, sin = _root_enclosure(k, order, prec)
                pair = products[key] = (_mul_interval(coeff, cos, prec),
                                        _mul_interval(coeff, sin, prec))
            (a, b), (c, d) = pair
            re_lo = _add_end(re_lo, a, prec, False)
            re_hi = _add_end(re_hi, b, prec, True)
            im_lo = _add_end(im_lo, c, prec, False)
            im_hi = _add_end(im_hi, d, prec, True)
    re, im = (re_lo, re_hi), (im_lo, im_hi)
    (a, b), (c, d) = _mul_interval(re, re, prec), _mul_interval(im, im, prec)
    sq_lo, sq_hi = _add_end(a, c, prec, False), _add_end(b, d, prec, True)
    if sq_lo[0] < 0:  # rounding slack: |x|^2 >= 0
        sq_lo = _ZERO
    lo, hi = _sqrt_end(sq_lo, prec, False), _sqrt_end(sq_hi, prec, True)
    return RatInterval(_dyadic(*lo), _dyadic(*hi))


# a value whose |coords| sum to this or more, or a row whose integer bound
# reaches _ROW_LIMIT, keeps its integer bound alone: no double overflows
_FLOAT_LIMIT = 1 << 500
_ROW_LIMIT = 1 << 1000
# covers the six roundings of a row's float key: (1 + 8e)(1 - e)^6 > 1
_WIDEN = 1 + 2.0 ** -50


@lru_cache(maxsize=4096)
def _root_floats(k: int, order: int, prec: int) -> tuple[float, float]:
    """The doubles nearest the lower ends of the cos and sin enclosures of
    _root_enclosure(k, order, prec)."""
    (cos_lo, _), (sin_lo, _) = _root_enclosure(k, order, prec)
    return float(_dyadic(*cos_lo)), float(_dyadic(*sin_lo))


def _float_magnitude(order: int, coords, prec: int) -> float:
    """|sum n_k zeta_order^k| of integer coords, in doubles: each product
    of float(n_k) with _root_floats, the adds in k order, then the two
    squares, their sum and math.sqrt."""
    re = im = 0.0
    for k, n in enumerate(coords):
        if n:
            c, s = _root_floats(k, order, prec)
            x = float(n)
            re += x * c
            im += x * s
    return sqrt(re * re + im * im)


def max_magnitude_sum(rows, den: int, precision_bits: int) -> RatInterval:
    """Certified enclosure of the largest of the sums of |x| over each row
    of values x over den: a rational value given as its integer numerator,
    any other as (order, its integer coords in canonical form at that
    order).  `rows` is any iterable of rows, read once.

    Rational values are summed exactly in integers, and a row of rational
    values is compared as one integer, so the result is a point interval
    whenever every value is rational.  Every other row gets a key K with
    K/den at least its enclosed upper end, the smaller of two:
      - its integer bound B, its integers plus sum |coords| of each value,
        so |row| <= B/den by the triangle inequality, widened by (1 +
        margin) and rounded up to an int;
      - its float key, when each value's sum of |coords| is below 2^500 and
        B below 2^1000: its integers plus sum m over its values plus (B
        less its integers) times eta, in doubles, m the value's
        _float_magnitude and eta below.
    Rows are enclosed in descending order of K, and the search stops at the
    first row with K/den below the floor, the larger of the best lower end
    so far and the best all-rational row.  Each distinct value is enclosed
    once per call by magnitude_interval, from its integer coords, and each
    term product once per call; each end of a row's enclosures is summed as
    one integer numerator and one exponent.  The floats only order rows and
    skip them: every endpoint is the one the unpruned search gives, since a
    skipped row's upper end is at most K/den, below the floor, which the
    result's lower end reaches, and its lower end is below its upper end.

    The margin.  magnitude_interval works at p = precision_bits + 16 bits,
    and each directed rounding to p bits changes a magnitude by a factor of
    at most 1 + u, u = 2^(1-p).  Write A(I) for the larger |end| of an
    interval I, and take a value with t coords (t terms at most), q_k =
    |n_k|/den, Q = sum q_k.  Along the chain that gives its upper end:
      - the coefficient n_k/den: n_k rounded, den rounded down (a factor of
        1/(1-u) <= (1+u)^2), the quotient floored to at least p + 1 bits
        and rounded: A <= q_k (1+u)^5;
      - cos and sin of the root: _root_enclosure checks each enclosure is
        at most w = 2^(7-p) wide, so A <= |cos| + w and A <= |sin| + w;
      - each term product rounds once, and each of the t adds into re and
        im rounds once: A(re) <= (1+u)^(t+6) sum q_k (|cos_k| + w), and
        A(im) likewise with |sin_k|;
      - re^2 and im^2 round once each, their sum once, and the square root
        twice (the root of at least p + 1 bits, then rounded):
        hi <= (1+u)^3 sqrt(A(re)^2 + A(im)^2).
    By the triangle inequality in the plane, sqrt(A(re)^2 + A(im)^2) <=
    (1+u)^(t+6) sum q_k |(|cos_k| + w, |sin_k| + w)| <= (1+u)^(t+6) Q (1 +
    sqrt(2) w).  So hi <= Q (1+u)^(t+9) (1 + sqrt(2) w).  As p >= 48,
    (t+9) u <= 1/2 for every t below 2^46 - 9, more coords than memory
    holds; then (1+u)^(t+9) <= 1 + 2(t+9)u <= 2, so hi <= Q (1 + 2(t+9)u +
    2 sqrt(2) w) < Q (1 + (t+100) 2^(2-p)).  A row's upper end sums its
    integers exactly and its values' upper ends exactly, so it is at most
    B/den * (1 + margin) with margin = (T+100) 2^(2-p), T the longest
    coords of the row, whatever the orders and the precision.

    The excess of the upper end over |x|.  With t below 2^40, so that tu
    <= 2^-7:
      - the ends of the coefficient interval lie between q_k (1-u)^4 and
        q_k (1+u)^5, so it is at most 9.01 u q_k wide;
      - an interval product is at most A(a) wid(b) + A(b) wid(a) wide, so
        the product with the cos enclosure (A <= 1 + w, w = 64u) is at
        most 74.01 u q_k wide, and 76.1 u q_k once its ends round;
      - each of the t adds moves each end of re by at most u 1.02 Q, so re
        lies in an interval of width W <= Q u (2.04t + 77), and im too;
      - the upper end of re^2 is A(re)^2 <= (|Re| + W)^2, rounded up, so
        hi <= (1+u)^3 sqrt((|Re| + W)^2 + (|Im| + W)^2) <= (1+u)^3 (|x| +
        sqrt(2) W), by the triangle inequality in the plane.
    So hi - |x| <= Q u (3.01 + 1.42 (2.04t + 77)) <= Q (t+40) 2^(3-p).

    The float error.  Write S = den Q, R = den |x| = |sum n_k zeta^k|, and
    e = 2^-53, the unit roundoff of a double.  Each c_k of _root_floats
    lies within delta = w + e (1 + w) + 2^-1075 of cos_k (the enclosure's
    width, the conversion of its lower end, an underflow), and delta <
    2^-40 as p >= 48; the same holds for s_k.  float(n_k) is within e
    |n_k|, each product rounds once, with at most 2^-1075 more if it
    underflows, and the t adds into re round as recursive summation does,
    by at most gamma_(t-1) times the sum of the |products| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, (3.5)).
    So |re - Re| <= S (delta + 1.001 (t+1) e) + t 2^-1074, and the same
    for im, and by the triangle inequality in the plane, |sqrt(re^2 +
    im^2) - R| is at most sqrt(2) times that.  The two squares, their sum
    and math.sqrt, each correctly rounded, move it by at most 2.0001 e R +
    2^-536 more.  As S >= 1, the value's float m is within S (1.5w + (1.5t
    + 5) e) <= S (2^(8-p) + (t+5) 2^-52) of R.
    Together, den hi <= m + S eta, eta = 2^(8-p) + (t+5) 2^-52 + (t+40)
    2^(3-p), t at most the longest coords T of the row.  The float key
    forms float(its integers), eta (three ldexp, exact but for an underflow
    of at most 2^-1074 each, and two adds), float(B less its integers)
    times eta, and their sum with each m by math.fsum, correctly rounded.
    Every term is at least 0, so each of those six roundings shrinks the
    key by a factor of at least 1 - e, and the product by _WIDEN restores
    it: (1 + 2^-50)(1 - e)^6 > 1 with room for the underflows.
    """
    prec = precision_bits + 16
    scale = 1 << (precision_bits + 14)  # 2^(p-2)
    best_exact = 0    # the largest all-rational row
    pending = []      # (K, its integers, its values) of every other row
    estimates = {}    # value: (sum |coords|, m or None)
    for row in rows:
        exact = bound = terms = 0
        values, floats = [], []
        for value in row:
            if isinstance(value, int):
                exact += abs(value)
                continue
            estimate = estimates.get(value)
            if estimate is None:
                order, coords = value
                size = sum(map(abs, coords))
                estimate = estimates[value] = (size, _float_magnitude(
                    order, coords, prec) if size < _FLOAT_LIMIT else None)
            values.append(value)
            bound += estimate[0]
            floats.append(estimate[1])
            terms = max(terms, len(value[1]))
        if not values:
            best_exact = max(best_exact, exact)
            continue
        total = exact + bound
        key = -(-total * (scale + terms + 100) // scale)
        if total < _ROW_LIMIT and None not in floats:
            eta = (ldexp(terms + 40, 3 - prec) + ldexp(terms + 5, -52)
                   + ldexp(1.0, 8 - prec))
            key = min(key, fsum((float(exact), *floats, float(bound) * eta))
                      * _WIDEN)
        pending.append((key, exact, values))
    pending.sort(key=itemgetter(0), reverse=True)
    memo: dict = {}
    products: dict = {}
    best_lo = best_hi = _F0
    floor = best_exact  # den times the floor
    for key, exact, values in pending:
        if key < floor:
            break
        lo = hi = (0, 0)
        for value in values:
            enclosure = memo.get(value)
            if enclosure is None:
                enclosure = memo[value] = magnitude_interval(
                    value, precision_bits, den, products)
            lo = _dyadic_add(lo, enclosure.lo)
            hi = _dyadic_add(hi, enclosure.hi)
        exact = Fraction(exact, den)
        row_lo = exact + _dyadic(*lo)
        if row_lo > best_lo:
            best_lo = row_lo
            floor = max(floor, best_lo * den)
        best_hi = max(best_hi, exact + _dyadic(*hi))
    best_exact = Fraction(best_exact, den)
    return RatInterval(max(best_lo, best_exact), max(best_hi, best_exact))
