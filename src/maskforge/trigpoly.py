"""Sparse exponential sums with exact cyclotomic coefficients.

A TrigPoly is a Laurent polynomial: finitely many terms
coeff * e^(2*pi*i*(freq, x)) with integer frequency vectors freq, so the
z_k = e^(2*pi*i*x_k) exponents coincide with frequencies.  Products sum
integer coordinates, one vector per frequency, and reduce each value once.
Derivatives of t(inverse-transpose x) that leave the library as values are
read by `derivative_at` from frequencies mapped through the adjugate over
|det| (sumrules.dilated_derivatives); zero tests run on integer vectors.

Every polynomial is built by one merge, `TrigPoly._from_pairs`, which sums
coefficients at equal frequencies and drops zero sums.  Terms are checked
once, where they enter: the public constructor requires integer frequency
components of the right length and coerces coefficients; results built
inside the library go to the merge directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from itertools import chain
from operator import add, index, mul, sub

from .cyclotomic import (_F0, CyclotomicNumber, _canonical, _reduce_coords,
                         coerce)
from .errors import DimensionMismatch, WrongCount
from .lattice import DilationContext, mat_vec


class TrigPoly:
    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None) -> None:
        """The polynomial with the given {frequency: coefficient} terms.

        Each frequency component must be an integer (operator.index: floats,
        Fractions and strings raise TypeError) and each frequency must have
        `dim` components; coefficients are coerced to cyclotomic numbers.
        """
        if dim < 1:
            raise ValueError("dimension must be positive")
        pairs = []
        for freq, coeff in (terms or {}).items():
            freq = tuple(map(index, freq))
            if len(freq) != dim:
                raise DimensionMismatch(f"frequency {freq} has wrong dimension")
            pairs.append((freq, coerce(coeff)))
        self.dim = dim
        self.terms = TrigPoly._from_pairs(dim, pairs).terms

    @classmethod
    def _from_pairs(cls, dim: int, pairs) -> "TrigPoly":
        """The polynomial of checked (integer tuple, CyclotomicNumber) pairs
        in arrival order: coefficients at equal frequencies are summed, and
        sums that vanish are dropped once every pair has been seen."""
        terms: dict[tuple[int, ...], CyclotomicNumber] = {}
        for freq, coeff in pairs:
            terms[freq] = terms[freq] + coeff if freq in terms else coeff
        poly = cls.__new__(cls)
        poly.dim = dim
        poly.terms = {f: c for f, c in terms.items() if not c.is_zero()}
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "TrigPoly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value) -> "TrigPoly":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def monomial(cls, dim: int, freq, coeff=1) -> "TrigPoly":
        return cls(dim, {tuple(freq): coeff})

    @classmethod
    def axis(cls, dim: int, j: int) -> "TrigPoly":
        """z_j, axes numbered from 1."""
        freq = tuple(int(i == j - 1) for i in range(dim))
        return cls.monomial(dim, freq)

    @classmethod
    def one_minus_exp(cls, dim: int, freq) -> "TrigPoly":
        """1 - e^(2*pi*i*(freq, x))."""
        return cls(dim, {(0,) * dim: 1, tuple(freq): -1})

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return self.terms.items()

    def value_at_zero(self) -> CyclotomicNumber:
        """The sum of the coefficients, in integers at the lcm of their orders
        and reduced once: the order and coords of the term-by-term sum."""
        field = lcm(*(c.order for c in self.terms.values()))
        den, placed = _integer_coords(self.terms, field)
        vec = [0] * field
        for p, x in chain.from_iterable(xs for _, xs, _ in placed):
            vec[p] += x
        return _number(vec, field, field, den)

    def _check_dim(self, other: "TrigPoly") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim}-d vs {other.dim}-d")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "TrigPoly":
        other = self._coerce_operand(other)
        self._check_dim(other)
        return TrigPoly._from_pairs(
            self.dim, chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "TrigPoly":
        return TrigPoly._from_pairs(self.dim, ((f, -c) for f, c in self.terms.items()))

    def __sub__(self, other) -> "TrigPoly":
        return self + (-self._coerce_operand(other))

    def __mul__(self, other) -> "TrigPoly":
        if isinstance(other, (Rational, CyclotomicNumber)):
            return self.scale(other)
        other = self._coerce_operand(other)
        self._check_dim(other)
        return TrigPoly._from_pairs(self.dim, _product(self.terms, other.terms).items())

    __rmul__ = __mul__

    def scale(self, factor) -> "TrigPoly":
        factor = coerce(factor)
        return TrigPoly._from_pairs(
            self.dim, ((f, c * factor) for f, c in self.terms.items()))

    def _coerce_operand(self, other) -> "TrigPoly":
        if isinstance(other, TrigPoly):
            return other
        if isinstance(other, (Rational, CyclotomicNumber)):
            return TrigPoly.constant(self.dim, other)
        raise TypeError(f"cannot combine TrigPoly with {other!r}")

    def __eq__(self, other) -> bool:
        if isinstance(other, (Rational, CyclotomicNumber)):
            other = TrigPoly.constant(self.dim, other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[f] == other.terms[f] for f in self.terms)

    # -- dilation substitutions --------------------------------------------

    def compose_dilate(self, matrix) -> "TrigPoly":
        """t(transpose(matrix) @ x): frequency map freq -> matrix @ freq."""
        return TrigPoly._from_pairs(
            self.dim, ((mat_vec(matrix, f), c) for f, c in self.terms.items()))

    # -- polyphase ---------------------------------------------------------

    def polyphase_split(self, ctx: DilationContext) -> list["TrigPoly"]:
        """The m sub-masks on the cosets digit + matrix Z^d.

        Component nu collects coefficients at frequencies matrix@k + digit[nu],
        re-indexed by k; assembling the parts reproduces the mask exactly.
        """
        parts: list[list] = [[] for _ in range(ctx.m)]
        for freq, coeff in self.terms.items():
            nu, base = ctx.base_point(freq)
            parts[nu].append((base, coeff))
        return [TrigPoly._from_pairs(self.dim, p) for p in parts]

    @classmethod
    def polyphase_assemble(cls, parts, ctx: DilationContext) -> "TrigPoly":
        """Exact inverse of polyphase_split."""
        parts = list(parts)
        if len(parts) != ctx.m:
            raise WrongCount(f"need {ctx.m} polyphase components, got {len(parts)}")
        return cls._from_pairs(ctx.dim, (
            (tuple(map(add, mat_vec(ctx.matrix, freq), digit)), coeff)
            for part, digit in zip(parts, ctx.digits)
            for freq, coeff in part.terms.items()))

    # -- evaluation and derivatives ------------------------------------------

    def eval_at_rational(self, point) -> CyclotomicNumber:
        """Exact value at a rational point (a cyclotomic number)."""
        return self.normalized_derivative((0,) * self.dim, point)

    def normalized_derivative(self, alpha, point) -> CyclotomicNumber:
        """The alpha-derivative at the point, divided by (2*pi*i)^|alpha|.

        Equals sum of coeff * freq^alpha * e^(2*pi*i*(freq, point)), which
        stays inside the cyclotomic field; it vanishes exactly when the true
        derivative does.
        """
        return derivative_at(self.terms.items(), 1, alpha, point)

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "TrigPoly(0)"
        bits = []
        for freq in sorted(self.terms):
            mono = "*".join(f"z{i+1}^{e}" for i, e in enumerate(freq) if e) or "1"
            bits.append(f"({self.terms[freq]!r})*{mono}")
        return "TrigPoly(" + " + ".join(bits) + ")"



def derivative_at(terms, denom: int, alpha, point) -> CyclotomicNumber:
    """sum of coeff * (freq/denom)^alpha * e^(2*pi*i*(freq/denom, point)) over
    (integer freq, coeff) pairs and a positive denominator: the normalized
    alpha-derivative at the point of the exponential sum with frequencies
    freq/denom.  With the frequencies of t mapped to adjugate images over
    |det| (sign included), this is the derivative of t(inverse-transpose x).

    With q = denom * lcm(point denominators), each term is coeff times
    freq^alpha / denom^|alpha| times zeta_q^k, k = (freq, q * point/denom).
    The terms are placed as coordinates in the field of the lcm N of their
    orders (coeff.order and q/gcd(k, q)), the order a term-by-term sum
    reaches, and reduced once; canonical forms are unique, so the value has
    the same order and coords as that sum.  A denominator sharing a factor
    with every frequency gives the same value as the reduced one: each
    term's order and factor are unchanged as fractions.
    """
    alpha = tuple(int(a) for a in alpha)
    point = [Fraction(p) for p in point]
    scale = lcm(1, *(p.denominator for p in point))
    scaled = [int(p * scale) for p in point]
    q = denom * scale
    powers = [(i, a) for i, a in enumerate(alpha) if a]
    order = 1
    placed = []
    for freq, coeff in terms:
        factor = 1
        for i, a in powers:
            factor *= freq[i] ** a
        if not factor:
            continue
        k = sum(map(mul, freq, scaled)) % q
        order = lcm(order, coeff.order, q // gcd(k, q))
        placed.append((coeff, factor, k))
    coords = [Fraction(0)] * order
    for coeff, factor, k in placed:
        shift = k * order // q
        step = order // coeff.order
        for i, c in enumerate(coeff.coords):
            if c:
                at = (i * step + shift) % order
                coords[at] += c * factor
    below = denom ** sum(alpha)
    if below != 1:
        coords = [c / below for c in coords]
    return CyclotomicNumber(order, coords)

def _product(a: dict, b: dict) -> dict:
    """Coefficients of the product of two term dicts, summed once per
    frequency in integers and reduced once.

    With N the lcm of all orders, coefficients become integer numerators over
    each operand's common denominator at positions i * N/order, and each pair
    of terms adds x * y at (p + q) mod N of its frequency's vector.  Keys come
    in the order the pairwise sum of CyclotomicNumber products meets them;
    each value is read at stride N/n and reduced at the order n that sum
    reaches, the lcm of its pairs' orders (a rational held at order 4 stays
    there).  Canonical forms are unique, so order and coords are that sum's.
    Values that reduce to zero are left for the merge to drop."""
    field = lcm(*(c.order for c in a.values()), *(c.order for c in b.values()))
    d_a, left = _integer_coords(a, field)
    d_b, right = _integer_coords(b, field)
    sums: dict[tuple[int, ...], list] = {}
    for fa, xs, oa in left:
        for fb, ys, ob in right:
            freq = tuple(map(add, fa, fb))
            slot = sums.get(freq)
            if slot is None:
                slot = sums[freq] = [[0] * field, lcm(oa, ob)]
            else:
                slot[1] = lcm(slot[1], oa, ob)
            vec = slot[0]
            for p, x in xs:
                for q, y in ys:
                    vec[(p + q) % field] += x * y
    den = d_a * d_b
    return {freq: _number(vec, field, order, den)
            for freq, (vec, order) in sums.items()}


def _number(vec: list, field: int, order: int, den: int) -> CyclotomicNumber:
    """Numerators over den at order `field`, held at `order` (which every
    nonzero position's order divides): read at stride field/order, reduced once."""
    return CyclotomicNumber(
        order, [Fraction(c, den) if c else _F0 for c in _canonical(vec, field, order)],
        reduce=False)


def _vanishes(vec: list, field: int) -> bool:
    """Is sum vec[i] * zeta_field^i zero (does Phi_field divide it)?  A zero
    vector needs no reduction, nor any vector at field 1 (Phi_1 = x - 1)."""
    return not any(vec) or field > 1 and not any(_reduce_coords(vec, field))


def _merge_vectors(field: int, plus, minus=()) -> dict:
    """The integer twin of TrigPoly._from_pairs, on (freq, (vec, label))
    pairs of numerator vectors at order `field` over one denominator: the
    vectors of `plus`, then the negated vectors of `minus`, are summed per
    frequency in arrival order.  Each sum is labelled with the lcm of its
    pairs' labels, the order the CyclotomicNumber fold holds it at, and sums
    that vanish modulo Phi_field are dropped once every pair has been seen.
    No vector is changed in place."""
    sums: dict = {}
    for freq, (vec, label) in plus:
        slot = sums.get(freq)
        sums[freq] = (vec, label) if slot is None else \
            (list(map(add, slot[0], vec)), lcm(slot[1], label))
    for freq, (vec, label) in minus:
        slot = sums.get(freq)
        sums[freq] = ([-x for x in vec], label) if slot is None else \
            (list(map(sub, slot[0], vec)), lcm(slot[1], label))
    return {f: s for f, s in sums.items() if not _vanishes(s[0], field)}


def _integer_coords(terms: dict, field: int) -> tuple[int, list]:
    """The common denominator D of all coordinates and, per term, (freq,
    [(position at order `field`, numerator over D) per nonzero coord], order)."""
    den = lcm(*(c.denominator for coeff in terms.values() for c in coeff.coords))
    return den, [(f, [(i * (field // coeff.order), c.numerator * (den // c.denominator))
                      for i, c in enumerate(coeff.coords) if c], coeff.order)
                 for f, coeff in terms.items()]


def _vanishing_sum(dim: int, parts) -> bool:
    """Does the sum of sign * poly * prod(1 - z^v for v in vectors) over the
    (sign, poly, vectors) parts vanish?  Each product is signed shifts of the
    poly's integer numerators (over one denominator, at the lcm F of every
    order), added into one vector per frequency and tested modulo Phi_F."""
    coeffs = [c for _, poly, _ in parts for c in poly.terms.values()]
    field = lcm(*(c.order for c in coeffs))
    den = lcm(*(x.denominator for c in coeffs for x in c.coords))
    sums: dict = {}
    for sign, poly, vectors in parts:
        d, placed = _integer_coords(poly.terms, field)
        shifts = {(0,) * dim: sign * (den // d)}
        for v in vectors:
            for shift, count in list(shifts.items()):
                moved = tuple(map(add, shift, v))
                shifts[moved] = shifts.get(moved, 0) - count
        for shift, count in shifts.items():
            for freq, xs, _ in placed:
                moved = tuple(map(add, freq, shift))
                vec = sums.get(moved) or sums.setdefault(moved, [0] * field)
                for p, x in xs:
                    vec[p] += count * x
    return all(_vanishes(vec, field) for vec in sums.values())
