"""Sparse exponential sums with exact cyclotomic coefficients.

A TrigPoly stores finitely many terms  coeff * e^(2*pi*i*(freq/denom, x))
with integer frequency vectors freq and a common positive denominator.
Frequency n contributes e^(+2*pi*i*(n,x)); genuine trigonometric (Laurent)
polynomials have denom == 1 and then z_k = e^(2*pi*i*x_k) exponents coincide
with frequencies.  Rational frequencies exist so that dilated arguments
t(inverse-transpose x) are first-class values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import add, mul

from .cyclotomic import CyclotomicNumber, coerce
from .errors import (DimensionMismatch, NonIntegerFrequencies, NotDivisible,
                     WrongCount)
from .intervals import RatInterval, interval_sum
from .lattice import DilationContext, mat_vec


class TrigPoly:
    __slots__ = ("dim", "denom", "terms")

    def __init__(self, dim: int, terms=None, denom: int = 1) -> None:
        if dim < 1:
            raise ValueError("dimension must be positive")
        if denom < 1:
            raise ValueError("frequency denominator must be positive")
        clean: dict[tuple[int, ...], CyclotomicNumber] = {}
        for freq, coeff in (terms or {}).items():
            freq = tuple(int(x) for x in freq)
            if len(freq) != dim:
                raise DimensionMismatch(f"frequency {freq} has wrong dimension")
            coeff = coerce(coeff)
            if freq in clean:
                coeff = clean[freq] + coeff
            if coeff.is_zero():
                clean.pop(freq, None)
            else:
                clean[freq] = coeff
        self.dim = dim
        if not clean:
            self.denom = 1
            self.terms = {}
            return
        g = denom
        for freq in clean:
            for x in freq:
                g = gcd(g, abs(x))
        if g > 1:
            clean = {tuple(x // g for x in freq): c for freq, c in clean.items()}
            denom //= g
        self.denom = denom
        self.terms = clean

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

    def has_integer_frequencies(self) -> bool:
        return self.denom == 1

    def support(self):
        return self.terms.items()

    def coefficient(self, freq) -> CyclotomicNumber:
        """Coefficient at an integer frequency (denom must be 1)."""
        self._require_integer()
        return self.terms.get(tuple(freq), CyclotomicNumber.zero())

    def value_at_zero(self) -> CyclotomicNumber:
        acc = CyclotomicNumber.zero()
        for coeff in self.terms.values():
            acc = acc + coeff
        return acc

    def _require_integer(self) -> None:
        if self.denom != 1:
            raise NonIntegerFrequencies(
                f"operation requires integer frequencies, denominator is {self.denom}")

    def _check_dim(self, other: "TrigPoly") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim}-d vs {other.dim}-d")

    def _aligned(self, other: "TrigPoly"):
        common = lcm(self.denom, other.denom)
        st = common // self.denom
        ot = common // other.denom
        a = {tuple(x * st for x in f): c for f, c in self.terms.items()}
        b = {tuple(x * ot for x in f): c for f, c in other.terms.items()}
        return a, b, common

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "TrigPoly":
        other = self._coerce_operand(other)
        self._check_dim(other)
        a, b, common = self._aligned(other)
        for freq, coeff in b.items():
            a[freq] = a[freq] + coeff if freq in a else coeff
        return TrigPoly(self.dim, a, common)

    __radd__ = __add__

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(self.dim, {f: -c for f, c in self.terms.items()}, self.denom)

    def __sub__(self, other) -> "TrigPoly":
        return self + (-self._coerce_operand(other))

    def __mul__(self, other) -> "TrigPoly":
        if isinstance(other, (Rational, CyclotomicNumber)):
            return self.scale(other)
        other = self._coerce_operand(other)
        self._check_dim(other)
        a, b, common = self._aligned(other)
        if all(c.is_rational() for c in a.values()) and \
                all(c.is_rational() for c in b.values()):
            return TrigPoly(self.dim, _rational_product(a, b), common)
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for fa, ca in a.items():
            for fb, cb in b.items():
                freq = tuple(x + y for x, y in zip(fa, fb))
                prod = ca * cb
                out[freq] = out[freq] + prod if freq in out else prod
        return TrigPoly(self.dim, out, common)

    __rmul__ = __mul__

    def scale(self, factor) -> "TrigPoly":
        factor = coerce(factor)
        if factor.is_zero():
            return TrigPoly.zero(self.dim)
        return TrigPoly(self.dim, {f: c * factor for f, c in self.terms.items()},
                        self.denom)

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
        if self.dim != other.dim or self.denom != other.denom:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[f] == other.terms[f] for f in self.terms)

    # -- dilation substitutions --------------------------------------------

    def compose_dilate(self, matrix) -> "TrigPoly":
        """t(transpose(matrix) @ x): frequency map freq -> matrix @ freq."""
        return self._map_frequencies(matrix, 1)

    def compose_inverse_dilate(self, matrix_inverse) -> "TrigPoly":
        """t(inverse-transpose @ x): frequency map freq -> matrix_inverse @ freq.

        With D the lcm of the entries' denominators, D * matrix_inverse is an
        integer matrix and the new frequencies are its images over D * denom;
        the constructor reduces the common factor."""
        scale = lcm(*(x.denominator for row in matrix_inverse for x in row))
        return self._map_frequencies(
            tuple(tuple(int(x * scale) for x in row) for row in matrix_inverse),
            scale)

    def _map_frequencies(self, matrix, scale: int) -> "TrigPoly":
        """Frequencies mapped through an integer matrix, over denom * scale."""
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for freq, coeff in self.terms.items():
            new = mat_vec(matrix, freq)
            out[new] = out[new] + coeff if new in out else coeff
        return TrigPoly(self.dim, out, self.denom * scale)

    # -- polyphase ---------------------------------------------------------

    def polyphase_split(self, ctx: DilationContext) -> list["TrigPoly"]:
        """The m sub-masks on the cosets digit + matrix Z^d.

        Component nu collects coefficients at frequencies matrix@k + digit[nu],
        re-indexed by k; assembling the parts reproduces the mask exactly.
        """
        self._require_integer()
        parts: list[dict] = [{} for _ in range(ctx.m)]
        for freq, coeff in self.terms.items():
            nu, base = ctx.base_point(freq)
            parts[nu][base] = coeff
        return [TrigPoly(self.dim, p) for p in parts]

    @classmethod
    def polyphase_assemble(cls, parts, ctx: DilationContext) -> "TrigPoly":
        """Exact inverse of polyphase_split."""
        parts = list(parts)
        if len(parts) != ctx.m:
            raise WrongCount(f"need {ctx.m} polyphase components, got {len(parts)}")
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for nu, part in enumerate(parts):
            part._require_integer()
            digit = ctx.digits[nu]
            for freq, coeff in part.terms.items():
                new = tuple(x + s for x, s in zip(mat_vec(ctx.matrix, freq), digit))
                out[new] = out[new] + coeff if new in out else coeff
        return cls(ctx.dim, out)

    # -- evaluation and derivatives ------------------------------------------

    def eval_at_rational(self, point) -> CyclotomicNumber:
        """Exact value at a rational point (a cyclotomic number)."""
        return self.normalized_derivative((0,) * self.dim, point)

    def normalized_derivative(self, alpha, point) -> CyclotomicNumber:
        """The alpha-derivative at the point, divided by (2*pi*i)^|alpha|.

        Equals sum of coeff * (freq/denom)^alpha * e^(2*pi*i*(freq/denom, point)),
        which stays inside the cyclotomic field; it vanishes exactly when the
        true derivative does.

        With q = denom * lcm(point denominators), each term is coeff times
        freq^alpha / denom^|alpha| times zeta_q^k, k = (freq, q * point/denom).
        The terms are placed as coordinates in the field of the lcm N of their
        orders (coeff.order and q/gcd(k, q)), the order a term-by-term sum
        reaches, and reduced once; canonical forms are unique, so the value
        has the same order and coords as that sum.
        """
        alpha = tuple(int(a) for a in alpha)
        point = [Fraction(p) for p in point]
        scale = lcm(1, *(p.denominator for p in point))
        scaled = [int(p * scale) for p in point]
        q = self.denom * scale
        powers = [(i, a) for i, a in enumerate(alpha) if a]
        order = 1
        placed = []
        for freq, coeff in self.terms.items():
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
        below = self.denom ** sum(alpha)
        if below != 1:
            coords = [c / below for c in coords]
        return CyclotomicNumber(order, coords)

    # -- Laurent manipulation along one axis ---------------------------------

    def substitute_one(self, j: int) -> "TrigPoly":
        """Set z_j := 1 (axes numbered from 1), merging collided frequencies."""
        self._require_integer()
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for freq, coeff in self.terms.items():
            new = freq[: j - 1] + (0,) + freq[j:]
            out[new] = out[new] + coeff if new in out else coeff
        return TrigPoly(self.dim, out)

    def divide_one_minus_z(self, j: int) -> "TrigPoly":
        """Exact quotient by (1 - z_j); raises NotDivisible on a remainder.

        Synthetic division along axis j over Laurent exponents: within each
        group of terms sharing the other coordinates, running sums give the
        quotient and the total must vanish.
        """
        self._require_integer()
        groups: dict[tuple, dict[int, CyclotomicNumber]] = {}
        for freq, coeff in self.terms.items():
            rest = freq[: j - 1] + freq[j:]
            groups.setdefault(rest, {})[freq[j - 1]] = coeff
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for rest, line in groups.items():
            lo = min(line)
            hi = max(line)
            running = CyclotomicNumber.zero()
            for e in range(lo, hi):
                running = running + line.get(e, CyclotomicNumber.zero())
                if not running.is_zero():
                    freq = rest[: j - 1] + (e,) + rest[j - 1:]
                    out[freq] = running
            remainder = running + line[hi]
            if not remainder.is_zero():
                raise NotDivisible(f"remainder along axis {j}")
        return TrigPoly(self.dim, out)

    # -- norms ---------------------------------------------------------------

    def l1_norm(self, precision_bits: int = 128) -> RatInterval:
        """Certified enclosure of the sum of coefficient magnitudes.

        Exact (point interval) whenever every coefficient is rational.
        """
        from .cyclotomic import magnitude_interval
        exact = Fraction(0)
        rough = []
        for coeff in self.terms.values():
            if coeff.is_rational():
                exact += abs(coeff.rational_value())
            else:
                rough.append(magnitude_interval(coeff, precision_bits))
        return RatInterval.exact(exact) + interval_sum(rough)

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "TrigPoly(0)"
        bits = []
        for freq in sorted(self.terms):
            mono = "*".join(f"z{i+1}^{e}" for i, e in enumerate(freq) if e) or "1"
            bits.append(f"({self.terms[freq]!r})*{mono}")
        tag = f" /{self.denom}" if self.denom != 1 else ""
        return "TrigPoly(" + " + ".join(bits) + tag + ")"


def _rational_product(a: dict, b: dict) -> dict:
    """Coefficients of the product of two aligned term dicts whose values are
    all rational, built once each from integer numerators over the common
    denominators D_a and D_b.

    Keys come in the order the pairwise loop of TrigPoly.__mul__ first meets
    them, sums that cancel are dropped, and each value sits at the lcm of the
    orders of its contributing pairs, which is where the pairwise sum of
    CyclotomicNumber products would put it (a rational held at order 4 after
    a lift stays there)."""
    d_a, left = _integer_numerators(a)
    d_b, right = _integer_numerators(b)
    sums: dict[tuple[int, ...], list] = {}
    for fa, na, oa in left:
        for fb, nb, ob in right:
            freq = tuple(map(add, fa, fb))
            slot = sums.get(freq)
            if slot is None:
                sums[freq] = [na * nb, lcm(oa, ob)]
            else:
                slot[0] += na * nb
                slot[1] = lcm(slot[1], oa, ob)
    den = d_a * d_b
    # a rational value is canonical at every order: no reduction to do
    return {freq: CyclotomicNumber(order, [Fraction(num, den)], reduce=False)
            for freq, (num, order) in sums.items() if num}


def _integer_numerators(terms: dict) -> tuple[int, list]:
    """The common denominator D of rational coefficients and, per term,
    (freq, numerator over D, order)."""
    den = lcm(*(c.coords[0].denominator for c in terms.values()))
    return den, [(f, c.coords[0].numerator * (den // c.coords[0].denominator),
                  c.order) for f, c in terms.items()]
