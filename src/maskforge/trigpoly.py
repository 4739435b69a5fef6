"""Sparse exponential sums with exact cyclotomic coefficients.

A TrigPoly is a Laurent polynomial: finitely many terms
coeff * e^(2*pi*i*(freq, x)) with integer frequency vectors freq, so the
z_k = e^(2*pi*i*x_k) exponents coincide with frequencies.  It is held in
integers: `vectors` maps each frequency to (vec, label), vec the unreduced
numerators over one denominator `den` against the powers of zeta_field, and
label the order the CyclotomicNumber fold of the same sums holds the value
at.  No vector vanishes.  Every polynomial is built by one merge,
`_merge_vectors`, and has the gcd of its numerators and denominator divided
out.  `terms`, the {freq: CyclotomicNumber} view, is built once, where
values leave the library (JSON, sequences); sums at the origin and zero
tests run on the integer vectors, and values and derivatives at rational
points on one integer evaluator, `_point_kernel`.

Terms are checked once, where they enter: the public constructor requires
integer frequency components of the right length and Rational or
CyclotomicNumber coefficients, placed as Python int numerators; results
built inside the library go to the merge directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from itertools import chain, compress
from operator import add, index, mul, sub

from .cyclotomic import _F0, CyclotomicNumber, _canonical, _reduce_coords
from .errors import DimensionMismatch, WrongCount
from .lattice import DilationContext, _Box, mat_vec


class TrigPoly:
    __slots__ = ("dim", "field", "den", "vectors", "_terms")

    def __init__(self, dim: int, terms=None) -> None:
        """The polynomial with the given {frequency: coefficient} terms.

        Each frequency component must be an integer (operator.index: floats,
        Fractions and strings raise TypeError) and each frequency must have
        `dim` components; coefficients must be Rationals or CyclotomicNumbers.
        """
        if dim < 1:
            raise ValueError("dimension must be positive")
        pairs = []
        for freq, coeff in (terms or {}).items():
            freq = tuple(map(index, freq))
            if len(freq) != dim:
                raise DimensionMismatch(f"frequency {freq} has wrong dimension")
            if not isinstance(coeff, (Rational, CyclotomicNumber)):
                raise TypeError(f"cannot interpret {coeff!r} as a cyclotomic number")
            pairs.append((freq, coeff))
        poly = TrigPoly._from_pairs(dim, pairs)
        for name in TrigPoly.__slots__:
            setattr(self, name, getattr(poly, name))

    @classmethod
    def _from_pairs(cls, dim: int, pairs) -> "TrigPoly":
        """The polynomial of checked (integer tuple, _placed value) pairs in
        arrival order, merged as their CyclotomicNumber fold adds them."""
        return cls._merged(dim, *_placed(pairs))

    @classmethod
    def _merged(cls, dim: int, field: int, den: int, plus, minus=()) -> "TrigPoly":
        """The polynomial of _merge_vectors(field, plus, minus) over den, with
        the gcd of den and the numerators divided out."""
        vectors = _merge_vectors(field, plus, minus)
        g = gcd(den, *chain.from_iterable(vec for vec, _ in vectors.values()))
        poly = cls.__new__(cls)
        poly.dim, poly.field, poly.den, poly._terms = dim, field, den // g, None
        poly.vectors = vectors if g == 1 else {
            f: ([x // g for x in vec], label) for f, (vec, label) in vectors.items()}
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

    @property
    def terms(self) -> dict:
        """{freq: CyclotomicNumber}, each value reduced once at its label."""
        if self._terms is None:
            self._terms = {f: _number(vec, self.field, label, self.den)
                           for f, (vec, label) in self.vectors.items()}
        return self._terms

    def is_zero(self) -> bool:
        return not self.vectors

    def is_rational(self) -> bool:
        return _rational_numerators(self) is not None

    def support(self):
        return self.terms.items()

    def value_at_zero(self) -> CyclotomicNumber:
        """The sum of the coefficients, reduced once at the lcm of their labels
        (not the field, which a vanished sum leaves larger): the fold's sum."""
        return _number(_coefficient_sum(self, self.field), self.field,
                       lcm(*(label for _, label in self.vectors.values())), self.den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "TrigPoly":
        field, den, (a, b) = _aligned(self, self._operand(other))
        return TrigPoly._merged(self.dim, field, den, chain(a.items(), b.items()))

    __radd__ = __add__

    def __neg__(self) -> "TrigPoly":
        return TrigPoly._merged(self.dim, self.field, self.den, (),
                                self.vectors.items())

    def __sub__(self, other) -> "TrigPoly":
        return self + -self._operand(other)

    def __mul__(self, other) -> "TrigPoly":
        return _product(self, self._operand(other))

    __rmul__ = __mul__
    scale = __mul__

    def _operand(self, other) -> "TrigPoly":
        if isinstance(other, (Rational, CyclotomicNumber)):
            return TrigPoly._from_pairs(self.dim, [((0,) * self.dim, other)])
        if not isinstance(other, TrigPoly):
            raise TypeError(f"cannot combine TrigPoly with {other!r}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim}-d vs {other.dim}-d")
        return other

    def __eq__(self, other) -> bool:
        if isinstance(other, (Rational, CyclotomicNumber)):
            other = self._operand(other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.dim == other.dim and (self - other).is_zero()

    # -- dilation substitutions --------------------------------------------

    def compose_dilate(self, matrix) -> "TrigPoly":
        """t(transpose(matrix) @ x): frequency map freq -> matrix @ freq."""
        return TrigPoly._merged(self.dim, self.field, self.den, (
            (mat_vec(matrix, f), slot) for f, slot in self.vectors.items()))

    # -- polyphase ---------------------------------------------------------

    def polyphase_split(self, ctx: DilationContext) -> list["TrigPoly"]:
        """The m sub-masks on the cosets digit + matrix Z^d.

        Component nu collects coefficients at frequencies matrix@k + digit[nu],
        re-indexed by k; assembling the parts reproduces the mask exactly.
        """
        parts: list[list] = [[] for _ in range(ctx.m)]
        for freq, slot in self.vectors.items():
            nu, base = ctx.base_point(freq)
            parts[nu].append((base, slot))
        return [TrigPoly._merged(self.dim, self.field, self.den, p) for p in parts]

    @classmethod
    def polyphase_assemble(cls, parts, ctx: DilationContext) -> "TrigPoly":
        """Exact inverse of polyphase_split."""
        parts = list(parts)
        if len(parts) != ctx.m:
            raise WrongCount(f"need {ctx.m} polyphase components, got {len(parts)}")
        field, den, parts = _aligned(*parts)
        return TrigPoly._merged(ctx.dim, field, den, (
            (tuple(map(add, mat_vec(ctx.matrix, freq), digit)), slot)
            for part, digit in zip(parts, ctx.digits)
            for freq, slot in part.items()))

    # -- evaluation and derivatives ------------------------------------------

    def eval_at_rational(self, point) -> CyclotomicNumber:
        """Exact value at a rational point (a cyclotomic number)."""
        return self.normalized_derivative((0,) * self.dim, point)

    def normalized_derivative(self, alpha, point) -> CyclotomicNumber:
        """The alpha-derivative at the point over (2*pi*i)^|alpha|, read off
        _point_kernel: a cyclotomic value, zero exactly when the derivative is."""
        if len(alpha) != self.dim or len(point) != self.dim:
            raise DimensionMismatch(f"alpha and point need {self.dim} components")
        point = [Fraction(p) for p in point]
        q = lcm(1, *(p.denominator for p in point))
        kernel = _point_kernel(self, list(self.vectors), q, [[int(p * q) for p in point]])
        (vec,), (order,) = _point_moments(kernel, alpha), _point_orders(kernel, alpha)
        return _number(vec, kernel[0], order, self.den)

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "TrigPoly(0)"
        bits = []
        for freq in sorted(self.terms):
            mono = "*".join(f"z{i+1}^{e}" for i, e in enumerate(freq) if e) or "1"
            bits.append(f"({self.terms[freq]!r})*{mono}")
        return "TrigPoly(" + " + ".join(bits) + ")"


def _aligned(*polys: TrigPoly) -> tuple[int, int, list]:
    """(F, D, each poly's vectors at F over D), the lcms of fields and dens."""
    field, den = lcm(*(p.field for p in polys)), lcm(*(p.den for p in polys))
    return field, den, [p.vectors if (p.field, p.den) == (field, den) else {
        f: (_spread(vec, field, den // p.den), label)
        for f, (vec, label) in p.vectors.items()} for p in polys]


def _spread(vec: list, field: int, scale: int) -> list:
    """vec times scale, moved from order len(vec) to order `field`."""
    wide = [0] * field
    wide[::field // len(vec)] = [x * scale for x in vec]
    return wide


def _point_kernel(t: TrigPoly, images: list, q: int, points) -> tuple:
    """t's terms, term i at frequency g = images[i], at rational points over
    one denominator q: F = lcm(q, t.field), D = t.den, the images, per
    point s (the point times q), with k = (g, s) mod q, each term's
    numerators over D shifted by F/q * k and the order lcm(label, q/gcd(k, q))
    its value there is held at, as a term-by-term CyclotomicNumber sum is;
    last, the memo {beta: [g^beta per image]} of _monomials."""
    field = lcm(q, t.field)
    step, placed = field // q, _sparse(t, field)
    columns = list(zip(*images))
    shifted = []
    for s in points:
        # (g, s) for every image at once, one axis at a time
        ks = [0] * len(images)
        for x, column in zip(s, columns):
            if x:
                ks = [k + x * g for k, g in zip(ks, column)]
        ks = [k % q for k in ks]
        shifted.append((
            [[((p + step * k) % field, x) for p, x in xs] if k else xs
             for k, (_, xs, _) in zip(ks, placed)],
            [lcm(label, q // gcd(k, q)) for k, (_, _, label) in zip(ks, placed)]))
    return field, t.den, images, shifted, {}


def _monomials(kernel, beta) -> list:
    """[g^beta for each image g of the kernel], kept in its memo: the list
    of beta - e_i times g_i, i the first axis beta uses, so each beta costs
    one product per image."""
    powers = kernel[4]
    factors = powers.get(beta)
    if factors is None:
        images = kernel[2]
        axis = next((i for i, b in enumerate(beta) if b), None)
        if axis is None:
            factors = [1] * len(images)
        else:
            lower = _monomials(
                kernel, beta[:axis] + (beta[axis] - 1,) + beta[axis + 1:])
            factors = [f * g[axis] for f, g in zip(lower, images)]
        powers[beta] = factors
    return factors


def _point_moments(kernel, beta):
    """Per point, the integer vector at F of numerator * g^beta summed over
    the point's shifted terms: D times sum value * g^beta * zeta_q^(g, s)."""
    field, shifted = kernel[0], kernel[3]
    factors = _monomials(kernel, beta)
    for terms, _ in shifted:
        vec = [0] * field
        for factor, xs in zip(factors, terms):
            for p, x in xs if factor else ():
                vec[p] += factor * x
        yield vec


def _point_orders(kernel, beta) -> list:
    """Per point, the order its _point_moments value is held at: the lcm of
    1 and the orders of the terms whose g^beta is nonzero."""
    nonzero = _monomials(kernel, beta)
    return [lcm(1, *compress(labels, nonzero)) for _, labels in kernel[3]]


def _product(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    """a * b over a.den * b.den: at the lcm N of the fields, each pair of
    terms adds x * y at (p + q) mod N of its frequency's vector, keys in the
    order the pairwise sum of CyclotomicNumber products meets them.  A sum is
    labelled with the lcm of its pairs' labels (a rational held at order 4
    stays there) and dropped if it vanishes."""
    field = lcm(a.field, b.field)
    left, right = _sparse(a, field), _sparse(b, field)
    sums: dict[tuple[int, ...], list] = {}
    for fa, xs, la in left:
        for fb, ys, lb in right:
            freq = tuple(map(add, fa, fb))
            slot = sums.get(freq)
            if slot is None:
                slot = sums[freq] = [[0] * field, lcm(la, lb)]
            else:
                slot[1] = lcm(slot[1], la, lb)
            vec = slot[0]
            for p, x in xs:
                for q, y in ys:
                    vec[(p + q) % field] += x * y
    return TrigPoly._merged(a.dim, field, a.den * b.den, (
        (freq, (vec, label)) for freq, (vec, label) in sums.items()
        if not _vanishes(vec, field)))


def _sparse(poly: TrigPoly, field: int) -> list:
    """(freq, [(position at order `field`, numerator) if nonzero], label)."""
    step = field // poly.field
    return [(f, [(p * step, x) for p, x in enumerate(vec) if x], label)
            for f, (vec, label) in poly.vectors.items()]


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


def _placed(pairs) -> tuple[int, int, list]:
    """(F, D, [(key, (vec, order))]) of (key, value) pairs, each value a
    CyclotomicNumber or a Rational (an order-1 value): their coordinates over
    one denominator D at the lcm F of the orders, as Python ints; zeros kept."""
    pairs = [(key, (1, (c,)) if isinstance(c, Rational) else (c.order, c.coords))
             for key, c in pairs]
    field = lcm(*(order for _, (order, _) in pairs))
    den = lcm(*(int(x.denominator) for _, (_, coords) in pairs for x in coords))
    return field, den, [(key, (_spread([int(x.numerator) * (den // int(x.denominator))
                                        for x in coords], field, 1), order))
                        for key, (order, coords) in pairs]


def _coefficient_sum(poly: TrigPoly, field: int, scale: int = 1) -> list:
    """scale times poly's numerator vectors summed (t(0) over den), at `field`."""
    return _spread([sum(xs) for xs in zip(*(vec for vec, _ in poly.vectors.values()))]
                   or [0] * poly.field, field, scale)


def _merge_vectors(field: int, plus, minus=()) -> dict:
    """{freq: (vec, label)} of the vectors of `plus` and the negated vectors
    of `minus` (at order `field` over one denominator), summed per frequency
    in arrival order.  A sum is labelled with the lcm of its labels, as the
    CyclotomicNumber fold holds it, and dropped if it vanishes mod Phi_field;
    a vector met once, only if all zeros.  No vector is changed in place."""
    sums: dict = {}
    summed = set()
    for pairs, op in ((plus, add), (minus, sub)):
        for freq, (vec, label) in pairs:
            slot = sums.get(freq)
            if slot is None:
                sums[freq] = (vec if op is add else [-x for x in vec], label)
            else:
                sums[freq] = (list(map(op, slot[0], vec)), lcm(slot[1], label))
                summed.add(freq)
    return {f: s for f, s in sums.items()
            if any(s[0]) and not (f in summed and _vanishes(s[0], field))}


def _rational_numerators(poly: TrigPoly) -> list | None:
    """Each value's numerator over poly.den, in key order, when every value
    is rational (a rational held at order 4 counts), else None."""
    if poly.field == 1:
        return [vec[0] for vec, _ in poly.vectors.values()]
    numerators = []
    for vec, label in poly.vectors.values():
        coords = vec if not any(vec[1:]) else _canonical(vec, poly.field, label)
        if any(coords[1:]):
            return None
        numerators.append(coords[0])
    return numerators


def _vanishing_sum(dim: int, parts) -> bool:
    """Does the sum of sign * poly * prod(1 - z^v for v in vectors) over the
    (sign, poly, vectors) parts vanish?  Each product is signed shifts of the
    poly's numerators over the lcm of the denominators, every frequency an
    int code on one _Box, a cube that holds each shifted point, so a shift
    is one int add.  When every value is rational the sum at a frequency is
    one int; otherwise it is one vector at the lcm F of the fields, tested
    mod Phi_F."""
    den = lcm(*(poly.den for _, poly, _ in parts))
    values = []
    for _, poly, _ in parts:
        numerators = _rational_numerators(poly)
        if numerators is None:
            break
        values.append(numerators)
    rational = len(values) == len(parts)
    if not rational:
        field = lcm(*(poly.field for _, poly, _ in parts))
        values = [[xs for _, xs, _ in _sparse(poly, field)] for _, poly, _ in parts]
    moves, reach = [], 0
    for sign, poly, vectors in parts:
        shifts = {(0,) * dim: sign * (den // poly.den)}
        for v in vectors:
            for shift, count in list(shifts.items()):
                moved = tuple(map(add, shift, v))
                shifts[moved] = shifts.get(moved, 0) - count
        moves.append(shifts)
        if poly.vectors:
            reach = max(reach, max(map(abs, chain.from_iterable(poly.vectors)))
                        + max(map(abs, chain.from_iterable(shifts))))
    # every shifted frequency lies in the cube of this reach
    strides = _Box.spanning([-reach] * dim, [reach] * dim).strides
    sums: dict = {}
    for (_, poly, _), shifts, terms in zip(parts, moves, values):
        codes = [sum(map(mul, f, strides)) for f in poly.vectors]
        for shift, count in shifts.items():
            s = sum(map(mul, shift, strides))
            if rational:
                for c, n in zip(codes, terms):
                    c += s
                    sums[c] = sums.get(c, 0) + count * n
                continue
            for c, xs in zip(codes, terms):
                c += s
                vec = sums.get(c)
                if vec is None:
                    vec = sums[c] = [0] * field
                for p, x in xs:
                    vec[p] += count * x
    if rational:
        return not any(sums.values())
    return all(_vanishes(vec, field) for vec in sums.values())
