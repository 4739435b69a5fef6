"""Integer dilation-matrix arithmetic.

The lattice works in integers: exact determinants, the adjugate and the
characteristic polynomial, coset classification of the integer lattice
modulo an expanding integer matrix, deterministic digit-set construction,
and the matrix norms and exact spectral gates of the smoothness checks.

The inverse is held only as the adjugate over det: two vectors are congruent
modulo the matrix exactly when their adjugate images agree modulo |det| (the
fraction-free idiom determinant() uses), the quotient of a vector by the
matrix is its adjugate image divided exactly by det, and |M^-k| is
|adjugate^k| / |det|^k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .cyclotomic import _divide_monic
from .errors import InternalIdentityViolation, MaskforgeError, UserDigitsInvalid

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]

# powers k whose similarity products |M^k| * |M^-k| the isotropy report lists
ISOTROPY_PROBE_DEPTH = 8


def as_int_matrix(rows) -> IntMatrix:
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    return mat


def determinant(matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination);
    the empty matrix has determinant 1."""
    mat = [list(row) for row in as_int_matrix(matrix)]
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[-1][-1] if n else 1


def transpose(matrix):
    return tuple(tuple(row[j] for row in matrix) for j in range(len(matrix)))


def mat_vec(matrix, vec):
    return tuple([sum(map(mul, row, vec)) for row in matrix])


def mat_vecs(matrix, vecs) -> list:
    """[mat_vec(matrix, v) for v in vecs], formed one axis at a time."""
    columns, rows = list(zip(*vecs)), []
    for row in matrix:
        image = [0] * len(vecs)
        for a, column in zip(row, columns):
            if a:
                image = [y + a * x for y, x in zip(image, column)]
        rows.append(image)
    return list(zip(*rows))


class _Box(NamedTuple):
    """The lattice points of the box lo..hi, each coded as the int
    x . strides.  On the box the code is one to one, and it is additive: a
    sum of points that lies in the box is coded by the sum of their codes,
    and matrix x by x . columns(matrix)."""
    lo: list
    strides: list

    @classmethod
    def spanning(cls, lo, hi) -> "_Box":
        strides = [1]
        for low, high in zip(lo[:0:-1], hi[:0:-1]):
            strides.append(strides[-1] * (high - low + 1))
        strides.reverse()
        return cls(list(lo), strides)

    def code(self, x) -> int:
        return sum(map(mul, x, self.strides))

    def columns(self, matrix) -> list:
        """The codes of the matrix's columns."""
        return [self.code(column) for column in zip(*matrix)]

    @property
    def origin(self) -> int:
        """The code of lo."""
        return self.code(self.lo)

    def digits(self, codes) -> list:
        """One list per axis: each coded point's coordinate less lo."""
        origin = self.origin
        codes = [c - origin for c in codes]
        axes = []
        for stride in self.strides:
            axes.append([c // stride for c in codes])
            codes = [c % stride for c in codes]
        return axes

    def coordinates(self, codes, axis: int) -> list:
        """Each coded point's coordinate on one axis (numbered from 0)."""
        origin, stride, low = self.origin, self.strides[axis], self.lo[axis]
        if axis == 0:
            return [(c - origin) // stride + low for c in codes]
        outer = self.strides[axis - 1]
        return [(c - origin) % outer // stride + low for c in codes]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


def matrix_power(matrix, exponent: int):
    n = len(matrix)
    result = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    base = tuple(tuple(row) for row in matrix)
    e = exponent
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def inf_norm(matrix):
    """Max absolute row sum; exact for integer or Fraction entries."""
    return max(sum(abs(x) for x in row) for row in matrix)


def power_inf_norm(matrix, exponent: int):
    """Exact inf-norm of the exponent-th power of an integer matrix."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    return inf_norm(matrix_power(as_int_matrix(matrix), exponent))


def adjugate(matrix) -> IntMatrix:
    """det(matrix) * inverse(matrix): the transposed signed cofactors, each
    minor's determinant taken fraction-free."""
    matrix = as_int_matrix(matrix)
    axes = range(len(matrix))
    return tuple(tuple((-1) ** (i + j) * determinant(
        [row[:i] + row[i + 1:] for r, row in enumerate(matrix) if r != j])
        for j in axes) for i in axes)


def _mul_add(a, b, c: int):
    """a @ b + c * identity."""
    return tuple(tuple(x + c * (i == j) for j, x in enumerate(row))
                 for i, row in enumerate(mat_mul(a, b)))


def characteristic_polynomial(matrix) -> tuple[int, ...]:
    """det(x*identity - matrix), constant term first as cyclotomic_polynomial
    orders it, by Faddeev-LeVerrier: every division by k is exact."""
    matrix = as_int_matrix(matrix)
    coeffs, aux = [1], ((0,) * len(matrix),) * len(matrix)
    for k in range(1, len(matrix) + 1):
        aux = _mul_add(matrix, aux, coeffs[-1])
        coeffs.append(-sum(row[i] for i, row in enumerate(mat_mul(matrix, aux))) // k)
    return tuple(reversed(coeffs))


def _inside_unit_circle(poly) -> bool:
    """Whether every root of an integer polynomial (constant term first) lies
    strictly inside the unit circle, by the Schur-Cohn test: while |a_0| <
    |a_n|, p passes exactly when (a_n*p - a_0*reversed(p)) / x does."""
    while len(poly) > 1 and abs(poly[0]) < abs(poly[-1]):
        poly = [poly[-1] * poly[k + 1] - poly[0] * poly[-2 - k]
                for k in range(len(poly) - 1)]
    return len(poly) == 1


def _squarefree_part(poly) -> list[int]:
    """poly / gcd(poly, poly'); for a monic integer poly the monic gcd is integral."""
    a, b = [Fraction(c) for c in poly], [Fraction(k * c) for k, c in enumerate(poly)][1:]
    while any(b):
        b = b[:max(i for i, x in enumerate(b) if x) + 1]  # drop zero top terms
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            a = [x - q * y for x, y in zip(a, [0] * (len(a) - len(b)) + b)][:-1]
        a, b = b, a
    return _divide_monic(poly, [int(c / a[-1]) for c in a])


def _key(image, modulus: int) -> IntVector:
    return tuple([x % modulus for x in image])


def coset_key(adj, modulus: int, vec) -> IntVector:
    """adj @ vec modulo |det|; equal keys mean congruent vectors."""
    return _key(mat_vec(adj, vec), modulus)


def _canonical_candidates(dim: int, radius: int):
    """Integer points of the max-norm ball, ordered by (max-norm, then a
    magnitude-then-sign lexicographic order on coordinates).

    The per-coordinate order 0 < 1 < -1 < 2 < -2 < ... keeps the enumeration
    deterministic and puts 0 first, so digit 0 always leads.  Each shell of
    max-norm r is yielded directly, lazily, without passing the ball inside
    it.
    """
    coords = [0]
    for r in range(radius + 1):
        if r:
            coords += [r, -r]
        yield from _shell(dim, r, coords)


def _shell(dim: int, r: int, coords: list):
    """The points of max-norm r over coords (0, 1, -1, ..., r, -r) in
    lexicographic order: after a first coordinate of magnitude r any rest
    of the ball, after a smaller one a rest on the shell."""
    if dim == 1:
        yield from ((r,), (-r,)) if r else ((0,),)
        return
    for c in coords:
        rests = (itertools.product(coords, repeat=dim - 1) if abs(c) == r
                 else _shell(dim - 1, r, coords))
        for rest in rests:
            yield (c, *rest)


def digit_set(matrix, user_digits=None) -> tuple[IntVector, ...]:
    """Ordered complete set of coset representatives mod the matrix.

    With user_digits the list is validated (cardinality |det|, leading zero,
    pairwise incongruent) and returned as given.  Otherwise digits are picked
    canonically: first representative of each new coset along the deterministic
    enumeration of the box [-inf_norm, inf_norm]^dim.
    """
    matrix = as_int_matrix(matrix)
    dim = len(matrix)
    m = abs(determinant(matrix))
    if m == 0:
        raise MaskforgeError("matrix is singular")
    adj = adjugate(matrix)

    if user_digits is not None:
        digits = tuple(tuple(int(x) for x in d) for d in user_digits)
        if len(digits) != m:
            raise UserDigitsInvalid(f"expected {m} digits, got {len(digits)}")
        if any(len(d) != dim for d in digits):
            raise UserDigitsInvalid("digit has wrong dimension")
        if digits[0] != (0,) * dim:
            raise UserDigitsInvalid("digit list must start with the zero vector")
        keys = {coset_key(adj, m, d) for d in digits}
        if len(keys) != m:
            raise UserDigitsInvalid("digits contain a congruent pair")
        return digits

    radius = int(inf_norm(matrix))
    found: dict[tuple, IntVector] = {}
    for point in _canonical_candidates(dim, radius):
        key = coset_key(adj, m, point)
        if key not in found:
            found[key] = point
            if len(found) == m:
                return tuple(found.values())
    # unreachable: M[0,1)^dim meets every coset and lies inside the box
    raise InternalIdentityViolation(
        f"enumeration box of radius {radius} met only {len(found)} of {m} cosets")


@dataclass(frozen=True)
class IsotropyReport:
    verdict: str                      # "yes" | "no"
    characteristic_polynomial: tuple[int, ...]
    max_similarity_product: Fraction  # max over k<=depth of |M^k| * |M^-k|
    probe_depth: int

    def to_json(self) -> dict:
        from .maskfile import format_rational
        return {"verdict": self.verdict,
                "characteristic_polynomial": list(self.characteristic_polynomial),
                "max_similarity_product": format_rational(self.max_similarity_product),
                "probe_depth": self.probe_depth}


def is_isotropic(matrix) -> IsotropyReport:
    """Exact isotropy verdict: "yes" exactly when M is diagonalizable with
    eigenvalues of equal moduli, decided on A = M^dim, whose eigenvalues then
    all have modulus |det M|.  The squarefree part s of det(x - A) must
    annihilate A (so A, and the nonsingular M, are diagonalizable), and
    s(|det M| * x) must be self-inversive with its derivative's roots strictly
    inside the unit circle (Cohn's criterion; strict, as s has simple roots).
    The exact similarity products |M^k| * |M^-k| for k <= ISOTROPY_PROBE_DEPTH
    are reported alongside, each as |M^k| * |adjugate^k| / |det|^k.
    """
    matrix = as_int_matrix(matrix)
    m, adj = abs(determinant(matrix)), adjugate(matrix)
    if m == 0:
        raise MaskforgeError("matrix is singular")
    power, adj_power, best = matrix, adj, Fraction(0)
    for k in range(1, ISOTROPY_PROBE_DEPTH + 1):
        best = max(best, Fraction(inf_norm(power) * inf_norm(adj_power), m ** k))
        power, adj_power = mat_mul(power, matrix), mat_mul(adj_power, adj)

    power = matrix_power(matrix, len(matrix))
    squarefree = _squarefree_part(characteristic_polynomial(power))
    value = ((0,) * len(matrix),) * len(matrix)
    for c in reversed(squarefree):
        value = _mul_add(value, power, c)
    scaled = [c * m ** k for k, c in enumerate(squarefree)]
    equal_moduli = (scaled[::-1] in (scaled, [-c for c in scaled]) and
                    _inside_unit_circle([k * c for k, c in enumerate(scaled)][1:]))
    return IsotropyReport("yes" if equal_moduli and not any(map(any, value)) else "no",
                          characteristic_polynomial(matrix), best, ISOTROPY_PROBE_DEPTH)


def _coset_table(adj: IntMatrix, modulus: int, digits) -> tuple:
    """(coset key -> digit index, adj @ digit for each digit)."""
    images = tuple(mat_vec(adj, s) for s in digits)
    return {_key(image, modulus): i for i, image in enumerate(images)}, images


@dataclass(frozen=True)
class DilationContext:
    """A fixed expanding integer matrix with its digit data.

    Immutable after construction; safe to share across threads.
    """
    dim: int
    matrix: IntMatrix
    m: int
    det: int
    digits: tuple[IntVector, ...]
    dual_digits: tuple[IntVector, ...]
    adjugate: IntMatrix = field(repr=False)
    _cosets: tuple = field(repr=False, compare=False)  # keys, digit images

    @classmethod
    def create(cls, matrix, digits=None, dual_digits=None) -> "DilationContext":
        matrix = as_int_matrix(matrix)
        dim = len(matrix)
        det = determinant(matrix)
        if det == 0:
            raise MaskforgeError("dilation matrix must be nonsingular")
        if not _inside_unit_circle(characteristic_polynomial(matrix)[::-1]):
            raise MaskforgeError(
                "all eigenvalues of a dilation matrix must exceed 1 in modulus")
        m = abs(det)
        adj = adjugate(matrix)
        digits = digit_set(matrix, digits)
        dual_digits = digit_set(transpose(matrix), dual_digits)
        return cls(
            dim=dim,
            matrix=matrix,
            m=m,
            det=det,
            digits=digits,
            dual_digits=dual_digits,
            adjugate=adj,
            _cosets=_coset_table(adj, m, digits),
        )

    @property
    def dual_matrix(self) -> IntMatrix:
        return transpose(self.matrix)

    def coset_index(self, vec, image=None) -> int:
        """Index of the digit congruent to vec modulo the matrix; image, if
        known, is the adjugate's image of vec."""
        image = mat_vec(self.adjugate, vec) if image is None else image
        return self._cosets[0][_key(image, self.m)]

    def base_point(self, vec) -> tuple[int, IntVector]:
        """(index, quotient) with vec = matrix @ quotient + digit[index]."""
        return self._based(vec, mat_vec(self.adjugate, vec))

    def base_points(self, vecs) -> list:
        """base_point of each of a list of vectors."""
        return list(map(self._based, vecs, mat_vecs(self.adjugate, vecs)))

    def _based(self, vec, image) -> tuple[int, IntVector]:
        """base_point of vec, given its adjugate image."""
        idx = self.coset_index(vec, image)
        quot = [divmod(x - s, self.det) for x, s in zip(image, self._cosets[1][idx])]
        if any([r for _, r in quot]):
            raise InternalIdentityViolation("coset arithmetic failed")  # unreachable
        return idx, tuple([q for q, _ in quot])
