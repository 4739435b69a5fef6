"""Integer dilation-matrix arithmetic.

Exact determinants and inverses, coset classification of the integer lattice
modulo an expanding integer matrix, deterministic digit-set construction, and
the matrix norms / spectral probes used by the smoothness gates.

Cosets are decided in integers: inverse = adjugate / det, so two vectors are
congruent modulo the matrix exactly when their adjugate images agree modulo
|det| (the fraction-free idiom determinant() uses), and the quotient of a
vector by the matrix is its adjugate image divided exactly by det.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

import numpy as np

from .cyclotomic import CyclotomicNumber, exp_of_rational
from .errors import MaskforgeError, UserDigitsInvalid

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]

DILATION_EIGENVALUE_TOL = 1e-9
ISOTROPY_MODULUS_RTOL = 1e-9
EIGENBASIS_CONDITION_CAP = 1e8


def as_int_matrix(rows) -> IntMatrix:
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    return mat


def determinant(matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
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
    return sign * mat[-1][-1]


def matrix_inverse(matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix with integer or rational entries."""
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] +
           [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise MaskforgeError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def transpose(matrix):
    return tuple(tuple(row[j] for row in matrix) for j in range(len(matrix)))


def mat_vec(matrix, vec):
    return tuple(sum(map(mul, row, vec)) for row in matrix)


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
    """det(matrix) * inverse(matrix), an integer matrix."""
    det = determinant(matrix)
    return tuple(tuple(int(x * det) for x in row) for row in matrix_inverse(matrix))


def coset_key(adj, modulus: int, vec) -> IntVector:
    """adj @ vec modulo |det|; equal keys mean congruent vectors."""
    return tuple(x % modulus for x in mat_vec(adj, vec))


def _canonical_candidates(dim: int, radius: int):
    """Integer points of the max-norm ball, ordered by (max-norm, then a
    magnitude-then-sign lexicographic order on coordinates).

    The per-coordinate order 0 < 1 < -1 < 2 < -2 < ... keeps the enumeration
    deterministic and puts 0 first, so digit 0 always leads.
    """
    coords = [0]
    for r in range(radius + 1):
        if r:
            coords += [r, -r]
        # product over coordinates in that order is lexicographic already;
        # the points of max-norm r come out shell by shell, lazily
        for point in itertools.product(coords, repeat=dim):
            if max(map(abs, point)) == r:
                yield point


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
    raise MaskforgeError(
        f"enumeration box of radius {radius} met only {len(found)} of {m} cosets")


@dataclass(frozen=True)
class IsotropyReport:
    verdict: str                      # "yes" | "no" | "inconclusive"
    eigenvalue_moduli: tuple[float, ...]
    max_similarity_product: Fraction  # max over k<=depth of |M^k| * |M^-k|
    probe_depth: int

    def to_json(self) -> dict:
        from .maskfile import format_rational
        return {"verdict": self.verdict,
                "eigenvalue_moduli": list(self.eigenvalue_moduli),
                "max_similarity_product": format_rational(self.max_similarity_product),
                "probe_depth": self.probe_depth}


def is_isotropic(matrix, probe_depth: int = 8) -> IsotropyReport:
    """Three-valued isotropy verdict.

    The defining uniform bound over all powers is not decidable by finite
    computation; the operative test is equal eigenvalue moduli plus a
    numerically full-rank eigenvector basis.  The exact similarity products
    |M^k| * |M^-k| for k <= probe_depth are reported alongside.
    """
    matrix = as_int_matrix(matrix)
    eigvals, eigvecs = np.linalg.eig(np.array(matrix, dtype=float))
    moduli = tuple(sorted(float(abs(v)) for v in eigvals))

    inverse = matrix_inverse(matrix)
    best = Fraction(0)
    for k in range(1, probe_depth + 1):
        prod = inf_norm(matrix_power(matrix, k)) * inf_norm(matrix_power(inverse, k))
        best = max(best, Fraction(prod))

    scale = max(moduli[-1], 1.0)
    if moduli[-1] - moduli[0] > ISOTROPY_MODULUS_RTOL * scale:
        verdict = "no"
    else:
        finite = np.all(np.isfinite(eigvecs))
        cond = np.linalg.cond(eigvecs) if finite else float("inf")
        verdict = "yes" if cond < EIGENBASIS_CONDITION_CAP else "inconclusive"
    return IsotropyReport(verdict, moduli, best, probe_depth)


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
    inverse: tuple[tuple[Fraction, ...], ...] = field(repr=False)
    dual_inverse: tuple[tuple[Fraction, ...], ...] = field(repr=False)
    _digit_keys: dict = field(repr=False, compare=False)
    _dual_digit_keys: dict = field(repr=False, compare=False)

    @classmethod
    def create(cls, matrix, digits=None, dual_digits=None) -> "DilationContext":
        matrix = as_int_matrix(matrix)
        dim = len(matrix)
        det = determinant(matrix)
        if det == 0:
            raise MaskforgeError("dilation matrix must be nonsingular")
        eigvals = np.linalg.eigvals(np.array(matrix, dtype=float))
        if min(abs(v) for v in eigvals) <= 1 + DILATION_EIGENVALUE_TOL:
            raise MaskforgeError(
                "all eigenvalues of a dilation matrix must exceed 1 in modulus")
        m = abs(det)
        if m < 2:
            raise MaskforgeError("a dilation matrix needs |det| >= 2")
        adj = adjugate(matrix)
        inverse = tuple(tuple(Fraction(x, det) for x in row) for row in adj)
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
            inverse=inverse,
            dual_inverse=transpose(inverse),
            _digit_keys={coset_key(adj, m, d): i for i, d in enumerate(digits)},
            _dual_digit_keys={coset_key(transpose(adj), m, d): i
                              for i, d in enumerate(dual_digits)},
        )

    @property
    def dual_matrix(self) -> IntMatrix:
        return transpose(self.matrix)

    @cached_property
    def digit_fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        """The points inverse @ digit, one per digit; denominators divide m.
        Computed on first use and kept (the context never changes)."""
        return tuple(mat_vec(self.inverse, s) for s in self.digits)

    def coset_index(self, vec, dual: bool = False) -> int:
        """Index of the digit congruent to vec (mod the matrix, or its transpose)."""
        # adjugate(transpose(matrix)) = transpose(adjugate)
        adj = transpose(self.adjugate) if dual else self.adjugate
        keys = self._dual_digit_keys if dual else self._digit_keys
        return keys[coset_key(adj, self.m, vec)]

    def base_point(self, vec, dual: bool = False) -> tuple[int, IntVector]:
        """(index, quotient) with vec = matrix @ quotient + digit[index]."""
        idx = self.coset_index(vec, dual)
        digits = self.dual_digits if dual else self.digits
        adj = transpose(self.adjugate) if dual else self.adjugate
        diff = tuple(a - b for a, b in zip(vec, digits[idx]))
        quot = [divmod(x, self.det) for x in mat_vec(adj, diff)]
        if any(r for _, r in quot):
            raise MaskforgeError("coset arithmetic failed")  # unreachable
        return idx, tuple(q for q, _ in quot)


def digit_fourier_matrix(ctx: DilationContext) -> list[list[CyclotomicNumber]]:
    """The m-by-m matrix of e^(2*pi*i*(r_k, dual_digit_l)) in exact arithmetic.

    Scaled by 1/sqrt(m) this matrix is unitary; that property underpins both
    the polyphase value identities and the digit interpolants.
    """
    rs = ctx.digit_fractions
    return [[exp_of_rational(sum((rk[i] * sl[i] for i in range(ctx.dim)),
                                 start=Fraction(0)))
             for sl in ctx.dual_digits] for rk in rs]


def digit_fourier_is_unitary(ctx: DilationContext) -> bool:
    """Exact check that U Uh == m I for the digit Fourier matrix."""
    u = digit_fourier_matrix(ctx)
    m = ctx.m
    for i in range(m):
        for j in range(m):
            acc = CyclotomicNumber.zero()
            for l in range(m):
                acc = acc + u[i][l] * u[j][l].conjugate()
            if acc != (m if i == j else 0):
                return False
    return True
