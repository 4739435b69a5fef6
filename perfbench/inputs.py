"""Seeded inputs for the maskforge benchmark.

Every input is a file written into a caller-supplied directory: mask JSON
files and sequence CSV files.  Box-spline masks, the repository's example
mask and the impulse refinements are fixed; derivative-table masks and random
refinement data are drawn from the seed, one independent stream per input
name, so adding an input never changes the others.

Nothing here calls a maskforge analysis function.  Derivative-table masks
are built with ``mask_from_derivative_table``, the constructor the library
offers for them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXAMPLE_MASK = Path("tests") / "data" / "example_mask_2d.json"

DIL_EXAMPLE = ((0, 2), (2, -1))
DIGITS_EXAMPLE = ((0, 0), (1, 0), (0, 1), (1, 1))
DIL_2I = ((2, 0), (0, 2))
DIL_QUINCUNX = ((1, 1), (1, -1))
DIL_2I_3D = ((2, 0, 0), (0, 2, 0), (0, 0, 2))

E1, E2 = (1, 0), (0, 1)
X3, Y3, Z3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


@dataclass(frozen=True)
class CertifyInput:
    """One mask for the analyze / decompose / verify / smooth sequence."""
    name: str
    path: str
    order: int              # sum-rule order the mask was built for
    lmax: int
    seeded: bool
    certifies: bool = False  # must report "convergent" at this lmax


@dataclass(frozen=True)
class RefineInput:
    """One refine call: mask, rounds, optional data CSV, expected mass."""
    name: str
    path: str
    rounds: int
    data: str | None
    mass_in: Fraction       # sum of the input values
    mask_sum: Fraction      # t(0), the sum of the mask coefficients
    seeded: bool
    dim: int


# ---------------------------------------------------------------------------
# polynomial and matrix helpers on plain Python values.  They repeat a little
# of maskforge.lattice on purpose: the box masks and the orders they are built
# for serve as an oracle for the program, so they must not come from it.
# ---------------------------------------------------------------------------

def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            freq = tuple(x + y for x, y in zip(fa, fb))
            out[freq] = out.get(freq, 0) + ca * cb
    return {f: c for f, c in out.items() if c}


def _det(matrix) -> int:
    if len(matrix) == 1:
        return matrix[0][0]
    return sum((-1) ** j * matrix[0][j]
               * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
               for j in range(len(matrix)))


def _mat_vec(matrix, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in matrix)


def box_mask_terms(dilation, directions) -> dict:
    """Refinement mask of the box spline with the given direction multiset.

    The dilation must map every direction to a positive integer multiple c of
    a direction of the set, bijectively; the symbol is then
    m * prod (1 + z^xi' + ... + z^((c-1) xi')) / c over those images.
    """
    dim = len(directions[0])
    m = abs(_det([list(r) for r in dilation]))
    remaining = list(directions)
    terms = {(0,) * dim: Fraction(m)}
    for xi in directions:
        image = _mat_vec(dilation, xi)
        for c in range(1, max(abs(x) for x in image) + 1):
            if all(x % c == 0 for x in image) and \
                    tuple(x // c for x in image) in remaining:
                target = tuple(x // c for x in image)
                remaining.remove(target)
                break
        else:
            raise ValueError(f"direction {xi} has no image in the set")
        factor = {tuple(s * x for x in target): Fraction(1, c) for s in range(c)}
        terms = _poly_mul(terms, factor)
    return terms


def tile_mask_terms(dilation, digits, power: int) -> dict:
    """m * (sum over digits of z^digit / m)^power: the mask of the power-fold
    self-convolution of the digit tile's indicator."""
    m = len(digits)
    base = {tuple(d): Fraction(1, m) for d in digits}
    terms = {(0,) * len(digits[0]): Fraction(m)}
    for _ in range(power):
        terms = _poly_mul(terms, base)
    return terms


def box_order(dilation, directions) -> int:
    """Sum-rule order of a box-spline mask.

    The factor of direction xi vanishes, to first order, at the nonzero dual
    points w = inverse-transpose(dilation) gamma with (xi, w) not an integer;
    the order is one less than the smallest zero count over those points.
    """
    inverse_t = _inverse_transpose(dilation)
    m = abs(_det([list(r) for r in dilation]))
    points = set()
    for gamma in itertools.product(range(m), repeat=len(dilation)):
        w = tuple(x % 1 for x in _mat_vec(inverse_t, gamma))
        if any(w):
            points.add(w)
    return min(sum(1 for xi in directions
                   if sum(a * b for a, b in zip(xi, w)).denominator != 1)
               for w in points) - 1


def _inverse_transpose(matrix):
    """Inverse of the transpose, by Gauss-Jordan over the rationals."""
    n = len(matrix)
    aug = [[Fraction(matrix[j][i]) for j in range(n)]
           + [Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _fmt(value: Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 \
        else f"{value.numerator}/{value.denominator}"


def _mask_doc(dilation, terms: dict, digits=None) -> dict:
    doc = {"dim": len(dilation), "dilation": [list(r) for r in dilation]}
    if digits is not None:
        doc["digits"] = [list(d) for d in digits]
    doc["coefficients"] = [{"freq": list(f), "value": _fmt(terms[f])}
                           for f in sorted(terms)]
    return doc


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _tensor(degree: int, dim: int = 2):
    axes = (E1, E2) if dim == 2 else (X3, Y3, Z3)
    return [a for a in axes for _ in range(degree + 1)]


BOX_LMAX = 3
FOUR_DIRECTIONS = [E1, E2, (1, 1), (1, -1)]

# name, dilation, digits, direction multiset (None: tile spline), tile power,
# smooth --lmax, certifies by that lmax.  The triquadratic box certifies only
# at L=3, which costs about 9 s in convergence alone, so it runs at L=1: that
# still builds its 9x9 second-difference scheme.  The quincunx boxes do not
# certify by L=3.
BOX_FAMILY = [
    ("box-2i-tensor1", DIL_2I, None, _tensor(1), 0, BOX_LMAX, True),
    ("box-2i-tensor2", DIL_2I, None, _tensor(2), 0, BOX_LMAX, True),
    ("box-2i-tensor3", DIL_2I, None, _tensor(3), 0, BOX_LMAX, True),
    ("box-2i-threedir", DIL_2I, None, [E1, E2, (1, 1)] * 2, 0, BOX_LMAX, True),
    ("box-2i-zwart", DIL_2I, None, FOUR_DIRECTIONS, 0, BOX_LMAX, True),
    ("box-example-tile2", DIL_EXAMPLE, DIGITS_EXAMPLE, None, 2, BOX_LMAX, True),
    ("box-example-tile3", DIL_EXAMPLE, DIGITS_EXAMPLE, None, 3, BOX_LMAX, True),
    ("box-quincunx-fourdir1", DIL_QUINCUNX, None, FOUR_DIRECTIONS, 0, BOX_LMAX,
     False),
    ("box-quincunx-fourdir2", DIL_QUINCUNX, None, FOUR_DIRECTIONS * 2, 0,
     BOX_LMAX, False),
    ("box-3d-trilinear", DIL_2I_3D, None, _tensor(1, 3), 0, BOX_LMAX, True),
    ("box-3d-triquadratic", DIL_2I_3D, None, _tensor(2, 3), 0, 1, False),
]

# (label, dilation, digits) of the derivative-table masks
TABLE_DILATIONS = [
    ("example", DIL_EXAMPLE, DIGITS_EXAMPLE),
    ("2i", DIL_2I, None),
    ("quincunx", DIL_QUINCUNX, None),
]
# (label, dilation, digits, order, smooth --lmax): every power up to lmax is
# computed, because these masks never certify.  Order 1 runs one power
# further than the higher orders, whose second power alone costs seconds.
RATIONAL_TABLES = [(label, dilation, digits, order, 2 if order == 1 else 1)
                   for label, dilation, digits in TABLE_DILATIONS
                   for order in (1, 2, 3)] + [("3d-2i", DIL_2I_3D, None, 1, 1)]
CYCLOTOMIC_TABLES = [(label, dilation, digits, order, 1)
                     for label, dilation, digits in TABLE_DILATIONS
                     for order in (1, 2)] + [("3d-2i", DIL_2I_3D, None, 1, 1)]
# The orders of the roots of unity carried by the higher-order entries: each
# table above once with cube roots and once with fifth roots; the order-1
# plane tables once more with both, which puts their coefficients in the 15th
# cyclotomic field, and those run one operator power further.
CYCLOTOMIC_VARIANTS = [
    ((3,), CYCLOTOMIC_TABLES),
    ((5,), CYCLOTOMIC_TABLES),
    ((3, 5), [(label, dilation, digits, 1, 2)
              for label, dilation, digits in TABLE_DILATIONS]),
]


# The seed draws signs and numerators; the denominator of the k-th drawn value
# is fixed, every numerator is prime to it, and the powers of the roots of
# unity in a table are fixed too.  A seed then changes the values but not the
# sizes of the numbers the program carries, which set the cost of its exact
# arithmetic: the seeded ops cost the same on every seed.
DENOMINATORS = (1, 2, 3, 4)
NUMERATORS = (1, 5, 7, 11)


def _nonzero_rational(rng: random.Random, k: int) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.choice(NUMERATORS),
                    DENOMINATORS[k % len(DENOMINATORS)])


def _table_values(rng: random.Random, dim: int, order: int, m: int,
                  roots: tuple) -> dict:
    """Value m at the origin; elsewhere a nonzero rational plus, when roots
    are given, a nonzero rational multiple of a primitive root of unity whose
    order cycles through `roots`."""
    from maskforge.cyclotomic import CyclotomicNumber, root_of_unity
    from maskforge.sumrules import multi_indices_up_to
    values = {}
    for index, beta in enumerate(multi_indices_up_to(dim, order)):
        if not any(beta):
            values[beta] = CyclotomicNumber.from_rational(m)
            continue
        value = CyclotomicNumber.from_rational(_nonzero_rational(rng, index))
        if roots:
            root = roots[index % len(roots)]
            # fixed by position, like the denominators; primitive, as root
            # is prime
            power = 1 + (index // len(roots)) % (root - 1)
            value = value + root_of_unity(root, power) * _nonzero_rational(
                rng, index + 1)
        values[beta] = value
    return values


def table_mask_doc(seed: int, name: str, dilation, digits, order: int,
                   roots: tuple = ()) -> dict:
    from maskforge.lattice import DilationContext
    from maskforge.maskfile import mask_document
    from maskforge.sumrules import DerivativeTable, mask_from_derivative_table
    ctx = DilationContext.create(dilation, digits=digits)
    rng = random.Random(f"{seed}:{name}")
    values = _table_values(rng, ctx.dim, order, ctx.m, roots)
    table = DerivativeTable(dim=ctx.dim, order=order, values=values)
    return mask_document(mask_from_derivative_table(ctx, table), ctx)


def _write_json(directory: Path, name: str, doc: dict) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _table_input(seed: int, out: Path, name: str, dilation, digits,
                 order: int, lmax: int, roots: tuple = ()) -> CertifyInput:
    doc = table_mask_doc(seed, name, dilation, digits, order, roots)
    return CertifyInput(name, _write_json(out, name, doc), order, lmax, True)


def certify_rational(seed: int, root: Path, out: Path) -> list:
    items = [CertifyInput("example", str(root / EXAMPLE_MASK), 0, BOX_LMAX,
                          False, True)]
    for name, dilation, digits, directions, power, lmax, certifies in BOX_FAMILY:
        if directions is None:
            terms = tile_mask_terms(dilation, digits, power)
            order = power - 1
        else:
            terms = box_mask_terms(dilation, directions)
            order = box_order(dilation, directions)
        path = _write_json(out, name, _mask_doc(dilation, terms, digits))
        items.append(CertifyInput(name, path, order, lmax, False, certifies))
    for label, dilation, digits, order, lmax in RATIONAL_TABLES:
        items.append(_table_input(seed, out, f"table-rat-{label}-o{order}",
                                  dilation, digits, order, lmax))
    return items


def certify_cyclotomic(seed: int, root: Path, out: Path) -> list:
    items = []
    for roots, tables in CYCLOTOMIC_VARIANTS:
        tag = "".join(f"z{r}" for r in roots)
        for label, dilation, digits, order, lmax in tables:
            items.append(_table_input(seed, out, f"table-{tag}-{label}-o{order}",
                                      dilation, digits, order, lmax, roots))
    return items


# name, dilation, direction multiset (None: the example mask), rounds
REFINE_IMPULSES = [
    ("refine-example-k5", None, None, 5),
    ("refine-2i-bilinear", DIL_2I, _tensor(1), 5),
    ("refine-quincunx-fourdir1", DIL_QUINCUNX, FOUR_DIRECTIONS, 10),
    ("refine-3d-trilinear", DIL_2I_3D, _tensor(1, 3), 3),
]
# random values on a fixed 3x3 block, refined on the example mask
REFINE_DATA_INPUTS = 3
REFINE_DATA_ROUNDS = 3
REFINE_DATA_SUPPORT = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]


def _mask_sum(doc: dict) -> Fraction:
    if "coefficients" in doc:
        items = doc["coefficients"]
    else:
        items = [c for part in doc["polyphase"] for c in part["coefficients"]]
    return sum((Fraction(item["value"]) for item in items), Fraction(0))


def refine_deep(seed: int, root: Path, out: Path) -> list:
    example_path = str(root / EXAMPLE_MASK)
    example_sum = _mask_sum(json.loads(Path(example_path).read_text()))
    items = []
    for name, dilation, directions, rounds in REFINE_IMPULSES:
        if directions is None:
            path, total = example_path, example_sum
        else:
            doc = _mask_doc(dilation, box_mask_terms(dilation, directions))
            path, total = _write_json(out, name, doc), _mask_sum(doc)
        dim = 2 if dilation is None else len(dilation)
        items.append(RefineInput(name, path, rounds, None, Fraction(1), total,
                                 False, dim))
    for index in range(REFINE_DATA_INPUTS):
        name = f"refine-example-data{index}"
        rng = random.Random(f"{seed}:{name}")
        rows = [(p, _nonzero_rational(rng, k))
                for k, p in enumerate(REFINE_DATA_SUPPORT)]
        data = out / f"{name}.csv"
        data.write_text("".join(f"{p[0]},{p[1]},{_fmt(v)}\n" for p, v in rows))
        items.append(RefineInput(name, example_path, REFINE_DATA_ROUNDS,
                                 str(data), sum(v for _, v in rows),
                                 example_sum, True, 2))
    return items


WORKLOADS = {
    "certify-rational": certify_rational,
    "certify-cyclotomic": certify_cyclotomic,
    "refine-deep": refine_deep,
}


def generate(workload: str, seed: int, root: Path, out: Path) -> list:
    """Write the workload's inputs for this seed into `out`; return them in
    run order.  `root` is the repository checkout holding tests/data."""
    return WORKLOADS[workload](seed, Path(root), Path(out))
