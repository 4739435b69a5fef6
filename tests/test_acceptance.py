"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from conftest import (coset_coefficient_sums, digit_fourier_is_unitary,
                      fraction_inverse, iterated_decomposition, kronecker_power, power_symbol,
                      random_class_mask, random_mask, random_sequence,
                      refined_points)
from maskforge.cli import main
from maskforge.decompose import (MaskDecomposition, decompose_mask,
                                 refine_decomposition)
from maskforge.lattice import (DilationContext, determinant, matrix_power,
                               transpose)
from maskforge.subdivision import (MatrixMask, Sequence, apply,
                                   check_convergence, gradient, operator_norm,
                                   refine, second_difference_scheme)
from maskforge.sumrules import (DerivativeTable, mask_from_derivative_table,
                                multi_indices_up_to, sum_rule_order,
                                sum_rule_order_direct)
from maskforge.trigpoly import TrigPoly
from maskforge.cyclotomic import CyclotomicNumber

from test_decompose import computed_polyphase_table, load_printed_table
from test_subdivision import brute_force_norm

DATA = Path(__file__).parent / "data"
EXAMPLE_FILE = str(DATA / "example_mask_2d.json")


def test_acceptance_1_example_reproduction(example_ctx, example_mask, capsys,
                                           tmp_path):
    started = time.perf_counter()
    dec = decompose_mask(example_mask, example_ctx)
    ours = computed_polyphase_table(dec)
    printed = load_printed_table()
    allow = json.loads((DATA / "printed_table_allowlist.json").read_text())
    allowed = {(e["j"], e["k"], e["nu"]) for e in allow["entries"]}

    mismatches = sorted(key for key in printed if ours[key] != printed[key])
    assert set(mismatches) <= allowed, \
        f"undocumented mismatches against the printed table: {mismatches}"
    matches = 16 - len(mismatches)

    # identity (7) is the arbiter for every documented mismatch
    report = {"matched_entries": matches, "mismatches": []}
    assert dec.identity_holds() and dec.value_constraint_holds()
    for (j, k, nu) in mismatches:
        parts = dec.entry(j, k).polyphase_split(example_ctx)
        parts[nu] = printed[(j, k, nu)]
        tampered = dict(dec.entries)
        tampered[((j,), (k,))] = TrigPoly.polyphase_assemble(parts, example_ctx)
        bad = MaskDecomposition(source=example_mask, ctx=example_ctx, order=1,
                                entries=tampered, achieved_class=-1)
        identity_fails_for_printed = not bad.identity_holds()
        assert identity_fails_for_printed
        report["mismatches"].append({
            "j": j, "k": k, "nu": nu,
            "identity_holds_for_computed": True,
            "identity_holds_for_printed": False,
            "value_constraint_holds_for_printed": bad.value_constraint_holds(),
        })
    written = tmp_path / "discrepancy_report.json"
    written.write_text(json.dumps(report, indent=2))
    assert written.read_text() == (DATA / "discrepancy_report.json").read_text()

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: PASS - {matches}/16 printed entries reproduced "
          f"exactly; {len(mismatches)} documented typo(s) arbitrated by the "
          f"exact identity ({elapsed:.2f}s)")


def test_acceptance_2_norm_certificate(example_ctx, example_mask, capsys):
    started = time.perf_counter()
    T = MatrixMask.from_decomposition(decompose_mask(example_mask, example_ctx))
    norm = operator_norm(T, example_ctx)
    assert norm.is_exact
    assert norm.lo <= Fraction(15, 16)

    code = main(["converge", EXAMPLE_FILE, "--format", "json"])
    machine = json.loads(capsys.readouterr().out)
    assert code == 0
    assert machine["verdict"] == "convergent"
    assert machine["certificate_power"] == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2: PASS - difference-scheme norm exactly {norm.lo} "
          f"<= 15/16; converge verdict 'convergent' with L=1 ({elapsed:.2f}s)")


def _random_dilation(rng: random.Random, dim: int) -> DilationContext:
    span = 3 if dim == 2 else 2
    while True:
        matrix = [[rng.randint(-span, span) for _ in range(dim)]
                  for _ in range(dim)]
        det = determinant(matrix)
        if not 2 <= abs(det) <= 6:
            continue
        try:
            return DilationContext.create(matrix)
        except Exception:
            continue


def test_acceptance_3_digit_fourier_unitary(example_ctx):
    assert digit_fourier_is_unitary(example_ctx)
    rng = random.Random(2024)
    checked = []
    for dim in (2, 3):
        for _ in range(5):
            ctx = _random_dilation(rng, dim)
            assert digit_fourier_is_unitary(ctx), f"failed for {ctx.matrix}"
            checked.append((ctx.matrix, ctx.m))
    print(f"\nACCEPTANCE 3: PASS - digit Fourier matrix exactly unitary for "
          f"the example context and 10 random dilations "
          f"(sizes {[m for _, m in checked]})")


def test_acceptance_4_checker_equivalence(example_ctx):
    rng = random.Random(404)
    configs = [
        ("1-d dyadic", DilationContext.create([[2]])),
        ("example 2-d", example_ctx),
        ("2I", DilationContext.create([[2, 0], [0, 2]])),
    ]
    total = 0
    for name, ctx in configs:
        for i in range(100):
            if i % 10 < 7:
                t = random_mask(rng, ctx.dim, n_terms=5)
                if t.is_zero():
                    continue
            else:
                t = random_class_mask(rng, ctx, order=i % 3)
            direct = sum_rule_order_direct(t, ctx, cap=2)
            # sum_rule_order runs both routes and raises on any disagreement
            combined = sum_rule_order(t, ctx, cap=2)
            assert combined == direct
            total += 1
    print(f"\nACCEPTANCE 4: PASS - direct and polyphase order checkers agree "
          f"on {total} random masks across 3 configurations (orders <= 2, "
          f"exact arithmetic)")


def test_acceptance_5_decomposition_invariants(example_ctx, example_mask):
    rng = random.Random(505)
    outputs = [decompose_mask(example_mask, example_ctx)]
    for order in (1, 2):
        t = random_class_mask(rng, example_ctx, order)
        dec = decompose_mask(t, example_ctx)
        outputs.append(dec)
        outputs.append(refine_decomposition(t, dec, example_ctx, order))
    for dec in outputs:
        assert dec.identity_holds()
        assert dec.value_constraint_holds()

    t1 = random_class_mask(rng, example_ctx, 1)
    nested = iterated_decomposition(t1, example_ctx, 2, 2)
    assert nested.identity_holds()
    assert nested.value_constraint_holds()
    kron = kronecker_power(transpose(fraction_inverse(example_ctx)), 2)
    matrix = nested.symbol_matrix()
    t0 = t1.value_at_zero()
    for r in range(4):
        for c in range(4):
            assert matrix[r][c].value_at_zero() == t0 * kron[r][c]
    print(f"\nACCEPTANCE 5: PASS - identity, origin-value constraint, and the "
          f"depth-2 Kronecker value form hold exactly for "
          f"{len(outputs)} decompositions plus one iterated decomposition")


def test_acceptance_6_class_lift(example_ctx):
    started = time.perf_counter()
    rng = random.Random(606)
    for trial in range(20):
        values = {beta: CyclotomicNumber.from_rational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for beta in multi_indices_up_to(2, 2)}
        values[(0, 0)] = CyclotomicNumber.from_rational(4)
        mask = mask_from_derivative_table(
            example_ctx, DerivativeTable(dim=2, order=2, values=values))
        dec = refine_decomposition(mask, decompose_mask(mask, example_ctx),
                                   example_ctx, 2)
        for j in (1, 2):
            for k in (1, 2):
                certified = sum_rule_order_direct(dec.entry(j, k), example_ctx,
                                                  cap=1)
                assert certified >= 1, f"trial {trial} entry ({j},{k})"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6: PASS - 20 random order-2 masks decompose with all "
          f"entries independently certified order-1 ({elapsed:.1f}s)")


def test_acceptance_7_operator_identities(example_ctx, example_mask):
    rng = random.Random(707)
    t1 = random_class_mask(rng, example_ctx, 1)
    cases = [(example_mask, 50), (t1, 50)]
    for mask, n_seq in cases:
        T = MatrixMask.from_decomposition(decompose_mask(mask, example_ctx))
        for _ in range(n_seq):
            f = random_sequence(rng, 2)
            assert gradient(apply(mask, example_ctx, f)) == \
                apply(T, example_ctx, gradient(f))

    T1 = MatrixMask.from_decomposition(decompose_mask(t1, example_ctx))
    Q = second_difference_scheme(T1, example_ctx)
    for _ in range(100):
        g = random_sequence(rng, 2, width=2, n_points=4)
        assert gradient(apply(T1, example_ctx, g)) == \
            apply(Q, example_ctx, gradient(g))

    dual_inverse = transpose(fraction_inverse(example_ctx))
    for _ in range(3):
        t = random_class_mask(rng, example_ctx, 1)
        assert t.value_at_zero() == Fraction(example_ctx.m)
        T = MatrixMask.from_decomposition(decompose_mask(t, example_ctx))
        for block in coset_coefficient_sums(T, example_ctx):
            for i in range(2):
                for j in range(2):
                    assert block[i][j] == dual_inverse[i][j]
    print("\nACCEPTANCE 7: PASS - gradient intertwining identities exact on "
          "100 + 100 random sequences; difference-scheme coset sums equal the "
          "inverse-transpose dilation exactly")


def test_acceptance_8_oracle_equivalences(example_ctx):
    rng = random.Random(808)
    ctx1 = DilationContext.create([[2]])
    checked = 0
    for i in range(50):
        if i % 2 == 0:
            ctx = example_ctx
            t = random_mask(rng, 2, n_terms=3, freq_range=1)
        else:
            ctx = ctx1
            t = random_mask(rng, 1, n_terms=3, freq_range=2)
        if t.is_zero():
            t = t + TrigPoly.constant(ctx.dim, Fraction(1, 2))
        mask = MatrixMask.from_scalar(t)
        assert operator_norm(mask, ctx) == brute_force_norm(mask, ctx)
        checked += 1

    hat = TrigPoly(1, {(0,): Fraction(1, 2), (1,): 1, (2,): Fraction(1, 2)})
    t2 = random_class_mask(rng, example_ctx, 0)
    T2 = MatrixMask.from_decomposition(decompose_mask(t2, example_ctx))
    for mask, ctx, width in ((hat, ctx1, 1), (T2, example_ctx, 2)):
        for k in (1, 2, 3):
            symbol = power_symbol(mask, ctx, k)
            dilation_k = matrix_power(ctx.matrix, k)
            for comp in range(width):
                probe = Sequence.delta(ctx.dim, width=width, component=comp)
                composed = probe
                for _ in range(k):
                    composed = apply(mask, ctx, composed)
                assert composed == apply(symbol, dilation_k, probe)
    print(f"\nACCEPTANCE 8: PASS - operator norm equals the sign-pattern "
          f"enumeration oracle on {checked} random masks; power symbols match "
          f"k-fold application on all basis impulses for k <= 3")


def test_acceptance_9_one_dimensional_sanity():
    ctx = DilationContext.create([[2]])
    hat_mask = TrigPoly(1, {(0,): Fraction(1, 2), (1,): 1, (2,): Fraction(1, 2)})
    report = check_convergence(hat_mask, ctx)
    assert report.verdict == "convergent"

    refined = refine(hat_mask, ctx, Sequence.delta(1), 10)
    worst = Fraction(0)
    for (x,), (v,) in refined_points(refined):
        target = max(Fraction(0), 1 - abs(x - 1))
        worst = max(worst, abs(v - target))
    assert worst < Fraction(1, 1000)
    print(f"\nACCEPTANCE 9: PASS - dyadic average scheme certified convergent; "
          f"10 refinement rounds of the impulse match the piecewise-linear "
          f"bump with max error {float(worst):.2e} < 1e-3")
