"""Each fact on the path from a mask to its verdicts is derived once."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_class_mask
from maskforge import decompose, subdivision, sumrules
from maskforge.cli import main
from maskforge.decompose import MaskDecomposition, decompose_to_class
from maskforge.errors import InternalIdentityViolation
from maskforge.lattice import DilationContext
from maskforge.subdivision import (MatrixMask, _certificate_search, _powers,
                                   check_c1, check_convergence)
from maskforge.trigpoly import TrigPoly
from test_golden_cyclotomic import cyclotomic_mask
from test_golden_machine import order2_mask, seeded_mask


@pytest.fixture
def products(monkeypatch):
    """Left operands of every power product, in call order: the one product
    kernel of the certificate search."""
    calls = []
    product = subdivision._dilated_product

    def counted(left, *args):
        calls.append(left)
        return product(left, *args)

    monkeypatch.setattr(subdivision, "_dilated_product", counted)
    return calls


def test_check_c1_scans_its_mask_once(monkeypatch, products):
    t, ctx = order2_mask()
    scans = []                       # (scanned the input mask, inside Q)
    inside_q = [False]
    originals = (sumrules.sum_rule_order, sumrules.sum_rule_order_direct)

    def counted(fn):
        def wrapper(poly, *args, **kwargs):
            scans.append((poly is t, inside_q[0]))
            return fn(poly, *args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "maskforge" or name.startswith("maskforge."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, attr, counted(value))

    second = subdivision.second_difference_scheme

    def flagged(*args):
        inside_q[0] = True
        try:
            return second(*args)
        finally:
            inside_q[0] = False

    monkeypatch.setattr(subdivision, "second_difference_scheme", flagged)
    report = check_c1(t, ctx, power_cap=2)
    assert report.second_difference_mask is not None
    assert sum(on_mask for on_mask, _ in scans) == 1
    assert not any(in_q for _, in_q in scans)
    # one product for the convergence trajectory, one for the C1 products;
    # none after the last power each consumer looks at
    assert len(products) == 2


def test_power_loop_is_lazy(products, example_ctx, example_mask):
    T = MatrixMask.from_decomposition(decompose_to_class(example_mask, example_ctx, 0))
    powers = _powers(T, example_ctx.matrix, 3)
    L, _, step = next(powers)
    assert (L, step) == (1, example_ctx.matrix)
    assert not products
    assert [L for L, _, _ in powers] == [2, 3]
    assert len(products) == 2            # none past the cap
    # no product past the first certified power: the example's scheme
    # certifies at L=1, the constant scheme below at L=2
    products.clear()
    assert _certificate_search(T, example_ctx, 3, 128)[1] == 1
    assert not products
    scheme = MatrixMask([[TrigPoly.constant(1, Fraction(n, 16)) for n in row]
                         for row in ((8, 12), (0, 4))])
    bounds, certificate, stopped = _certificate_search(
        scheme, DilationContext.create([[2]]), 3, 128)
    assert bounds == [(1, Fraction(5, 4)), (2, Fraction(13, 16))]
    assert certificate == 2
    assert stopped is None
    assert len(products) == 1


def pair_count(scheme: MatrixMask) -> int:
    """The pair products of the scheme's square, a rational scheme's entry
    counted by its terms."""
    n = scheme.rows
    return sum(len(scheme.entry(i, k).vectors) * len(scheme.entry(k, j).vectors)
               for i in range(n) for j in range(n) for k in range(n))


def test_power_budget_stops_each_search(monkeypatch, products):
    # on 3-d 2I the difference scheme's square forms 1,632 pair products and
    # the second-difference scheme's 3,044: a budget of 1,631 stops the
    # convergence search before L=2, and one of 1,632 lets it form its square
    # but stops the C1 products before theirs
    t, ctx = seeded_mask("twice3")
    full = check_c1(t, ctx, power_cap=2)
    counts = (pair_count(full.convergence.difference_mask),
              pair_count(full.second_difference_mask))
    assert counts == (1632, 3044)
    products.clear()

    monkeypatch.setattr(subdivision, "PRODUCT_BUDGET", 1631)
    report = check_convergence(t, ctx, power_cap=8)
    assert report.verdict == "inconclusive"
    assert report.norms == full.convergence.norms[:1]
    assert report.certificate_power is None
    assert report.reasons == ["stopped before power L=2: it would form 1632 "
                              "pair products, over the budget of 1631"]
    assert not products

    monkeypatch.setattr(subdivision, "PRODUCT_BUDGET", 1632)
    report = check_c1(t, ctx, power_cap=2)
    assert report.verdict == "inconclusive"
    assert report.convergence.to_json() == full.convergence.to_json()
    assert report.products == full.products[:1]
    assert report.reasons == ["no convergence certificate",
                              "stopped before power L=2: it would form 3044 "
                              "pair products, over the budget of 1632"]
    assert len(products) == 1            # the convergence search's square


def test_order1_entry_guard_raises(monkeypatch, example_ctx):
    t = random_class_mask(random.Random(5), example_ctx, 1)
    monkeypatch.setattr(MaskDecomposition, "entries_reach", lambda self, n: False)
    with pytest.raises(InternalIdentityViolation):
        decompose_to_class(t, example_ctx, 1)


@pytest.mark.parametrize("name, order", [("order2", 2), ("twice2_cyc3_order3", 3)])
def test_each_decomposition_is_checked_once(monkeypatch, name, order):
    # the lift only builds; the decomposition it returns is the one checked
    t, ctx = order2_mask() if name == "order2" else cyclotomic_mask(name)
    calls = []                       # (check, called inside the lift)
    inside_lift = [False]

    def counted(check, fn):
        def wrapper(*args, **kwargs):
            calls.append((check, inside_lift[0]))
            return fn(*args, **kwargs)
        return wrapper

    for check in ("identity_holds", "value_constraint_holds"):
        monkeypatch.setattr(MaskDecomposition, check,
                            counted(check, getattr(MaskDecomposition, check)))
    monkeypatch.setattr(decompose, "_vanishing_sum",
                        counted("_vanishing_sum", decompose._vanishing_sum))
    lift = decompose._lift

    def flagged(*args):
        inside_lift[0] = True
        try:
            return lift(*args)
        finally:
            inside_lift[0] = False

    monkeypatch.setattr(decompose, "_lift", flagged)
    assert decompose_to_class(t, ctx, order).achieved_class == order - 1
    assert [check for check, _ in calls if check != "_vanishing_sum"] == \
        ["identity_holds", "value_constraint_holds"]
    assert not any(in_lift for _, in_lift in calls)


def test_analyze_checks_each_order_once(monkeypatch, capsys):
    # the derivative table in the report comes from the order scan itself
    totals = []
    holds = sumrules._polyphase_order_holds

    def counted(taus, table, ctx, total):
        totals.append(total)
        return holds(taus, table, ctx, total)

    monkeypatch.setattr(sumrules, "_polyphase_order_holds", counted)
    example = str(Path(__file__).parent / "data" / "example_mask_2d.json")
    assert main(["analyze", example, "--cap", "3"]) == 0
    assert '"derivative_table":{"order":0,' in capsys.readouterr().out
    assert sorted(totals) == sorted(set(totals))
