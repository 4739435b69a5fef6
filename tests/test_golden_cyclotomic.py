"""Golden MACHINE blocks for masks with cyclotomic coefficients.

The golden masks of test_golden_machine are rational, so none of their
files holds a "coords" block and the field order of non-rational outputs
would go unchecked.  The two masks here are fixed-seed derivative-table
masks on the example dilation: one of order 2 whose table carries primitive
cube roots of unity, one of order 1 carrying cube and fifth roots.  Their
files were recorded before evaluation reduced once per value and before
rational products ran on integer numerators, and must still match byte for
byte.  The order-1 mask has no "decompose --order 2" case: the CLI rejects
it for that order.  The two "decompose --levels 2" files pin the iterated
path, which prints the lifted entries' decompositions at orders 3 and 15;
they were recorded before TrigPoly held integer numerators.

Two more Q(zeta_3) masks sit on 2I with its canonical digits (m = 4), in two
and three dimensions; their "decompose" files were recorded before the lift
read its weights off the direct checker's integer moments.  At m = 2 every
digit interpolant already holds order 2, which hides a wrong order label on
a weight; at m = 4 it does not.  The 2-d mask at order 3 makes the lift run
two passes, and the 3-d one runs the rule that skips a beta with a component
between the two rows exchanged, which no 2-d lift reaches.

The order-2 Q(zeta_3) mask is also read from a file that writes the same
values with other coords (non_canonical_document); its analyze, decompose
and smooth blocks must be the golden bytes.

The smooth block of the order-1 mask is also pinned at the two extremes of
MASKFORGE_PRECISION_BITS, 32 and 8,192 bits, where its norms print the raw
dyadic endpoints of 48- and 8,208-bit enclosures.  Both files were recorded
while the enclosures still ran on mpmath's libmp interval functions.  The
order-2 mask's smooth block is pinned at 32 bits too: there the enclosures
are widest, so a pruning margin too small to cover them shows first, and
the norms' bound-ordered search skips about 80 % of them.  That file was
recorded while every row of each norm was enclosed.
"""

import json
import random
from fractions import Fraction

import pytest

from conftest import (EXAMPLE_DIGITS, EXAMPLE_DILATION,
                      random_cyclotomic_class_mask)
from maskforge import cyclotomic
from maskforge.cyclotomic import magnitude_interval
from maskforge.lattice import DilationContext
from maskforge.maskfile import mask_document
from test_golden_machine import GOLDEN, machine_text

# name: (dilation, digits, seed, sum-rule order, orders of the roots of
# unity in the table); digits None takes the canonical ones
MASKS = {"cyc3_order2": (EXAMPLE_DILATION, EXAMPLE_DIGITS, 1, 2, (3,)),
         "cyc35_order1": (EXAMPLE_DILATION, EXAMPLE_DIGITS, 1, 1, (3, 5)),
         "twice2_cyc3_order3": (((2, 0), (0, 2)), None, 1, 3, (3,)),
         "twice3_cyc3_order2": (((2, 0, 0), (0, 2, 0), (0, 0, 2)), None, 1, 2,
                                (3,))}

CASES = [
    ("cyc3_order2_analyze", "cyc3_order2", ["analyze"]),
    ("cyc3_order2_decompose_order1", "cyc3_order2", ["decompose", "--order", "1"]),
    ("cyc3_order2_decompose_order2", "cyc3_order2", ["decompose", "--order", "2"]),
    ("cyc3_order2_decompose_levels2", "cyc3_order2", ["decompose", "--levels", "2"]),
    ("cyc3_order2_smooth_lmax2", "cyc3_order2", ["smooth", "--lmax", "2"]),
    ("cyc35_order1_analyze", "cyc35_order1", ["analyze"]),
    ("cyc35_order1_decompose_order1", "cyc35_order1", ["decompose", "--order", "1"]),
    ("cyc35_order1_decompose_levels2", "cyc35_order1",
     ["decompose", "--levels", "2"]),
    ("cyc35_order1_smooth_lmax2", "cyc35_order1", ["smooth", "--lmax", "2"]),
    ("twice2_cyc3_order3_decompose_order3", "twice2_cyc3_order3",
     ["decompose", "--order", "3"]),
    ("twice3_cyc3_order2_decompose_order2", "twice3_cyc3_order2",
     ["decompose", "--order", "2"]),
]


def cyclotomic_mask(name):
    dilation, digits, seed, order, roots = MASKS[name]
    ctx = DilationContext.create(dilation, digits=digits)
    return random_cyclotomic_class_mask(random.Random(seed), ctx, order,
                                        roots), ctx


@pytest.fixture(scope="module")
def mask_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden_cyclotomic")
    files = {}
    for name in MASKS:
        path = folder / f"{name}.json"
        path.write_text(json.dumps(mask_document(*cyclotomic_mask(name))))
        files[name] = str(path)
    return files


def test_masks_carry_the_roots():
    assert {c.order for c in cyclotomic_mask("cyc3_order2")[0].terms.values()} \
        == {3}
    assert {c.order for c in cyclotomic_mask("cyc35_order1")[0].terms.values()} \
        == {3, 5, 15}


@pytest.mark.parametrize("name, mask, args", CASES, ids=[c[0] for c in CASES])
def test_machine_block_matches_golden(name, mask, args, mask_files):
    command, *options = args
    got = machine_text([command, mask_files[mask], *options])
    assert '"coords"' in got or command == "smooth"
    assert got == (GOLDEN / f"{name}.json").read_text()


def non_canonical_document(name):
    """The mask file of a Q(zeta_3) mask with the same values written in
    other coords: each order-3 value plus c * (1 + zeta_3 + zeta_3^2), c a
    different rational per value, and one more frequency whose value
    1 + zeta_3 + zeta_3^2 vanishes."""
    doc = mask_document(*cyclotomic_mask(name))
    terms = doc["coefficients"]
    for k, item in enumerate(terms):
        value = item["value"]
        if isinstance(value, dict) and value["order"] == 3:
            value["coords"] = [str(Fraction(x) + Fraction(k + 1, 3))
                               for x in value["coords"]]
    far = max(item["freq"] for item in terms)
    terms.append({"freq": [far[0] + 1, *far[1:]],
                  "value": {"order": 3, "coords": ["1", "1", "1"]}})
    return doc


NON_CANONICAL = [case for case in CASES if case[0] in (
    "cyc3_order2_analyze", "cyc3_order2_decompose_order2", "cyc3_order2_smooth_lmax2")]


@pytest.mark.parametrize("name, mask, args", NON_CANONICAL,
                         ids=[c[0] for c in NON_CANONICAL])
def test_non_canonical_coords_give_the_golden_bytes(name, mask, args, tmp_path):
    path = tmp_path / f"{mask}_non_canonical.json"
    path.write_text(json.dumps(non_canonical_document(mask)))
    command, *options = args
    got = machine_text([command, str(path), *options])
    assert got == (GOLDEN / f"{name}.json").read_text()


PRECISIONS = [("cyc35_order1_smooth_lmax2_bits32", "cyc35_order1", 32),
              ("cyc35_order1_smooth_lmax2_bits8192", "cyc35_order1", 8192),
              ("cyc3_order2_smooth_lmax2_bits32", "cyc3_order2", 32)]


@pytest.mark.parametrize("name, mask, bits", PRECISIONS,
                         ids=[c[0] for c in PRECISIONS])
def test_precision_extremes_give_the_golden_bytes(name, mask, bits, mask_files,
                                                  monkeypatch):
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", str(bits))
    got = machine_text(["smooth", mask_files[mask], "--lmax", "2"])
    assert got == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name, bits", [("cyc3_order2_smooth_lmax2", 128),
                                        ("cyc3_order2_smooth_lmax2_bits32", 32)])
def test_smooth_encloses_only_the_rows_that_can_hold_the_maximum(
        name, bits, mask_files, monkeypatch):
    # every row enclosed took 2,532 enclosures; the rows a larger lower end
    # already bounds take none
    calls = []

    def counting(*args):
        calls.append(args[0])
        return magnitude_interval(*args)
    monkeypatch.setattr(cyclotomic, "magnitude_interval", counting)
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", str(bits))
    got = machine_text(["smooth", mask_files["cyc3_order2"], "--lmax", "2"])
    assert got == (GOLDEN / f"{name}.json").read_text()
    assert len(calls) == 520
