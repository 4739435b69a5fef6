"""Golden MACHINE blocks: each CLI report must match its recorded file byte
for byte.

The files under data/golden_machine/ hold the MACHINE JSON (the text after
"MACHINE " on the report's last line, newline-terminated).  They were
recorded before the decomposition pipeline was consolidated, so they pin that
every verdict, certificate and decomposition survived the refactor unchanged.
The seeded masks on the 3-d companion dilation, on 3-d 2I and on 1-d [[-3]]
(negative determinant) were recorded before the lattice dropped its Fraction
inverses, so they pin coset arithmetic and isotropy reports off the example
dilation.
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import EXAMPLE_DIGITS, EXAMPLE_DILATION, random_class_mask
from maskforge.cli import main
from maskforge.lattice import DilationContext
from maskforge.maskfile import mask_document

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_machine"
EXAMPLE = str(DATA / "example_mask_2d.json")
ORDER2_SEED = 4

CASES = [
    ("example_analyze", "example", ["analyze"]),
    ("example_decompose_order1", "example", ["decompose", "--order", "1"]),
    ("example_decompose_levels1", "example", ["decompose", "--levels", "1"]),
    ("example_converge_lmax3", "example", ["converge", "--lmax", "3"]),
    ("example_smooth_lmax3", "example", ["smooth", "--lmax", "3"]),
    ("order2_decompose_order2", "order2", ["decompose", "--order", "2"]),
    ("order2_smooth_lmax2", "order2", ["smooth", "--lmax", "2"]),
    ("companion3_analyze", "companion3", ["analyze"]),
    ("companion3_decompose_order2", "companion3", ["decompose", "--order", "2"]),
    ("companion3_converge_lmax2", "companion3", ["converge", "--lmax", "2"]),
    ("twice3_smooth_lmax2", "twice3", ["smooth", "--lmax", "2"]),
    ("negative1_smooth_lmax2", "negative1", ["smooth", "--lmax", "2"]),
]

# name: (dilation, sum-rule order) of a fixed-seed table mask on a dilation
# with its canonical digits
SEEDED = {"companion3": (((0, 0, 2), (1, 0, 0), (0, 1, 0)), 2),
          "twice3": (((2, 0, 0), (0, 2, 0), (0, 0, 2)), 1),
          "negative1": (((-3,),), 2)}


def order2_mask():
    """The fixed-seed order-2 table mask on the example dilation."""
    ctx = DilationContext.create(EXAMPLE_DILATION, digits=EXAMPLE_DIGITS)
    return random_class_mask(random.Random(ORDER2_SEED), ctx, 2), ctx


def seeded_mask(name):
    """The fixed-seed table mask named in SEEDED."""
    dilation, order = SEEDED[name]
    ctx = DilationContext.create(dilation)
    return random_class_mask(random.Random(ORDER2_SEED), ctx, order), ctx


@pytest.fixture(scope="module")
def mask_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    documents = {"order2": order2_mask(),
                 **{name: seeded_mask(name) for name in SEEDED}}
    files = {"example": EXAMPLE}
    for name, (mask, ctx) in documents.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(mask_document(mask, ctx)))
        files[name] = str(path)
    return files


def machine_text(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    last = buf.getvalue().splitlines()[-1]
    assert last.startswith("MACHINE ")
    return last[len("MACHINE "):] + "\n"


@pytest.mark.parametrize("name, mask, args", CASES, ids=[c[0] for c in CASES])
def test_machine_block_matches_golden(name, mask, args, mask_files):
    command, *options = args
    got = machine_text([command, mask_files[mask], *options])
    assert got == (GOLDEN / f"{name}.json").read_text()
