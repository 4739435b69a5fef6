"""Golden MACHINE blocks: each CLI report must match its recorded file byte
for byte.

The files under data/golden_machine/ hold the MACHINE JSON (the text after
"MACHINE " on the report's last line, newline-terminated).  They were
recorded before the decomposition pipeline was consolidated, so they pin that
every verdict, certificate and decomposition survived the refactor unchanged.
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
]


def order2_mask():
    """The fixed-seed order-2 table mask on the example dilation."""
    ctx = DilationContext.create(EXAMPLE_DILATION, digits=EXAMPLE_DIGITS)
    return random_class_mask(random.Random(ORDER2_SEED), ctx, 2), ctx


@pytest.fixture(scope="module")
def mask_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "order2.json"
    path.write_text(json.dumps(mask_document(*order2_mask())))
    return {"example": EXAMPLE, "order2": str(path)}


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
