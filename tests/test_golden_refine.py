"""Golden refine output: the refined CSV must match its recorded file byte
for byte.

The files under data/golden_refine/ were recorded with the generic
cyclotomic apply path, before rational data took the integer kernel, so they
pin that the kernel changes no grid point and no value.
"""

from pathlib import Path

import pytest

from maskforge.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_refine"
EXAMPLE = str(DATA / "example_mask_2d.json")

CASES = [
    ("example_impulse_k4", []),
    ("example_data_k4", ["--data", str(GOLDEN / "example_data.csv")]),
]


@pytest.mark.parametrize("name, options", CASES, ids=[c[0] for c in CASES])
def test_refined_csv_matches_golden(name, options, tmp_path, capsys):
    out = tmp_path / "refined.csv"
    assert main(["refine", EXAMPLE, "--rounds", "4", *options,
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
