import json
from fractions import Fraction
from pathlib import Path

import pytest

from maskforge.cli import main
from maskforge.maskfile import (ParseError, format_rational, load_mask_document,
                                mask_document, parse_rational, parse_scalar,
                                read_sequence_csv, write_sequence_csv)
from maskforge.subdivision import Sequence

DATA = Path(__file__).parent / "data"
EXAMPLE = str(DATA / "example_mask_2d.json")


def test_rational_format_parse():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(7) == Fraction(7)
    with pytest.raises(ParseError):
        parse_rational(0.5)
    with pytest.raises(ParseError):
        parse_rational("abc")


def test_scalar_cyclotomic_parse():
    value = parse_scalar({"order": 4, "coords": ["1", "1/2", "0", "0"]})
    assert value.order == 4
    assert value.coords[1] == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_scalar({"order": 4})


def test_mask_document_round_trip(example_ctx, example_mask):
    doc = mask_document(example_mask, example_ctx)
    mask2, ctx2 = load_mask_document(doc)
    assert mask2 == example_mask
    assert ctx2.digits == example_ctx.digits


def test_mask_document_polyphase_matches_coefficients(example_mask):
    doc = json.loads(Path(EXAMPLE).read_text())
    mask, ctx = load_mask_document(doc)
    assert mask == example_mask


def test_mask_document_validation():
    with pytest.raises(ParseError):
        load_mask_document({"dim": 2, "dilation": [[0, 2], [2, -1]]})
    with pytest.raises(ParseError):
        load_mask_document({"dim": 2, "dilation": [[0, 2]],
                            "coefficients": []})
    # both forms present
    with pytest.raises(ParseError):
        load_mask_document({"dim": 1, "dilation": [[2]],
                            "coefficients": [{"freq": [0], "value": 1}],
                            "polyphase": []})


def test_sequence_csv_round_trip(tmp_path):
    seq = Sequence(2, 2, {(0, 1): (Fraction(1, 3), Fraction(-2)),
                          (-1, 4): (Fraction(5), Fraction(0))})
    path = tmp_path / "seq.csv"
    write_sequence_csv(path, seq)
    back = read_sequence_csv(path, 2)
    assert back == seq


def test_sequence_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n")
    with pytest.raises(ParseError):
        read_sequence_csv(path, 2)
    path.write_text("")
    with pytest.raises(ParseError):
        read_sequence_csv(path, 2)


def test_sequence_csv_repeated_point(tmp_path):
    # a repeated lattice point is an error, not an overwrite
    path = tmp_path / "twice.csv"
    path.write_text("0,0,1\n1,0,3\n0,0,2\n")
    with pytest.raises(ParseError, match=r"\(0, 0\) appears twice"):
        read_sequence_csv(path, 2)


def machine_block(capsys) -> dict:
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("MACHINE "):
            return json.loads(line[len("MACHINE "):])
    raise AssertionError(f"no machine block in output:\n{out}")


def test_cli_analyze(capsys):
    assert main(["analyze", EXAMPLE, "--cap", "2"]) == 0
    machine = machine_block(capsys)
    assert machine["m"] == 4
    assert machine["mask_value_at_zero"] == "4"
    assert machine["polyphase_values_at_zero"] == ["1", "1", "1", "1"]
    assert machine["sum_rule_order"] == 0


def test_cli_analyze_constant_mask(tmp_path, capsys):
    doc = {"dim": 1, "dilation": [[2]],
           "coefficients": [{"freq": [0], "value": "1"}]}
    path = tmp_path / "const.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 0
    machine = machine_block(capsys)
    assert machine["sum_rule_order"] == -1
    assert machine["derivative_table"] is None


def test_cli_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["analyze", str(path)]) == 2
    path.write_text(json.dumps({"dim": 1, "dilation": [[2]],
                                "coefficients": []}))
    assert main(["analyze", str(path)]) == 2


def test_cli_bad_digits_exit_3(tmp_path, capsys):
    doc = json.loads(Path(EXAMPLE).read_text())
    doc["digits"] = [[0, 0], [2, 2], [0, 1], [1, 1]]
    path = tmp_path / "bad_digits.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 3


def test_cli_decompose_and_verify(tmp_path, capsys):
    out = tmp_path / "dec.json"
    assert main(["decompose", EXAMPLE, "--order", "1",
                 "--out", str(out)]) == 0
    machine = machine_block(capsys)
    assert machine["identity_exact"] is True
    assert machine["entry_count"] == 4

    assert main(["decompose", EXAMPLE, "--verify-only", str(out)]) == 0
    machine = machine_block(capsys)
    assert machine["identity_exact"] is True
    assert machine["value_constraint"] is True

    # tamper with one coefficient: verification must fail with exit 4
    doc = json.loads(out.read_text())
    doc["entries"][0]["mask"]["coefficients"][0]["value"] = "9/7"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert main(["decompose", EXAMPLE, "--verify-only", str(bad)]) == 4


def test_cli_decompose_class_gate(capsys):
    assert main(["decompose", EXAMPLE, "--order", "2"]) == 4
    assert main(["decompose", EXAMPLE, "--levels", "2"]) == 4


def test_cli_converge(capsys):
    assert main(["converge", EXAMPLE, "--lmax", "2", "--format", "json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["verdict"] == "convergent"
    assert machine["certificate_power"] == 1
    assert machine["norms"][0]["norm"] == "15/16"


def test_cli_smooth(capsys):
    assert main(["smooth", EXAMPLE, "--lmax", "1"]) == 0
    machine = machine_block(capsys)
    assert machine["verdict"] == "inconclusive"
    assert machine["isotropy"]["verdict"] == "no"


def test_cli_refine_round_trip(tmp_path, capsys):
    doc = {"dim": 1, "dilation": [[2]],
           "coefficients": [{"freq": [0], "value": "1/2"},
                            {"freq": [1], "value": "1"},
                            {"freq": [2], "value": "1/2"}]}
    mask_path = tmp_path / "hat.json"
    mask_path.write_text(json.dumps(doc))
    out = tmp_path / "refined.csv"
    assert main(["refine", str(mask_path), "--rounds", "8",
                 "--out", str(out)]) == 0
    worst = Fraction(0)
    for line in out.read_text().splitlines():
        x_str, v_str = line.split(",")
        x, v = Fraction(x_str), Fraction(v_str)
        target = max(Fraction(0), 1 - abs(x - 1))
        worst = max(worst, abs(v - target))
    assert worst < Fraction(1, 100)


def test_cli_refine_rounds_zero(tmp_path, capsys):
    doc = {"dim": 1, "dilation": [[2]],
           "coefficients": [{"freq": [0], "value": "1/2"},
                            {"freq": [1], "value": "1"},
                            {"freq": [2], "value": "1/2"}]}
    mask_path = tmp_path / "hat.json"
    mask_path.write_text(json.dumps(doc))
    data = tmp_path / "data.csv"
    data.write_text("3,2/3\n-1,1/5\n")
    assert main(["refine", str(mask_path), "--data", str(data),
                 "--rounds", "0"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines == ["-1,1/5", "3,2/3"]


def test_cli_refine_negative_rounds(capsys):
    assert main(["refine", EXAMPLE, "--rounds", "-1"]) == 2
    assert "--rounds" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["analyze", EXAMPLE, "--cap", "-1"], "--cap"),
    (["decompose", EXAMPLE, "--order", "0"], "--order"),
    (["decompose", EXAMPLE, "--levels", "-1"], "--levels"),
    (["decompose", EXAMPLE, "--levels", "0"], "--levels"),
    (["converge", EXAMPLE, "--lmax", "0"], "--lmax"),
    (["converge", EXAMPLE, "--lmax", "-2"], "--lmax"),
    (["smooth", EXAMPLE, "--lmax", "0"], "--lmax"),
    (["smooth", EXAMPLE, "--lmax", "-2"], "--lmax"),
])
def test_cli_count_out_of_range_exit_2(argv, flag, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


def test_cli_analyze_cap_zero(capsys):
    assert main(["analyze", EXAMPLE, "--cap", "0", "--format", "json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert (machine["order_cap"], machine["sum_rule_order"]) == (0, 0)


def test_cli_refine_shape_error(tmp_path, capsys):
    doc = {"dim": 1, "dilation": [[2]],
           "coefficients": [{"freq": [0], "value": "1"}]}
    mask_path = tmp_path / "m.json"
    mask_path.write_text(json.dumps(doc))
    data = tmp_path / "wide.csv"
    data.write_text("0,1,2\n")  # width-2 data for a scalar scheme
    assert main(["refine", str(mask_path), "--data", str(data),
                 "--rounds", "1"]) == 5


def test_cli_digits_override(tmp_path, capsys):
    doc = json.loads(Path(EXAMPLE).read_text())
    # strip digits and polyphase; use plain coefficients with canonical digits
    from maskforge.maskfile import load_mask_document, mask_document
    mask, ctx = load_mask_document(doc)
    plain = mask_document(mask, ctx)
    del plain["digits"]
    del plain["dual_digits"]
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(plain))
    digits_path = tmp_path / "digits.json"
    digits_path.write_text(json.dumps(
        {"digits": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    assert main(["analyze", str(path), "--digits", str(digits_path)]) == 0
    machine = machine_block(capsys)
    assert machine["digits"] == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_cli_decompose_levels_round_trip(tmp_path, capsys):
    # a mask with sum-rule order 1 supports a depth-2 iterated decomposition
    import random
    from conftest import random_class_mask
    from maskforge.lattice import DilationContext
    from maskforge.maskfile import mask_document

    ctx = DilationContext.create([[0, 2], [2, -1]],
                                 digits=[(0, 0), (1, 0), (0, 1), (1, 1)])
    mask = random_class_mask(random.Random(99), ctx, 1)
    mask_path = tmp_path / "mask.json"
    mask_path.write_text(json.dumps(mask_document(mask, ctx)))
    out = tmp_path / "dec.json"
    assert main(["decompose", str(mask_path), "--levels", "2",
                 "--out", str(out)]) == 0
    machine = machine_block(capsys)
    assert machine["entry_count"] == 16
    assert main(["decompose", str(mask_path), "--verify-only", str(out)]) == 0
    machine = machine_block(capsys)
    assert machine["identity_exact"] is True

    # order-2 lift through the CLI needs an order-2 mask
    assert main(["decompose", str(mask_path), "--order", "2"]) == 4
    mask2 = random_class_mask(random.Random(100), ctx, 2)
    mask2_path = tmp_path / "mask2.json"
    mask2_path.write_text(json.dumps(mask_document(mask2, ctx)))
    out2 = tmp_path / "dec2.json"
    assert main(["decompose", str(mask2_path), "--order", "2",
                 "--out", str(out2)]) == 0
    machine = machine_block(capsys)
    assert machine["achieved_class"] == 1
    assert main(["decompose", str(mask2_path), "--verify-only",
                 str(out2)]) == 0


def test_cli_smooth_certificate(tmp_path, capsys):
    doc = {"dim": 1, "dilation": [[2]],
           "coefficients": [{"freq": [0], "value": "1/4"},
                            {"freq": [1], "value": "3/4"},
                            {"freq": [2], "value": "3/4"},
                            {"freq": [3], "value": "1/4"}]}
    path = tmp_path / "bspline2.json"
    path.write_text(json.dumps(doc))
    assert main(["smooth", str(path), "--format", "json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["verdict"] == "C1"
    assert machine["certificate_power"] == 1
    assert machine["products"][0]["product"] == "1/2"


def test_precision_env(monkeypatch):
    from maskforge.cli import _precision_bits
    monkeypatch.delenv("MASKFORGE_PRECISION_BITS", raising=False)
    assert _precision_bits() == 128
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", "256")
    assert _precision_bits() == 256
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", "8")
    assert _precision_bits() == 32  # floor, intervals stay certified
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", "junk")
    with pytest.raises(ParseError, match="MASKFORGE_PRECISION_BITS"):
        _precision_bits()


def test_cli_refined_example_mask(tmp_path, capsys):
    # exactness end to end: no floats anywhere in the refined output
    out = tmp_path / "r.csv"
    assert main(["refine", EXAMPLE, "--rounds", "3", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        for cell in line.split(","):
            Fraction(cell)  # parses exactly; raises otherwise


def test_invalid_precision_env_exits_parse_error(monkeypatch, capsys):
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", "abc")
    assert main(["converge", EXAMPLE]) == 2
    assert "MASKFORGE_PRECISION_BITS" in capsys.readouterr().err


@pytest.mark.parametrize("command, target, attr, replacement", [
    ("decompose", "maskforge.decompose.MaskDecomposition", "identity_holds",
     lambda self: False),
    ("analyze", "maskforge.sumrules", "_direct_order_holds",
     lambda *args: False),
])
def test_bug_guard_exit_code(monkeypatch, capsys, command, target, attr,
                             replacement):
    # a failed identity check and a checker disagreement are bugs, not input
    # errors: both get the internal-error exit code
    from maskforge.cli import EXIT_INTERNAL
    monkeypatch.setattr(target + "." + attr, replacement)
    assert main([command, EXAMPLE]) == EXIT_INTERNAL == 6
    assert "internal error (bug guard)" in capsys.readouterr().err
