import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import maskforge
from maskforge.cli import main
from maskforge.cyclotomic import CyclotomicNumber, _divide_monic
from maskforge.decompose import dilated_difference
from maskforge.errors import BudgetExceeded
from maskforge.maskfile import (BLOCK_ROWS, ParseError, format_ratio,
                                format_rational, load_mask_document,
                                load_mask_file, mask_document, parse_rational,
                                parse_scalar, read_sequence_csv, refined_rows,
                                write_sequence_csv)
from maskforge.subdivision import Sequence, refine
from maskforge.trigpoly import TrigPoly
from test_golden_cyclotomic import cyclotomic_mask
from test_golden_machine import order2_mask

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
    # only "p" or "p/q": no decimal or exponent string is expanded
    for text in ("0.5", "1e3", "1e5000"):
        with pytest.raises(ParseError):
            parse_rational(text)


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
    # lattice cells are ASCII decimal integers: int() would read 1_0 as 10
    # and an Arabic-Indic three as 3
    for cell in ("1_0", "\u0663"):
        path.write_text(f"{cell},0,1\n")
        with pytest.raises(ParseError, match="bad lattice point"):
            read_sequence_csv(path, 2)
        path.write_text(f"0,0,{cell}\n")
        with pytest.raises(ParseError, match="bad rational"):
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


def _mask_with(coefficients):
    return {"dim": 1, "dilation": [[2]], "coefficients": coefficients}


def _mask_2d(**fields):
    return {"dim": 2, "dilation": [[2, 0], [0, 2]],
            "coefficients": [{"freq": [0, 0], "value": "4"}], **fields}


def _entries(*pairs):
    one = {"coefficients": [{"freq": [0, 0], "value": "1"}]}
    return {"order": 1, "entries": [{"j": [j], "k": [k], "mask": one}
                                    for j, k in pairs]}


@pytest.mark.parametrize("command, doc", [
    ("verify-only", {"order": 1}),
    ("verify-only", [1, 2]),
    ("verify-only", {"order": "x", "entries": []}),
    ("verify-only", {"order": 1, "entries": [
        {"j": [1], "k": [1], "mask": {"coefficients": [{"value": "1"}]}}]}),
    ("analyze", _mask_with([{"value": "1"}])),
    ("analyze", _mask_with([{"freq": [0]}])),
    ("analyze", _mask_with([{"freq": ["a"], "value": "1"}])),
    ("analyze", _mask_with("x")),
    ("analyze", _mask_with([{"freq": [0], "value": {
        "order": 3, "coords": ["1", "0", "0", "1"]}}])),
    ("analyze", _mask_with([{"freq": [0], "value": {
        "order": 0, "coords": ["1"]}}])),
    # integer fields take JSON integers only, and coords must be a list
    ("analyze", _mask_with([{"freq": [0.7], "value": "1"}])),
    ("analyze", _mask_with([{"freq": [True], "value": "1"}])),
    ("analyze", _mask_with([{"freq": ["1"], "value": "1"}])),
    ("analyze", _mask_with([{"freq": [0], "value": {
        "order": 2.5, "coords": ["1", "0"]}}])),
    ("analyze", _mask_with([{"freq": [0], "value": {
        "order": 2, "coords": "12"}}])),
    ("analyze", _mask_2d(dilation=[[2.9, 0], [0, 2]])),
    ("analyze", _mask_2d(dim=2.5)),
    ("analyze", _mask_2d(digits=[[0, 0], [1.2, 0], [0, 1], [1, 1]])),
    ("analyze", _mask_2d(digits=5)),
    # a repeated frequency or entry, a missing axis and dim 0 are rejected
    ("analyze", _mask_with([{"freq": [0], "value": "1/2"},
                            {"freq": [0], "value": "5"}])),
    ("verify-only", _entries((1, 1), (1, 1), (1, 2), (2, 1), (2, 2))),
    ("verify-only", _entries((1, 1), (1, 2), (3, 1), (2, 2))),
    ("analyze", {"dim": 0, "dilation": [], "coefficients": []}),
    # exponent strings are not rationals (and would not print)
    ("analyze", _mask_with([{"freq": [0], "value": "1e5000"}])),
    # a top-level polyphase that is not a list
    *(("analyze", {"dim": 1, "dilation": [[2]], "digits": [[0], [1]],
                   "polyphase": value}) for value in (0, None, -1, 1.5)),
])
def test_cli_malformed_input_exit_2(tmp_path, capsys, command, doc):
    # malformed decomposition or mask files are parse errors, not tracebacks
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    if command == "verify-only":
        argv = ["decompose", EXAMPLE, "--verify-only", str(path)]
    else:
        argv = ["analyze", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["decompose", EXAMPLE],
                                  ["refine", EXAMPLE, "--rounds", "1"]])
def test_cli_unwritable_out_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")


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


def test_verify_only_rejects_an_order_out_of_range(tmp_path, capsys):
    # a decomposition of order n has d^(2n) entries; an order below 1, an
    # empty entry list and a count too long to print are parse errors, and
    # the message never prints d^(2n)
    one = {"coefficients": [{"freq": [0, 0], "value": "1"}]}
    docs = [{"order": 20000, "entries": []},
            {"order": 8000, "entries": [{"j": [1] * 8000, "k": [1] * 8000,
                                         "mask": one}]},
            {"order": 7000, "entries": [{"j": [1] * 7000, "k": [1] * 7000,
                                         "mask": one}]},
            {"order": -1, "entries": []}]
    for i, doc in enumerate(docs):
        path = tmp_path / f"dec_{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", EXAMPLE, "--verify-only", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200


def test_verify_only_zero_entry_under_a_huge_class_returns_at_once(tmp_path,
                                                                   capsys):
    # the zero polynomial satisfies every sum rule, so its class check
    # returns at once instead of scanning every order up to the claimed
    # class; a nonzero entry fails below its number of terms
    out = tmp_path / "dec.json"
    assert main(["decompose", EXAMPLE, "--order", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc["entries"][0]["mask"]["coefficients"] = []
    blocks = {}
    for achieved in (60, 10 ** 6):
        doc["achieved_class"] = achieved
        path = tmp_path / f"class_{achieved}.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["decompose", EXAMPLE, "--verify-only", str(path)]) == 4
        assert time.perf_counter() - start < 1
        blocks[achieved] = machine_block(capsys)
    assert blocks[10 ** 6] == {**blocks[60], "achieved_class": 10 ** 6}


def cyclotomic_value(order):
    return {"order": order, "coords": ["0", "1"]}


FIELD_ORDER_FILES = {
    # one value whose field alone would take minutes to reduce
    "order_55440": {"dim": 1, "dilation": [[2]], "coefficients": [
        {"freq": [0], "value": {"order": 55440, "coords": ["1"]}},
        {"freq": [1], "value": "1"}]},
    # orders 64 and 81 are each small, but one list puts every term in
    # lcm(64, 81) = 5,184 entries
    "list_64_81": {"dim": 1, "dilation": [[2]], "coefficients": [
        {"freq": [0], "value": cyclotomic_value(64)},
        {"freq": [1], "value": cyclotomic_value(81)}]},
    # the same lcm across the polyphase parts, before they are assembled
    "polyphase_64_81": {"dim": 1, "dilation": [[2]], "digits": [[0], [1]],
                        "polyphase": [
        {"digit": nu, "coefficients": [{"freq": [0], "value": cyclotomic_value(order)}]}
        for nu, order in ((0, 64), (1, 81))]},
}


@pytest.mark.parametrize("name", sorted(FIELD_ORDER_FILES))
def test_field_order_over_the_limit_exits_7_at_once(name, tmp_path, capsys,
                                                    monkeypatch):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(FIELD_ORDER_FILES[name]))
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 7
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error: cyclotomic field order")
    if name != "polyphase_64_81":
        # refused before any value of the list is built
        def refuse(self, *args, **kwargs):
            raise AssertionError("a CyclotomicNumber was built")
        monkeypatch.setattr(CyclotomicNumber, "__init__", refuse)
        with pytest.raises(BudgetExceeded):
            load_mask_document(FIELD_ORDER_FILES[name])


def far_frequency_document(freq: int) -> dict:
    """The example mask with one coefficient of polyphase 1 moved to
    (freq, 0): the polyphase sums, so the order-0 sum rules, are kept, and
    each division of the telescoping runs along lines about |freq| long."""
    doc = json.loads(Path(EXAMPLE).read_text())
    doc["polyphase"][1]["coefficients"][2]["freq"] = [freq, 0]
    return doc


@pytest.mark.parametrize("argv", [["decompose", "--order", "1"],
                                  ["converge", "--lmax", "1"],
                                  ["smooth", "--lmax", "1"]])
def test_far_frequency_division_exits_7_at_once(argv, tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(far_frequency_document(-2 ** 70)))
    start = time.perf_counter()
    assert main([argv[0], str(path), *argv[1:]]) == 7
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: the division by (1 - z_1) would form")
    assert f"over the budget of {2 ** 24}" in err


def test_far_frequency_refine_prints_its_rows(tmp_path, capsys):
    # refine does not divide: a round's memory follows the support, so the
    # 2^70 offset only lengthens the box codes
    path = tmp_path / "far.json"
    path.write_text(json.dumps(far_frequency_document(-2 ** 70)))
    start = time.perf_counter()
    assert main(["refine", str(path), "--rounds", "1"]) == 0
    assert time.perf_counter() - start < 1
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 23
    # the moved coefficient's row, at the grid point M^-1 (1, -2^71)
    assert f"{1 - 2 ** 72}/4,1/2,1/16" in rows


def test_wide_span_refine_follows_the_support(tmp_path, capsys):
    # two data points 10^12 apart: each spreads over the mask's 23 terms
    # and no row is shared, whatever the span between them
    data = tmp_path / "wide.csv"
    data.write_text(f"0,0,1\n{10 ** 12},0,1\n")
    start = time.perf_counter()
    assert main(["refine", EXAMPLE, "--rounds", "1", "--data", str(data)]) == 0
    assert time.perf_counter() - start < 1
    assert len(capsys.readouterr().out.splitlines()) == 46


def test_field_order_at_the_limit_is_read():
    doc = {"dim": 1, "dilation": [[2]], "coefficients": [
        {"freq": [0], "value": cyclotomic_value(8)},
        {"freq": [1], "value": cyclotomic_value(105)}]}
    mask, _ = load_mask_document(doc)
    assert mask.field == 840


def test_verify_only_refuses_entry_fields_over_the_limit(tmp_path, capsys):
    # each entry is within the limit; together they would align the
    # identity check at lcm(64, 81) = 5,184
    orders = {(1, 1): 64, (1, 2): 81}
    doc = {"order": 1, "achieved_class": -1, "entries": [
        {"j": [j], "k": [k], "mask": {"coefficients": [{"freq": [0, 0], "value":
            cyclotomic_value(orders[j, k]) if (j, k) in orders else "1"}]}}
        for j in (1, 2) for k in (1, 2)]}
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["decompose", EXAMPLE, "--verify-only", str(path)]) == 7
    assert time.perf_counter() - start < 1
    assert "5184" in capsys.readouterr().err


def test_cli_decompose_class_gate(capsys):
    assert main(["decompose", EXAMPLE, "--order", "2"]) == 4
    assert main(["decompose", EXAMPLE, "--levels", "2"]) == 4


def test_cli_decompose_order_and_levels_exclusive(capsys):
    # neither flag is silently ignored in favour of the other
    with pytest.raises(SystemExit) as exc:
        main(["decompose", EXAMPLE, "--order", "3", "--levels", "1"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


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


def test_rational_smooth_imports_neither_numpy_nor_mpmath():
    # both gates are decided in integers, and only the enclosure of a
    # non-rational magnitude imports mpmath; a fresh process keeps the
    # modules the test session has already loaded out of the picture
    code = ("import sys; from maskforge.cli import main; "
            f"main(['smooth', {EXAMPLE!r}, '--lmax', '3']); "
            "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(maskforge.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert "MACHINE " in result.stdout
    assert result.stdout.splitlines()[-1] == "[]"


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


def test_cli_refine_stdout_rows_equal_out_rows(tmp_path, capsys):
    # three rounds of a determinant -4 dilation: every grid cell is formed
    # over a negative denominator
    data = tmp_path / "data.csv"
    data.write_text("0,0,1/3\n1,-1,-2/5\n")
    argv = ["refine", EXAMPLE, "--rounds", "3", "--data", str(data)]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    out = tmp_path / "r.csv"
    assert main([*argv, "--out", str(out)]) == 0
    written = out.read_bytes().decode().split("\r\n")
    assert written.pop() == ""
    assert printed == written
    assert len(printed) > 100


def test_cli_refine_json_writes_the_rows_to_out(tmp_path, capsys):
    # text prints the rows; json writes the same bytes to --out and prints
    # a summary whose mass is t(0)^K times the sum of the data
    data = tmp_path / "data.csv"
    data.write_text("0,0,1/3\n1,-1,-2/5\n")
    argv = ["refine", EXAMPLE, "--rounds", "3", "--data", str(data)]
    assert main([*argv, "--format", "text"]) == 0
    printed = capsys.readouterr().out
    rows = printed.count("\n")
    text_out, json_out = tmp_path / "text.csv", tmp_path / "json.csv"
    assert main([*argv, "--out", str(text_out)]) == 0
    assert capsys.readouterr().out == f"wrote {rows} rows to {text_out}\n"
    assert main([*argv, "--out", str(json_out), "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert json_out.read_bytes() == text_out.read_bytes()
    assert json_out.read_bytes().decode().replace("\r\n", "\n") == printed
    t0 = load_mask_file(EXAMPLE)[0].value_at_zero().rational_value()
    mass = t0 ** 3 * (Fraction(1, 3) - Fraction(2, 5))
    assert summary == {"rounds": 3, "rows": rows, "mass": format_rational(mass),
                       "out": str(json_out)}


def test_cli_refine_json_without_out_exits_2(capsys):
    assert main(["refine", EXAMPLE, "--rounds", "1", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err
    assert captured.out == ""


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
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", "8192")
    assert _precision_bits() == 8192
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", "8193")
    with pytest.raises(BudgetExceeded, match="limit 8192"):
        _precision_bits()


@pytest.mark.parametrize("command", ["converge", "smooth"])
def test_precision_over_the_limit_exits_7_at_once(command, monkeypatch, capsys):
    # millions of bits would run for minutes; the value is refused unread
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", "3000000")
    start = time.perf_counter()
    assert main([command, EXAMPLE, "--lmax", "1"]) == 7
    assert time.perf_counter() - start < 1
    assert "limit 8192" in capsys.readouterr().err


def test_cli_refined_example_mask(tmp_path, capsys):
    # exactness end to end: no floats anywhere in the refined output
    out = tmp_path / "r.csv"
    assert main(["refine", EXAMPLE, "--rounds", "3", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        for cell in line.split(","):
            Fraction(cell)  # parses exactly; raises otherwise


# 1/(10^3000 + 1) and 1/(10^3000 + 3) parse, but their sum's denominator has
# 6,001 digits, past the interpreter's 4,300-digit limit on printing one int
LONG_VALUES = [f"1/{10 ** 3000 + 1}", f"1/{10 ** 3000 + 3}"]
digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter prints integers of any length")


@digit_limit
def test_formatting_past_the_digit_limit_raises_budget_exceeded():
    den = (10 ** 3000 + 1) * (10 ** 3000 + 3)
    limit = str(sys.get_int_max_str_digits())
    with pytest.raises(BudgetExceeded, match=limit):
        format_ratio(1, den)
    with pytest.raises(BudgetExceeded, match=limit):
        format_rational(Fraction(1, den))


@digit_limit
def test_analyze_past_the_digit_limit_exits_7(tmp_path, capsys):
    doc = {"dim": 1, "dilation": [[2]], "coefficients": [
        {"freq": [k], "value": value} for k, value in enumerate(LONG_VALUES)]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(sys.get_int_max_str_digits()) in captured.err


@digit_limit
def test_refine_past_the_digit_limit_leaves_no_file(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text("".join(f"{k},0,{value}\n" for k, value in enumerate(LONG_VALUES)))
    out = tmp_path / "out.csv"
    assert main(["refine", EXAMPLE, "--rounds", "1", "--data", str(data),
                 "--out", str(out)]) == 7
    assert str(sys.get_int_max_str_digits()) in capsys.readouterr().err
    assert not out.exists()


@digit_limit
def test_refine_past_the_digit_limit_prints_no_row(tmp_path, capsys):
    # without --out the rows go to stdout; the values at (0, 0) and (1, 0)
    # are summed in later rows than the first, so rows that fit the limit
    # come before the one that does not, and none of them may be printed
    data = tmp_path / "long.csv"
    data.write_text("".join(f"{k},0,{value}\n" for k, value in enumerate(LONG_VALUES)))
    assert main(["refine", EXAMPLE, "--rounds", "1", "--data", str(data)]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(sys.get_int_max_str_digits()) in captured.err


def long_tail_data(path) -> int:
    """Write refine data for the example mask whose rows pass the digit
    limit only past the first block: a line of points valued 1, then
    LONG_VALUES at two neighbours far along it, whose sums come last in
    lattice order.  Returns the number of points valued 1."""
    count = 1100
    rows = [f"0,{k},1" for k in range(count)]
    rows += [f"0,{5000 + k},{value}" for k, value in enumerate(LONG_VALUES)]
    path.write_text("\n".join(rows) + "\n")
    return count


@digit_limit
def test_refine_past_the_digit_limit_in_a_later_block(tmp_path, capsys):
    data = tmp_path / "long_tail.csv"
    long_tail_data(data)
    mask, ctx = load_mask_file(EXAMPLE)
    blocks = refined_rows(refine(mask, ctx, read_sequence_csv(data, 2), 1))
    assert len(next(blocks)) == BLOCK_ROWS  # the first block formats
    with pytest.raises(BudgetExceeded, match=str(sys.get_int_max_str_digits())):
        list(blocks)
    out = tmp_path / "out.csv"
    for argv in (["--out", str(out)], []):
        assert main(["refine", EXAMPLE, "--rounds", "1", "--data", str(data),
                     *argv]) == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(sys.get_int_max_str_digits()) in captured.err
        assert not out.exists()


def test_invalid_precision_env_exits_parse_error(monkeypatch, capsys):
    monkeypatch.setenv("MASKFORGE_PRECISION_BITS", "abc")
    assert main(["converge", EXAMPLE]) == 2
    assert "MASKFORGE_PRECISION_BITS" in capsys.readouterr().err


ORDER2 = "order2.json"  # the order-2 table mask, written to tmp_path
CYC3 = "cyc3.json"  # the Q(zeta_3) order-2 table mask, written to tmp_path


@pytest.mark.parametrize("argv, target, attr, replacement", [
    (["decompose", EXAMPLE], "maskforge.decompose.MaskDecomposition",
     "identity_holds", lambda self: False),
    (["analyze", EXAMPLE], "maskforge.sumrules", "_direct_order_holds",
     lambda *args: False),
    # a line of the telescoping whose total does not vanish: the values of
    # a Q(zeta_3) mask are summed as vectors, each tested by _vanishes
    (["decompose", CYC3], "maskforge.decompose", "_vanishes",
     lambda *args: False),
    # a coset index that does not match the vector
    (["analyze", EXAMPLE], "maskforge.lattice.DilationContext", "coset_index",
     lambda *args: 0),
    # the canonical digit search meets one coset only (the dual digits of
    # the example are searched, not given)
    (["analyze", EXAMPLE], "maskforge.lattice", "_canonical_candidates",
     lambda dim, radius: iter([(0,) * dim])),
    # an exact division that leaves a remainder: x^2 + 1 by x + 1
    (["smooth", EXAMPLE], "maskforge.lattice", "_squarefree_part",
     lambda poly: _divide_monic([1, 0, 1], [1, 1])),
    # lift faults: no correction moves, so the entries stay a class short
    (["decompose", ORDER2, "--order", "2"], "maskforge.decompose",
     "_correction_block", lambda kernel, ctx, *args: TrigPoly.zero(ctx.dim)),
    # every exchange uses axis 1's difference, which breaks the identity
    (["decompose", ORDER2, "--order", "2"], "maskforge.decompose",
     "dilated_difference", lambda ctx, axis: dilated_difference(ctx, 1)),
], ids=lambda value: value[0] if isinstance(value, list) else None)  # argv: its subcommand
def test_bug_guard_exit_code(monkeypatch, capsys, tmp_path, argv, target, attr,
                             replacement):
    # a failed identity check, a checker disagreement, a remainder in an
    # exact division, a failed coset split, a digit search that misses a
    # coset and a broken lift are bugs, not input errors: all get the
    # internal-error exit code
    # only the files the case reads are built, so the dilation data the
    # patched helper forms is not already in the per-process caches
    from maskforge.cli import EXIT_INTERNAL
    builders = {ORDER2: order2_mask, CYC3: lambda: cyclotomic_mask("cyc3_order2")}
    for name, build in builders.items():
        if name in argv:
            (tmp_path / name).write_text(json.dumps(mask_document(*build())))
    argv = [str(tmp_path / arg) if arg in builders else arg for arg in argv]
    monkeypatch.setattr(target + "." + attr, replacement)
    assert main(argv) == EXIT_INTERNAL == 6
    assert "internal error (bug guard)" in capsys.readouterr().err
