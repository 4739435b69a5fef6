"""Mutated mask, decomposition and sequence-CSV documents through the
subcommands, in process: every call ends in an exit code of the documented
table, never the bug-guard code 6, and no exception escapes main."""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from maskforge.cli import main
from maskforge.decompose import decompose_to_class
from maskforge.maskfile import load_mask_file

EXAMPLE = Path(__file__).parent / "data" / "example_mask_2d.json"
EXAMPLE_DATA = Path(__file__).parent / "data" / "golden_refine" / "example_data.csv"

# the exit codes a user input may get: success, parse error, invalid digits,
# class precondition, shape, budget
EXITS = {0, 2, 3, 4, 5, 7}

MASK, DEC, DATA = "mask", "decomposition", "data"
COMMANDS = [["analyze", MASK], ["decompose", MASK],
            ["decompose", MASK, "--verify-only", DEC],
            ["converge", MASK, "--lmax", "1"], ["smooth", MASK, "--lmax", "1"],
            ["refine", MASK, "--rounds", "1"],
            ["refine", MASK, "--rounds", "1", "--data", DATA]]

TOP_KEYS = {MASK: ("dim", "dilation", "digits", "dual_digits", "polyphase",
                   "coefficients"),
            DEC: ("order", "achieved_class", "entries")}
OTHER_TYPES = [0, 1, -1, 1.5, "1", None, True, [], {}, [[0]], [[2]], 2 ** 70]
# far enough that a division by (1 - z_j) passes the budget at once: a span
# under it runs in proportion to the span
FAR = [2 ** 30, -2 ** 45, -2 ** 70, 10 ** 30]
ORDERS = [0, -1, 55440, 10 ** 9, 2 ** 70]
NON_ASCII_ONE = "\u0661"  # ARABIC-INDIC DIGIT ONE: str.isdigit, not ASCII
MISSING = object()  # the edit that deletes the key

PROFILE = settings(max_examples=120, deadline=None, derandomize=True,
                   database=None, phases=[Phase.explicit, Phase.generate])


@cache
def documents() -> dict:
    """The example mask document, its order-1 decomposition's document and
    the example data, as rows of cells."""
    mask, ctx = load_mask_file(EXAMPLE)
    return {MASK: json.loads(EXAMPLE.read_text()),
            DEC: decompose_to_class(mask, ctx, 0).to_json(),
            DATA: [line.split(",") for line in EXAMPLE_DATA.read_text().splitlines()]}


def node_paths(node, prefix=()):
    """The path (keys and list indices) of every node under node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


@st.composite
def edits(draw, name):
    """(name, path, new value or MISSING) on the named document: a top-level
    value of another type, a far frequency, a huge or zero order (of the
    decomposition, its class or a cyclotomic value), or a missing key."""
    paths = list(node_paths(documents()[name]))
    kind = draw(st.sampled_from(["type", "far", "order", "missing"]))
    if kind == "type":
        return name, (draw(st.sampled_from(TOP_KEYS[name])),), \
            draw(st.sampled_from(OTHER_TYPES))
    if kind == "far":
        return name, draw(st.sampled_from(
            [p for p in paths if len(p) > 1 and p[-2] == "freq"])), \
            draw(st.sampled_from(FAR))
    if kind == "order":
        path = draw(st.sampled_from(
            [p for p in paths if p[-1] in ("order", "achieved_class", "value")]))
        order = draw(st.sampled_from(ORDERS))
        return name, path, ({"order": order, "coords": ["1", "1/2"]}
                            if path[-1] == "value" else order)
    return name, draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)])), \
        MISSING


@st.composite
def data_edits(draw):
    """(DATA, path, new value) on the data rows: a zero value, a point moved
    to 2^70, a row one cell wider, a point repeated, a non-ASCII digit, or
    the empty file (the empty path: the whole document)."""
    rows = documents()[DATA]
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["zero", "far", "width", "repeat", "digit",
                                 "empty"]))
    if kind == "zero":
        return DATA, (i, 2), "0"
    if kind == "far":
        return DATA, (i, draw(st.integers(0, 1))), str(2 ** 70)
    if kind == "width":
        return DATA, (i,), rows[i] + ["1"]
    if kind == "repeat":
        j = draw(st.integers(0, len(rows) - 1).filter(lambda j: j != i))
        return DATA, (i,), rows[j][:2] + rows[i][2:]
    if kind == "digit":
        return DATA, (i, draw(st.integers(0, 2))), NON_ASCII_ONE
    return DATA, (), []


def edited(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    return doc


def exit_codes(edit_list) -> list:
    """The exit code of each of COMMANDS on the edited documents."""
    docs = dict(documents())
    for name, path, value in edit_list:
        docs[name] = edited(docs[name], path, value)
    codes = []
    with tempfile.TemporaryDirectory(prefix="maskforge-fuzz-") as folder:
        files = {name: Path(folder) / f"{name}.json" for name in docs}
        files[DATA] = Path(folder) / "data.csv"
        for name, path in files.items():
            path.write_text("".join(",".join(row) + "\n" for row in docs[name])
                            if name == DATA else json.dumps(docs[name]),
                            encoding="utf-8")
        for argv in COMMANDS:
            argv = [str(files.get(arg, arg)) for arg in argv]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes.append(main(argv))
    return codes


POLYPHASE_0 = (MASK, ("polyphase",), 0)
FAR_70 = (MASK, ("polyphase", 1, "coefficients", 2, "freq", 0), -2 ** 70)
CONGRUENT = (MASK, ("digits", 1), [2, 2])
DATA_ZERO = (DATA, (1, 2), "0")
DATA_FAR_70 = (DATA, (2, 0), str(2 ** 70))
DATA_WIDTH = (DATA, (3,), ["2", "-1", "1/6", "1"])
DATA_REPEAT = (DATA, (4,), ["0", "0", "-3"])
DATA_DIGIT = (DATA, (0, 1), NON_ASCII_ONE)
DATA_EMPTY = (DATA, (), [])


@PROFILE
@given(edit_list=st.lists(st.one_of(edits(MASK), edits(DEC), data_edits()),
                          min_size=1, max_size=2, unique_by=lambda edit: edit[0]))
@example(edit_list=[POLYPHASE_0])
@example(edit_list=[FAR_70])
@example(edit_list=[CONGRUENT])
def test_mutated_documents_exit_by_the_table(edit_list):
    codes = exit_codes(edit_list)
    assert set(codes) <= EXITS, (edit_list, codes)


@pytest.mark.parametrize("edit, codes", [
    ((), [0] * 7),
    # a top-level polyphase that is not a list is a parse error
    (POLYPHASE_0, [2] * 7),
    # the division by (1 - z_1) would run 2^70 sums: decompose, converge
    # and smooth stop at the budget, while refine's round follows the support
    (FAR_70, [0, 7, 4, 7, 7, 0, 0]),
    (CONGRUENT, [3] * 7),
    # a zero value drops its point, and a far point only lengthens the codes
    (DATA_ZERO, [0] * 7),
    (DATA_FAR_70, [0] * 7),
    # a wider row, a repeated point, a non-ASCII digit and an empty file are
    # parse errors of the data alone
    (DATA_WIDTH, [0] * 6 + [2]),
    (DATA_REPEAT, [0] * 6 + [2]),
    (DATA_DIGIT, [0] * 6 + [2]),
    (DATA_EMPTY, [0] * 6 + [2]),
], ids=["unedited", "polyphase_0", "far_70", "congruent", "data_zero",
        "data_far_70", "data_width", "data_repeat", "data_digit", "data_empty"])
def test_named_edits_exit_as_documented(edit, codes):
    assert exit_codes([edit] if edit else []) == codes
