"""Tests of the benchmark itself: generator, checkers, tracer, entry point.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads(run.GOLDEN.read_text())

# cheap inputs of each workload, at their real parameters so that the
# recorded fields still apply
TINY = {
    "certify-rational": ["example", "box-2i-tensor1", "table-rat-quincunx-o1"],
    "certify-cyclotomic": ["table-z3-quincunx-o1", "table-z3-2i-o1"],
    "refine-deep": ["refine-3d-trilinear", "refine-example-data0"],
}


@pytest.fixture(scope="module", autouse=True)
def cli():
    return run.load_program()


def tiny_items(workload: str, work: Path, seed: int = run.DEFAULT_SEED) -> list:
    items = inputs.generate(workload, seed, run.ROOT, work)
    return [item for item in items if item.name in TINY[workload]]


def tree_state(*dirs: Path) -> dict:
    return {p: p.stat().st_mtime_ns for d in dirs for p in d.rglob("*")}


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    runs = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        out = tmp_path / label
        out.mkdir()
        items = inputs.generate(workload, seed, run.ROOT, out)
        runs[label] = {item.name: (dataclasses.replace(item, path="", data=None)
                                   if isinstance(item, inputs.RefineInput)
                                   else dataclasses.replace(item, path=""),
                                   Path(item.path).read_bytes(),
                                   Path(item.data).read_bytes()
                                   if getattr(item, "data", None) else None)
                       for item in items}
    assert runs["a"] == runs["b"]
    seeded = {name for name, (item, _, _) in runs["a"].items() if item.seeded}
    for name in runs["a"]:
        same = runs["a"][name] == runs["c"][name]
        assert same == (name not in seeded), name


def test_box_orders_match_known_masks():
    assert inputs.box_order(inputs.DIL_2I, inputs._tensor(3)) == 3
    assert inputs.box_order(inputs.DIL_2I, inputs.FOUR_DIRECTIONS) == 1
    assert inputs.box_order(inputs.DIL_QUINCUNX, inputs.FOUR_DIRECTIONS * 2) == 3
    bilinear = inputs.box_mask_terms(inputs.DIL_2I, inputs._tensor(1))
    assert sum(bilinear.values()) == 4
    assert bilinear[(1, 1)] == 1
    assert bilinear[(0, 0)] == bilinear[(2, 2)] == Fraction(1, 4)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _tamper_machine(call: checks.CallResult, edit) -> checks.CallResult:
    machine = call.machine()
    edit(machine)
    lines = [line for line in call.stdout.splitlines()
             if not line.startswith("MACHINE ")]
    lines.append("MACHINE " + json.dumps(machine))
    return dataclasses.replace(call, stdout="\n".join(lines) + "\n")


def test_checker_flags_tampered_machine_block(cli, tmp_path):
    item = tiny_items("certify-rational", tmp_path)[1]
    assert item.name == "box-2i-tensor1"
    calls = run.certify_op(cli, item, tmp_path)
    expected = GOLDEN[run.golden_key(item)]
    assert checks.check_certify(item, calls, expected) == ([], expected)

    def break_certificate(m):
        m["convergence"]["norms"][-1]["norm"] = "17/16"

    def lower_order(m):
        m["sum_rule_order"] = 0

    def break_identity(m):
        m["identity_exact"] = False

    for index, edit in ((3, break_certificate), (0, lower_order),
                        (2, break_identity)):
        tampered = list(calls)
        tampered[index] = _tamper_machine(calls[index], edit)
        problems, _ = checks.check_certify(item, tampered, expected)
        assert problems, edit.__name__
        # the structural checks fire even with nothing recorded to compare
        problems, _ = checks.check_certify(item, tampered, None)
        assert problems, edit.__name__


def test_checker_flags_tampered_refined_value(cli, tmp_path):
    item = tiny_items("refine-deep", tmp_path)[0]
    assert item.name == "refine-3d-trilinear"
    call = run.refine_op(cli, item, tmp_path)[0]
    text = run.refine_out(item, tmp_path).read_text()
    expected = GOLDEN[run.golden_key(item)]
    problems, fields = checks.check_refine(item, call, text, item.dim, expected)
    assert problems == [] and fields == expected
    lines = text.splitlines()
    cells = lines[len(lines) // 2].split(",")
    cells[-1] = str(Fraction(cells[-1]) + Fraction(1, 2 ** 40))
    lines[len(lines) // 2] = ",".join(cells)
    tampered = "\n".join(lines) + "\n"
    problems, _ = checks.check_refine(item, call, tampered, item.dim, None)
    assert any("mass" in p for p in problems)


def test_failing_op_is_counted_not_fatal(cli, tmp_path):
    items = tiny_items("certify-rational", tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    items.insert(1, dataclasses.replace(items[0], name="broken", path=str(broken)))
    result = run.run_pass(cli, items, tmp_path, run.DEFAULT_SEED, None)
    assert result["failed"] == 1
    assert len(result["op_seconds"]) == len(items)


# ---------------------------------------------------------------------------
# smoke runs and tracing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_tiny_smoke_run(workload, cli, tmp_path):
    before = tree_state(run.SRC, run.ROOT / "tests")
    items = tiny_items(workload, tmp_path)
    assert len(items) == len(TINY[workload])
    passes = run.timed_phase(cli, items, tmp_path, run.DEFAULT_SEED, 0.0, GOLDEN,
                             min_passes=1)
    assert [p["problems"] for p in passes] == [[]]
    metrics = run.end_to_end(passes, [0.5])
    assert metrics["ok_frac"]["value"] == 1.0
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(metrics)

    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(cli, items, tmp_path, run.DEFAULT_SEED, GOLDEN, tracer)
    finally:
        tracer.uninstall()
    assert traced["failed"] == 0
    layers = run.per_layer(tracer, traced, passes[0], len(items))
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(layers)
    assert layers["trace.coverage_frac"]["value"] > 0.9
    if workload == "refine-deep":
        assert layers["subdivision.apply_calls"]["value"] > 0
        assert layers["sumrules.order_scan_calls"]["value"] == 0
    else:
        assert layers["sumrules.order_scan_calls"]["value"] > 0
        assert layers["subdivision.apply_calls"]["value"] == 0
    if workload == "certify-cyclotomic":
        assert layers["cyclotomic.magnitude_calls"]["value"] > 0
        assert layers["cyclotomic.max_order"]["value"] > 1
    assert tree_state(run.SRC, run.ROOT / "tests") == before


def test_reference_seconds_follow_the_sampled_kernel():
    sampler = pace.PaceSampler()
    ref = pace.REFERENCE_KERNEL_S
    sampler.starts = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
    sampler.seconds = [2 * ref, 2 * ref, 2 * ref, 2 * ref, ref, ref, ref]
    # a host at half speed: two seconds are one reference second
    assert sampler.reference_seconds(0.0, 2.0) == pytest.approx(1.0)
    assert sampler.reference_seconds(10.0, 2.0) == pytest.approx(2.0)
    # a span without samples takes the nearest ones on both sides
    assert sampler.kernel_seconds(5.0, 5.1) == pytest.approx(1.5 * ref)


def test_pace_sampler_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with pace.PaceSampler(interval=0.005) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pace.kernel()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.seconds) >= 3
    assert sampler.reference_seconds(start, 0.1) > 0


def test_tracer_restores_every_binding(cli):
    import maskforge.cyclotomic as cyclotomic
    import maskforge.decompose as decompose
    import maskforge.lattice as lattice
    originals = (cli.check_c1, decompose.sum_rule_order,
                 lattice.DilationContext.__dict__["create"],
                 cyclotomic.CyclotomicNumber.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.check_c1.__wrapped__ is originals[0]
        assert decompose.sum_rule_order.__wrapped__ is originals[1]
        assert lattice.DilationContext.__dict__["create"] is not originals[2]
        assert cyclotomic.CyclotomicNumber.__init__.__wrapped__ is originals[3]
    finally:
        tracer.uninstall()
    assert (cli.check_c1, decompose.sum_rule_order,
            lattice.DilationContext.__dict__["create"],
            cyclotomic.CyclotomicNumber.__init__) == originals


def test_without_program_exits_nonzero(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "refine-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
