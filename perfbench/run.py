"""maskforge benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload certify-rational --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ./src in this
process; inputs are generated from the seed into a temporary directory under
the root and removed afterwards.  One client runs one op at a time (a closed
loop).  An op of the certify workloads is the CLI sequence analyze,
decompose --order n --out, decompose --verify-only, smooth --lmax L on one
mask; an op of refine-deep is one refine --rounds k --out.  Each op's
outputs are checked (see checks.py); a failing op is counted, not fatal.

After one warm-up op, the timed phase runs the workload's fixed op list in
passes: at least MIN_PASSES and MIN_OPS ops, then more while the next pass
is expected to end within --seconds.  Every CLI call is timed and converted
to reference seconds by the host-speed sampler of pace.py.  With --trace 0
the last stdout line is the end-to-end result; with --trace 1 one untraced
pass is followed by one traced pass and the last line carries the per-layer
metrics, while the spans are written to .perfbench-out/ under the root.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / ".perfbench-out"

DEFAULT_SEED = 0
MIN_PASSES = 2         # every call is timed at least twice
MIN_OPS = 20           # the median op then has at least ten ops beyond it
SETUP_SAMPLES = 5      # fresh interpreters timed for setup_s
# a cheap op run once before the timed phase, so that lazy imports and the
# program's small caches are not charged to the first timed op
WARM_UP = {
    "certify-rational": "example",
    "certify-cyclotomic": "table-z3z5-quincunx-o1",
    "refine-deep": "refine-example-data0",
}

# a run writes nothing into the checkout's sources, bytecode caches included
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from pace import PaceSampler  # noqa: E402
from tracing import Tracer, summarize, top_level_seconds  # noqa: E402


class ProgramMissing(Exception):
    pass


def load_program():
    """Import maskforge from ./src, refusing any other copy."""
    if not (SRC / "maskforge" / "__init__.py").is_file():
        raise ProgramMissing(f"no maskforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import maskforge.cli
    if Path(maskforge.__file__).resolve().parent != (SRC / "maskforge").resolve():
        raise ProgramMissing(f"maskforge imported from {maskforge.__file__}")
    return maskforge.cli


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def call_cli(cli, argv: list) -> checks.CallResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return checks.CallResult(argv, code, out.getvalue(), err.getvalue(),
                             time.perf_counter() - start, start)


def certify_op(cli, item, work: Path) -> list:
    dec = str(work / f"{item.name}.dec.json")
    sequence = [
        ["analyze", item.path],
        ["decompose", item.path, "--order", str(max(1, item.order)), "--out", dec],
        ["decompose", item.path, "--verify-only", dec],
        ["smooth", item.path, "--lmax", str(item.lmax)],
    ]
    calls = []
    for argv in sequence:
        calls.append(call_cli(cli, argv))
        if calls[-1].code != 0:
            break
    return calls


def refine_out(item, work: Path) -> Path:
    return work / f"{item.name}.out.csv"


def refine_op(cli, item, work: Path) -> list:
    argv = ["refine", item.path, "--rounds", str(item.rounds),
            "--out", str(refine_out(item, work))]
    if item.data:
        argv += ["--data", item.data]
    return [call_cli(cli, argv)]


def golden_key(item) -> str:
    if isinstance(item, inputs.RefineInput):
        return f"{item.name}@k{item.rounds}"
    return f"{item.name}@L{item.lmax}"


def expected_fields(item, seed: int, golden: dict | None):
    """Recorded fields for this input, None when not compared (seeded
    inputs off the default seed, or no golden file in use)."""
    if golden is None or (item.seeded and seed != DEFAULT_SEED):
        return None
    return golden.get(golden_key(item), {"missing": golden_key(item)})


def check_op(item, calls: list, work: Path, expected) -> tuple[list, dict | None]:
    """Problems with one op and its verdict fields (None when incomplete)."""
    if isinstance(item, inputs.CertifyInput):
        return checks.check_certify(item, calls, expected)
    path = refine_out(item, work)
    text = path.read_text() if path.is_file() else None
    path.unlink(missing_ok=True)
    return checks.check_refine(item, calls[0], text, item.dim, expected)


def op_function(item):
    return refine_op if isinstance(item, inputs.RefineInput) else certify_op


def run_pass(cli, items, work: Path, seed: int, golden, tracer=None,
             pace=None) -> dict:
    """Run every op once, then check the outputs (outside the timed wall).
    With a running PaceSampler, call times are also kept in reference
    seconds, otherwise as measured."""
    op = op_function(items[0])
    timed = []
    start = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.op = index
        op_start = time.perf_counter()
        calls = op(cli, item, work)
        timed.append((item, calls, time.perf_counter() - op_start))
    wall = time.perf_counter() - start
    problems, fields, failed = [], {}, 0
    for item, calls, _ in timed:
        found, record = check_op(item, calls, work,
                                 expected_fields(item, seed, golden))
        problems += found
        failed += bool(found)
        fields[golden_key(item)] = record
    return {"wall": wall, "op_seconds": [s for _, _, s in timed],
            "call_seconds": [[pace.reference_seconds(call.started, call.seconds)
                              if pace else call.seconds for call in calls]
                             for _, calls, _ in timed],
            "failed": failed, "problems": problems, "fields": fields}


def warm_up(cli, items, work: Path, name: str) -> None:
    """Run one op, unchecked and untimed."""
    for item in items:
        if item.name == name:
            op_function(item)(cli, item, work)
            if isinstance(item, inputs.RefineInput):
                refine_out(item, work).unlink(missing_ok=True)
            return


def timed_phase(cli, items, work: Path, seed: int, seconds: float,
                golden, min_passes: int | None = None) -> list:
    if min_passes is None:
        min_passes = max(MIN_PASSES, -(-MIN_OPS // len(items)))
    passes = []
    start = time.perf_counter()
    with PaceSampler() as pace:
        while True:
            passes.append(run_pass(cli, items, work, seed, golden, pace=pace))
            elapsed = time.perf_counter() - start
            longest = max(p["wall"] for p in passes)
            if len(passes) >= min_passes and elapsed + longest > seconds:
                return passes


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def scratch_dir():
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def setup_only(workload: str, seed: int) -> None:
    """What a fresh process does before its first op: import the program and
    generate the inputs."""
    load_program()
    with scratch_dir() as work:
        inputs.generate(workload, seed, ROOT, Path(work))


def setup_seconds(workload: str, seed: int) -> list:
    """Wall time of SETUP_SAMPLES fresh interpreters that import maskforge,
    generate the inputs and exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-B", str(Path(__file__).resolve()),
                        "--setup-only", "--workload", workload,
                        "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_latencies(passes: list) -> list:
    """Per op of the list, the sum over its calls of the call's median time
    over the passes: the op's typical latency."""
    latencies = []
    for index in range(len(passes[0]["call_seconds"])):
        runs = [p["call_seconds"][index] for p in passes]
        calls = max(len(r) for r in runs)
        latencies.append(sum(statistics.median(r[j] for r in runs if len(r) > j)
                             for j in range(calls)))
    return latencies


def end_to_end(passes: list, setups: list) -> dict:
    """wall_s is one pass over the list at each op's typical latency;
    op_p50_s is the median over every op run."""
    ops = [sum(calls) for p in passes for calls in p["call_seconds"]]
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": metric(sum(op_latencies(passes)), "s"),
        "op_p50_s": metric(statistics.median(ops), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric((len(ops) - failed) / len(ops), "ratio"),
    }


LAYER_TIMES = ["maskfile.load", "maskfile.write", "lattice.context",
               "lattice.isotropy", "sumrules.order_scan", "sumrules.table_build",
               "decompose.plain", "decompose.lift", "decompose.verify",
               "subdivision.power", "subdivision.norm", "subdivision.second_diff",
               "subdivision.apply", "trigpoly.mul", "cyclotomic.magnitude"]
LAYER_CALLS = ["sumrules.order_scan", "decompose.plain", "subdivision.power",
               "subdivision.norm", "subdivision.apply", "trigpoly.mul",
               "cyclotomic.magnitude"]
LAYER_COUNTS = ["subdivision.apply_points_out", "trigpoly.compose_dilate_calls",
                "cyclotomic.numbers_built", "cyclotomic.mul_calls"]
LAYER_MAXIMA = ["subdivision.symbol_terms_max", "cyclotomic.max_order",
                "cyclotomic.max_denominator_bits"]


def per_layer(tracer, traced: dict, untraced: dict, ops: int) -> dict:
    """Layer times are inclusive span seconds over the traced pass, except
    cli.self_s, the CLI layer's own time outside every traced callee."""
    summary = summarize(tracer.spans)
    empty = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    out = {"cli.self_s": metric(summary.get("cli", empty)["self_s"], "s")}
    for name in LAYER_TIMES:
        out[f"{name}_s"] = metric(summary.get(name, empty)["inclusive_s"], "s")
    for name in LAYER_CALLS:
        out[f"{name}_calls"] = metric(summary.get(name, empty)["calls"], "count")
    for name in LAYER_COUNTS:
        out[name] = metric(tracer.counts[name], "count")
    for name in LAYER_MAXIMA:
        unit = "bits" if name.endswith("_bits") else "count"
        out[name] = metric(tracer.maxima[name], unit)
    scans = summary.get("sumrules.order_scan", empty)["calls"]
    out["sumrules.scans_per_op"] = metric(scans / ops, "ratio")
    out["trace.wall_s"] = metric(traced["wall"], "s")
    out["trace.coverage_frac"] = metric(
        top_level_seconds(tracer.spans) / traced["wall"], "ratio")
    out["trace.overhead_frac"] = metric(traced["wall"] / untraced["wall"] - 1,
                                        "ratio")
    return dict(sorted(out.items()))


def write_spans(tracer, workload: str, seed: int, summary_metrics: dict) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "metrics": summary_metrics},
                  handle, separators=(",", ":"))
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def report(workload: str, passes: list, metrics: dict) -> dict:
    attempted = sum(len(p["op_seconds"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"FAILED {problem}")
    print(f"workload {workload}: {len(passes)} pass(es), {attempted} ops, "
          f"fail_frac {failed / attempted:.4f} ratio ({failed}/{attempted})")
    for name, entry in metrics.items():
        extra = f"  (over {attempted} ops)" if name == "op_p50_s" else ""
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}{extra}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


class Terminated(BaseException):
    """Raised on SIGTERM.  Not an Exception or SystemExit, which an op
    catches as a failed call."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: the scratch directory is removed and a running
    # setup interpreter is killed and waited for
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run_workload(args)
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM


def run_workload(args) -> int:
    try:
        if args.setup_only:
            setup_only(args.workload, args.seed)
            return 0
        cli = load_program()
        setups = None if args.trace else setup_seconds(args.workload, args.seed)
    except (ProgramMissing, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    with scratch_dir() as work:
        work = Path(work)
        items = inputs.generate(args.workload, args.seed, ROOT, work)
        if not args.trace:
            warm_up(cli, items, work, WARM_UP[args.workload])
            passes = timed_phase(cli, items, work, args.seed, args.seconds, golden)
            for item, seconds in zip(items, op_latencies(passes)):
                print(f"  op {item.name:40s} {seconds:.4f} s")
            result = report(args.workload, passes, end_to_end(passes, setups))
        else:
            untraced = run_pass(cli, items, work, args.seed, golden)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, items, work, args.seed, golden, tracer)
            finally:
                tracer.uninstall()
            passes = [untraced, traced]
            layers = per_layer(tracer, traced, untraced, len(items))
            result = report(args.workload, passes, layers)
            print(f"spans: {write_spans(tracer, args.workload, args.seed, layers)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
