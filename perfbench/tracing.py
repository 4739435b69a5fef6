"""Layer spans for the maskforge benchmark, recorded from outside the program.

`Tracer.install()` wraps public functions of each maskforge module and
rebinds every name that refers to them, including names that other modules
imported with ``from .x import y``; `uninstall()` puts the originals back.
Each wrapped call becomes a span (name, start, end, parent, op id) kept in
memory.  CyclotomicNumber construction and multiplication are only counted,
because they run millions of times and timing them would swamp the rest.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "maskforge"

# (module, attribute path, span name, measure); the measure callback receives
# the tracer, the call's arguments and its result
FUNCTION_SPANS = [
    ("cli", "main", "cli", None),
    ("maskfile", "load_mask_file", "maskfile.load", None),
    ("maskfile", "read_sequence_csv", "maskfile.load", None),
    ("maskfile", "write_refined_csv", "maskfile.write", None),
    ("lattice", "DilationContext.create", "lattice.context", None),
    ("lattice", "is_isotropic", "lattice.isotropy", None),
    ("sumrules", "sum_rule_order", "sumrules.order_scan", None),
    ("sumrules", "sum_rule_order_direct", "sumrules.order_scan", None),
    ("sumrules", "derivative_table", "sumrules.table_build", None),
    ("decompose", "decompose_mask", "decompose.plain", None),
    ("decompose", "refine_decomposition", "decompose.lift", None),
    ("decompose", "MaskDecomposition.identity_holds", "decompose.verify", None),
    ("decompose", "MaskDecomposition.value_constraint_holds", "decompose.verify", None),
    ("decompose", "IteratedDecomposition.identity_holds", "decompose.verify", None),
    ("decompose", "IteratedDecomposition.value_constraint_holds", "decompose.verify",
     None),
    ("subdivision", "MatrixMask.matmul_dilated", "subdivision.power",
     lambda tr, args, out: tr.maximum(
         "subdivision.symbol_terms_max",
         sum(len(entry.terms) for row in out.entries for entry in row))),
    ("subdivision", "check_convergence", "subdivision.converge", None),
    ("subdivision", "check_c1", "subdivision.c1", None),
    ("subdivision", "operator_norm", "subdivision.norm", None),
    ("subdivision", "second_difference_scheme", "subdivision.second_diff", None),
    ("subdivision", "apply", "subdivision.apply",
     lambda tr, args, out: tr.add("subdivision.apply_points_out", len(out.values))),
    ("trigpoly", "TrigPoly.__mul__", "trigpoly.mul", None),
    ("trigpoly", "TrigPoly.__rmul__", "trigpoly.mul", None),
    ("cyclotomic", "magnitude_interval", "cyclotomic.magnitude", None),
]

# (module, attribute path, counter name)
COUNTED_CALLS = [
    ("trigpoly", "TrigPoly.compose_dilate", "trigpoly.compose_dilate_calls"),
    ("cyclotomic", "CyclotomicNumber.__mul__", "cyclotomic.mul_calls"),
    ("cyclotomic", "CyclotomicNumber.__rmul__", "cyclotomic.mul_calls"),
]


class Tracer:
    """Spans and counters of one traced run.  Not thread-safe: the benchmark
    runs one op at a time in one thread."""

    def __init__(self) -> None:
        self.spans: list = []          # [name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.op = None
        self._stack: list = []
        self._undo: list = []

    # -- counters --------------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def maximum(self, name: str, value: int) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if measure is not None:
                measure(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _init_wrapper(self, fn):
        counts, maxima = self.counts, self.maxima

        def init(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            counts["cyclotomic.numbers_built"] += 1
            if obj.order > maxima["cyclotomic.max_order"]:
                maxima["cyclotomic.max_order"] = obj.order
            bits = max(c.denominator.bit_length() for c in obj.coords)
            if bits > maxima["cyclotomic.max_denominator_bits"]:
                maxima["cyclotomic.max_denominator_bits"] = bits

        init.__wrapped__ = fn
        return init

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; safe to call once per tracer."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, path, name, measure in FUNCTION_SPANS:
            self._replace(module, path,
                          lambda fn, n=name, m=measure: self._span_wrapper(n, fn, m))
        for module, path, name in COUNTED_CALLS:
            self._replace(module, path,
                          lambda fn, n=name: self._count_wrapper(n, fn))
        self._replace("cyclotomic", "CyclotomicNumber.__init__", self._init_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, module: str, path: str, make) -> None:
        owner = sys.modules[f"{PACKAGE}.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if outer:
            # a method or classmethod: the class holds the only binding
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._set(owner, attr, raw, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapped)

    def _set(self, owner, attr: str, original, wrapped) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive seconds (a span nested in a span of the
    same name is not counted twice) and self seconds (duration minus the
    durations of direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["inclusive_s"] += end - start
    return out


def top_level_seconds(spans: list) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
