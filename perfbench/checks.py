"""Output checks for benchmark ops.

Each check returns a list of problems; an empty list means the op's outputs
are correct.  The checks read only what the CLI printed (its MACHINE blocks)
and wrote (decomposition JSON, refined CSV), never the library's objects.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass
class CallResult:
    """One in-process CLI call."""
    argv: list
    code: int | None          # exit code, None when the call raised
    stdout: str
    stderr: str
    seconds: float
    started: float = 0.0      # time.perf_counter() when the call began

    def machine(self) -> dict | None:
        """The last MACHINE block, parsed; None if there is none."""
        for line in reversed(self.stdout.splitlines()):
            if line.startswith("MACHINE "):
                return json.loads(line[len("MACHINE "):])
        return None


def upper_bound(value) -> Fraction:
    """Upper end of a norm or product as printed: "p/q" or {"lo", "hi"}."""
    if isinstance(value, dict):
        return Fraction(value["hi"])
    return Fraction(value)


# ---------------------------------------------------------------------------
# certify ops: analyze, decompose --out, decompose --verify-only, smooth
# ---------------------------------------------------------------------------

def certify_fields(calls: list) -> dict:
    """Verdict fields of a complete certify op, as compared against the
    values recorded at the seed commit."""
    analyze, decompose, verify, smooth = (call.machine() for call in calls)
    convergence = smooth["convergence"]
    return {
        "sum_rule_order": analyze["sum_rule_order"],
        "achieved_class": decompose["achieved_class"],
        "entry_count": decompose["entry_count"],
        "verify": [verify["identity_exact"], verify["value_constraint"],
                   verify["class_certified"]],
        "convergence_verdict": convergence["verdict"],
        "convergence_certificate_power": convergence["certificate_power"],
        "convergence_sum_rule_order": convergence["sum_rule_order"],
        "norms": [item["norm"] for item in convergence["norms"]],
        "verdict": smooth["verdict"],
        "certificate_power": smooth["certificate_power"],
        "products": [item["product"] for item in smooth["products"]],
        "isotropy": smooth["isotropy"]["verdict"],
    }


def check_certify(item, calls: list,
                  expected: dict | None) -> tuple[list, dict | None]:
    """Problems with one certify op, and its verdict fields (None when the
    op did not complete).  `expected` holds recorded fields, or is None when
    nothing was recorded for this input and seed."""
    if len(calls) != 4 or any(call.code != 0 for call in calls):
        last = calls[-1]
        return [f"{item.name}: {last.argv[0]} exited {last.code}: "
                f"{last.stderr.strip()[-200:]}"], None
    try:
        fields = certify_fields(calls)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        return [f"{item.name}: MACHINE block missing or incomplete: {exc!r}"], None
    problems = []
    if calls[1].machine().get("identity_exact") is not True:
        problems.append("decomposition identity not exact")
    if fields["verify"] != [True, True, True]:
        problems.append(f"verify-only round trip failed: {fields['verify']}")
    if fields["sum_rule_order"] < item.order:
        problems.append(f"sum-rule order {fields['sum_rule_order']} below the "
                        f"built order {item.order}")
    if fields["convergence_sum_rule_order"] < min(item.order, 3):
        problems.append("convergence report scanned a lower order than built")
    problems += _certificate_problems(calls[3].machine())
    if item.certifies and fields["convergence_verdict"] != "convergent":
        problems.append(f"box mask did not certify by L={item.lmax}")
    if expected is not None and fields != expected:
        diff = sorted(k for k in set(fields) | set(expected)
                      if fields.get(k) != expected.get(k))
        problems.append(f"verdict fields differ from the recorded ones: {diff}")
    return [f"{item.name}: {p}" for p in problems], fields


def _certificate_problems(smooth: dict) -> list:
    problems = []
    convergence = smooth["convergence"]
    power = convergence["certificate_power"]
    norms = {item["power"]: item["norm"] for item in convergence["norms"]}
    if (convergence["verdict"] == "convergent") != (power is not None):
        problems.append("convergence verdict and certificate disagree")
    if power is not None and not (power in norms and upper_bound(norms[power]) < 1):
        problems.append(f"convergence certificate at L={power} is not below 1")
    power = smooth["certificate_power"]
    products = {item["power"]: item["product"] for item in smooth["products"]}
    if (smooth["verdict"] == "C1") != (power is not None):
        problems.append("C1 verdict and certificate disagree")
    if power is not None and not (power in products
                                  and upper_bound(products[power]) < 1):
        problems.append(f"C1 certificate at L={power} is not below 1")
    return problems


# ---------------------------------------------------------------------------
# refine ops
# ---------------------------------------------------------------------------

def refined_summary(text: str, dim: int) -> dict:
    """Row count, exact value sum and digest of a refined CSV."""
    numerators, denominators = [], []
    rows = 0
    for line in text.splitlines():
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ValueError(f"row has {len(cells)} cells, expected {dim + 1}")
        num, _, den = cells[-1].partition("/")
        numerators.append(int(num))
        denominators.append(int(den) if den else 1)
        rows += 1
    common = lcm(*denominators) if denominators else 1
    total = sum(n * (common // d) for n, d in zip(numerators, denominators))
    return {"rows": rows, "sum": Fraction(total, common),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def refine_fields(summary: dict) -> dict:
    return {"rows": summary["rows"], "sha256": summary["sha256"]}


def check_refine(item, call, text: str | None, dim: int,
                 expected: dict | None) -> tuple[list, dict | None]:
    """Problems with one refine op, and its recordable fields.

    The exact invariant: every round multiplies the total mass by the mask's
    coefficient sum t(0), so the refined values sum to t(0)^k * sum(f)."""
    if call.code != 0 or text is None:
        return [f"{item.name}: refine exited {call.code}: "
                f"{call.stderr.strip()[-200:]}"], None
    try:
        summary = refined_summary(text, dim)
    except ValueError as exc:
        return [f"{item.name}: unreadable output: {exc}"], None
    problems = []
    want = item.mask_sum ** item.rounds * item.mass_in
    if summary["sum"] != want:
        problems.append(f"mass {summary['sum']} != t(0)^k * sum f = {want}")
    fields = refine_fields(summary)
    if expected is not None and fields != expected:
        problems.append(f"output differs from the recorded one: "
                        f"{fields['rows']} rows, recorded {expected.get('rows')}")
    return [f"{item.name}: {p}" for p in problems], fields
