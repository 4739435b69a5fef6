"""Record the verdict fields that run.py compares outputs against.

    python3 perfbench/record_golden.py

Runs one unchecked pass of every workload on the default seed and writes
golden.json: per input, the verdict fields of a certify op (sum-rule order,
verdicts, certificate powers, norms, products) or the row count and digest
of a refined CSV.  Run it only on a commit whose verdicts are trusted; the
benchmark then holds every later commit to them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    cli = run.load_program()
    golden = {}
    for workload in sorted(run.inputs.WORKLOADS):
        with run.scratch_dir() as work:
            work = Path(work)
            items = run.inputs.generate(workload, run.DEFAULT_SEED, run.ROOT, work)
            result = run.run_pass(cli, items, work, run.DEFAULT_SEED, None)
        if result["problems"]:
            print("\n".join(result["problems"]), file=sys.stderr)
            return 1
        golden.update(result["fields"])
        print(f"{workload}: {len(items)} inputs in {result['wall']:.1f} s")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
