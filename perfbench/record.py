"""Record the output digests that ``checks.py`` compares against.

Runs every operation that any seed of any workload can produce (CLI seed 0)
once, checks the invariants, and writes ``expected.json``.  Run it from the
root of a checkout only when a change is meant to alter the program's
output, and say so in that change::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    operations = {}
    info = run.stamp()
    for workload in workloads.WORKLOADS:
        ops = workloads.all_operations(workload)
        report = run.run_pass(ops, None, info)
        for op, res in zip(ops, report["ops"]):
            if res["problems"]:
                print(f"{op['key']}: {'; '.join(res['problems'])}", file=sys.stderr)
                return 1
            operations[op["key"]] = {"stdout": res["stdout_sha256"]}
            if res["csv_sha256"] is not None:
                operations[op["key"]]["csv"] = res["csv_sha256"]
        print(f"{workload}: {len(ops)} operations recorded")
    info["numpy"] = report["numpy"]
    checks.EXPECTED_FILE.write_text(
        json.dumps({"stamp": info, "operations": operations}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
