"""Write perfbench/golden.json: the exit code and stdout sha256 of every op
any seed can produce, made once at a known-good commit.

Run from the repository root (it needs ``src/pferrer``):

    python3 perfbench/make_golden.py

It remakes every workload's records from scratch, so all of them come from
one commit.  For macaulay-hvectors it also records each candidate's dual
generator count, which places the candidate in a size band (see
workloads.py).  Every candidate op must exit 0; the script fails otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from worker import run_op
    from pferrer import cli

    golden = {"records": {}, "dual_generators": {}}
    bad = 0
    for workload in workloads.WORKLOADS:
        records = {}
        started = time.perf_counter()
        for op in workloads.all_pool_ops(workload):
            code, out, elapsed = run_op(cli.main, *op)
            key = workloads.op_key(op)
            records[key] = [code, hashlib.sha256(out).hexdigest()]
            if code != 0:
                bad += 1
                print(f"{workload}: exit {code} for {op[0]}", file=sys.stderr)
            if workload == workloads.MACAULAY_HVECTORS and code == 0:
                golden["dual_generators"][key] = len(json.loads(out)["dual_generators"])
            print(f"{workload}\t{elapsed:.4f}\t{key}\t{json.dumps(op[0])}", file=sys.stderr)
        golden["records"][workload] = records
        print(
            f"{workload}: {len(records)} ops in {time.perf_counter() - started:.1f} s",
            file=sys.stderr,
        )
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
