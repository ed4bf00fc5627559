"""Record the output digests that run.py compares every solve against.

    python3 perfbench/record_golden.py [--smoke] [--workload NAME]

The digests are the reference outputs of the commit that introduced the
benchmark.  Re-recording them after a solver change would hide exactly
the change they exist to catch; record only new workloads or variants.
Each variant's outputs must pass the witness checks before they are kept.
"""

from __future__ import annotations

import argparse
import json

import check
import run
import workloads


def record(name: str, smoke: bool) -> None:
    table = {}
    for variant in range(workloads.VARIANTS):
        instances = workloads.build(name, variant, smoke)
        _, times, outputs = run.run_pass(instances)
        digests = [check.digest(out) if out is not None else "" for out in outputs]
        if run.count_errors(instances, digests, [outputs]):
            raise SystemExit(f"{name} variant {variant}: outputs fail the witness checks")
        table[str(variant)] = "".join(digests)
        print(f"{name} variant {variant}: {len(digests)} solves in {sum(times):.2f} s", flush=True)
    path = check.golden_path(name, smoke)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=0) + "\n")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=workloads.NAMES, action="append")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    for name in args.workload or workloads.NAMES:
        record(name, args.smoke)


if __name__ == "__main__":
    main()
