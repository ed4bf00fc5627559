"""Self-test of the benchmark on tiny instances; exits nonzero on failure.

    python3 perfbench/selftest.py

Checks, for every workload in smoke mode: the untraced run emits every
end-to-end metric of BENCHMARK.json with its unit and no failed solve;
the traced run emits every per-layer metric with its unit; two traced
runs of one seed give identical counts; every traced layer records work
on some workload; and a deliberately corrupted output is counted as a
failed solve.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import check
import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 5


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(output: str) -> str:
    """The same output with lambda_star off by one."""
    sol = json.loads(output)
    sol["lambda_star"] = str(Fraction(sol["lambda_star"]) + 1)
    return json.dumps(sol)


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> None:
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    totals = {name: 0 for name, unit in layer.items() if unit == "count"}
    for w in workloads.NAMES:
        plain = bench(w, 0)
        got = {name: m["unit"] for name, m in plain["metrics"].items()}
        expect(got == e2e, f"{w}: end-to-end metrics {got}")
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1,
               f"{w}: untraced run failed {plain['failed']} of {plain['attempted']}")
        traced = [bench(w, 1) for _ in range(2)]
        for result in traced:
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == layer, f"{w}: per-layer metrics {got}")
            expect(result["correct"], f"{w}: traced run failed {result['failed']}")
        counts = [{n: r["metrics"][n]["value"] for n in totals} for r in traced]
        expect(counts[0] == counts[1], f"{w}: traced counts differ: {counts}")
        for name in totals:
            totals[name] += counts[0][name]
        instances = workloads.build(w, SEED, smoke=True)
        golden = check.load_golden(w, SEED % workloads.VARIANTS, smoke=True)
        _, _, outputs = run.run_pass(instances)
        expect(run.count_errors(instances, golden, [outputs]) == 0, f"{w}: in-process pass failed")
        outputs[0] = corrupt(outputs[0])
        expect(run.count_errors(instances, golden, [outputs]) >= 1,
               f"{w}: corrupted output not counted as a failed solve")
        print(f"{w}: ok", flush=True)
    idle = [name for name, total in totals.items() if total == 0]
    expect(not idle, f"counts never moved on any workload: {idle}")
    print("selftest passed")


if __name__ == "__main__":
    main()
