"""ckoc solve benchmark: seeded workloads, checked outputs, one JSON result.

One workload, as BENCHMARK.json runs it from the repo root:

    python3 perfbench/run.py --workload tree-unit --seed 3 --seconds 10 --trace 0

Every workload, each in a fresh subprocess, one after another, as a table:

    python3 perfbench/run.py --seed 3 [--trace 1]

With --trace 0 the run parses and solves the workload's instances in
passes until --seconds have gone by (at least one pass), each pass on
freshly parsed Graphs so no cache survives from the pass before, and
reports the end-to-end metrics: the median over passes of the solve
time, the median parse time of the instance set (timed between solves
all through the run), the 99th percentile of per-solve latency and peak
resident memory.
With --trace 1 it makes an untraced warm-up pass, a traced pass and an
untraced pass, and reports the per-layer metrics of the traced pass (see
spans.py), plus the tracing overhead (traced minus untraced solve time);
the spans go to .perfbench/ at the repo root.

Solves go through the solver `ckoc solve --algo auto --search auto`
picks, and through Solution.to_json.  Outside the timed region every
output is compared with its recorded digest and its witness is checked
by check.py; each failing or raising solve counts in "failed".  The last
line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it records the run context.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "ckoc").is_dir():
    sys.exit(f"no ckoc sources under {ROOT / 'src'}: run from a checkout of the repo")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ckoc import cli, graph_core  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from spans import UNITS as LAYER_UNITS, Tracer  # noqa: E402

E2E_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    # a tail only on sweep-small's 1944 solves; on a workload of a few
    # solves it is the slowest of them
    "solve_ms_p99": "ms",
}
# set-up (parsing the whole instance set) is timed between instances once
# this many seconds have gone by since the last sample, and at least
# SETUP_REPS times in a run: its median is taken over the same stretch of
# the run as the solves, and a burst of load in one sample does not count
SETUP_EVERY = 1.0
SETUP_REPS = 3


def solve(g, k: int):
    """The solve `ckoc solve --algo auto --search auto` runs, through the
    CLI's own routing."""
    return cli._dispatch(g, k, cli._pick_algo(g, "auto"), "auto")


def time_setup(instances) -> float:
    """Seconds to parse the whole instance set once."""
    started = time.perf_counter()
    for inst in instances:
        graph_core.parse_instance(inst.text)
    return time.perf_counter() - started


def run_pass(instances, tracer=None, setup_every=None):
    """Parse and solve every instance once.  Returns (set-up samples,
    per-solve seconds, per-solve output or None where the solve raised);
    set-up is sampled before the first instance and then every
    `setup_every` seconds, or never if that is None."""
    gc.collect()
    setups, times, outputs = [], [], []
    next_setup = time.perf_counter()
    for inst in instances:
        if setup_every is not None and time.perf_counter() >= next_setup:
            setups.append(time_setup(instances))
            next_setup = time.perf_counter() + setup_every
        if tracer is not None:
            tracer.solve_id = None
        g, _ = graph_core.parse_instance(inst.text)
        for k in inst.ks:
            if tracer is not None:
                tracer.solve_id = len(outputs)
            started = time.perf_counter()
            try:
                out = solve(g, k).to_json(g)
            except Exception as exc:  # a raising solve is a counted failure
                print(f"solve {len(outputs)} (k={k}) raised {exc!r}", file=sys.stderr)
                out = None
            times.append(time.perf_counter() - started)
            outputs.append(out)
        del g
    return setups, times, outputs


def count_errors(instances, golden: list[str], passes: list[list]) -> int:
    """Failed solves over all passes: raised, differ from the recorded
    digest, or (checked once per distinct output) carry a bad witness."""
    solves = [(inst, k) for inst in instances for k in inst.ks]
    if len(golden) != len(solves):
        raise SystemExit(f"golden has {len(golden)} digests for {len(solves)} solves")
    bad_witness: dict[tuple[int, str], str | None] = {}
    witnesses: dict[int, check.Witness] = {}
    errors = 0
    for outputs in passes:
        for i, ((inst, k), out, want) in enumerate(zip(solves, outputs, golden)):
            if out is None:
                errors += 1
                continue
            if (i, out) not in bad_witness:
                w = witnesses.get(id(inst))
                if w is None:
                    w = witnesses[id(inst)] = check.Witness(inst.text)
                bad_witness[(i, out)] = w.error(k, out)
            reason = bad_witness[(i, out)]
            if check.digest(out) != want:
                reason = reason or "output differs from the recorded digest"
            if reason:
                print(f"solve {i} (k={k}): {reason}", file=sys.stderr)
                errors += 1
    return errors


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the largest value below 100 samples."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def context() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_workload(args) -> dict:
    instances = workloads.build(args.workload, args.seed, args.smoke)
    golden = check.load_golden(args.workload, args.seed % workloads.VARIANTS, args.smoke)
    if args.trace:
        # the untraced pass the overhead is measured against comes after a
        # warm-up pass, which takes first-use costs (allocator growth, page
        # faults) out of it
        _, _, warm_out = run_pass(instances)
        tracer = Tracer()
        tracer.install()
        try:
            _, traced_times, traced_out = run_pass(instances, tracer)
        finally:
            tracer.uninstall()
        _, plain_times, plain_out = run_pass(instances)
        passes = [warm_out, traced_out, plain_out]
        metrics = tracer.metrics()
        metrics["trace_overhead_s"] = sum(traced_times) - sum(plain_times)
        units = LAYER_UNITS
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"context": context(), "spans": tracer.spans}))
    else:
        setups, pass_times, passes = [], [], []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            samples, times, outputs = run_pass(instances, setup_every=SETUP_EVERY)
            setups += samples
            pass_times.append(times)
            passes.append(outputs)
        while len(setups) < SETUP_REPS:
            setups.append(time_setup(instances))
        latencies = sorted(t for times in pass_times for t in times)
        metrics = {
            "solve_s": statistics.median(sum(times) for times in pass_times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "solve_ms_p99": 1000 * percentile(latencies, 0.99),
        }
        units = E2E_UNITS
    attempted = sum(len(outputs) for outputs in passes)
    failed = count_errors(instances, golden, passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh subprocess, then one table of metrics."""
    rows, ok = [], True
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + ["--smoke"] * args.smoke
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, "solve_errors", result["failed"], f"of {result['attempted']}"))
        rows += [(name, m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
    print(json.dumps({"context": context()}))
    for name, metric, value, unit in rows:
        print(f"{name:15} {metric:44} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=workloads.NAMES,
                   help="run one workload in this process; default: all, one subprocess each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny instances, for the self-test")
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args)
    print(json.dumps({"context": context()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
