"""A/B timing of two ckoc source trees on one perfbench workload.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload tree-unit --seed 37 --pairs 10

PARENT_SRC and CHANGE_SRC are directories that hold a `ckoc` package, such
as the `src` of a `git archive` of the parent commit and this checkout's
`src`.  Each run is a fresh subprocess of this script that imports ckoc
from one of them, builds the workload's instances with this checkout's
perfbench/workloads.py, parses them and solves every k once through the
solver `ckoc solve --algo auto --search auto` picks.  It reports the CPU
time of its solves (parsing excluded), its peak resident memory, its
minor page faults (`ru_minflt`, the whole process) and a digest of every
solution's JSON.  Each pair runs both sides, the side
that goes first alternating from pair to pair.

The report gives, per side, the solve CPU seconds as median and
quartiles, the pairs in which that side took less CPU time, the median
peak RSS and the median count of minor page faults; then the same CPU figures per solver family (the solver name
`ckoc solve --algo auto` picks), which sum to the total in each run, as a
workload such as sweep-small mixes all four; then one JSON line with
every figure.  The exit status is 1 when any solution's JSON differs
between the sides.  CPU time of a fresh process resolves differences
that perfbench's wall-clock medians cannot; it does not replace
perfbench's bounds.  --smoke takes the workload's small instances, for a
quick check that both sides run and agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child(src: str, workload: str, seed: int, smoke: bool) -> dict:
    """Solve the workload once with ckoc imported from src."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, src)
    import workloads

    from ckoc import cli, graph_core

    where = Path(cli.__file__).resolve()
    if not where.is_relative_to(Path(src).resolve()):
        raise SystemExit(f"ckoc imported from {where}, not from {src}")
    cpu: dict[str, float] = {}
    digests = []
    for inst in workloads.build(workload, seed, smoke):
        g, _ = graph_core.parse_instance(inst.text)
        for k in inst.ks:
            started = time.process_time()
            algo = cli._pick_algo(g, "auto")
            sol = cli._dispatch(g, k, algo, "auto")
            cpu[algo] = cpu.get(algo, 0.0) + time.process_time() - started
            digests.append(hashlib.sha256(sol.to_json(g).encode()).hexdigest())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": sum(cpu.values()),
        "family_cpu_s": cpu,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "minflt": usage.ru_minflt,
        "digests": digests,
    }


def run_side(src: str, args) -> dict:
    cmd = [sys.executable, __file__, src, src, "--child", "--workload", args.workload]
    cmd += ["--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"side {src} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="source tree A (holds the ckoc package)")
    ap.add_argument("b", help="source tree B")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--smoke", action="store_true", help="the workload's small instances")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.a, args.workload, args.seed, args.smoke)))
        return 0
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    runs = {"a": [], "b": []}
    for i in range(args.pairs):
        for side in ("ab" if i % 2 == 0 else "ba"):
            runs[side].append(run_side(getattr(args, side), args))
    differ = [
        i
        for i, (ra, rb) in enumerate(zip(runs["a"], runs["b"]))
        if ra["digests"] != rb["digests"]
    ]
    cpu = {s: [r["cpu_s"] for r in runs[s]] for s in runs}
    summary = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, solve CPU seconds")
    for s, other in (("a", "b"), ("b", "a")):
        q1, med, q3 = quartiles(cpu[s])
        wins = sum(x < y for x, y in zip(cpu[s], cpu[other]))
        rss = statistics.median(r["peak_rss_mb"] for r in runs[s])
        minflt = statistics.median(r["minflt"] for r in runs[s])
        src = getattr(args, s)
        print(
            f"{s.upper()} {src}: median {med:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
            f"less CPU in {wins}/{args.pairs} pairs, peak RSS median {rss:.1f} MB, "
            f"minor faults median {minflt:.0f}"
        )
        summary[s] = {
            "src": src,
            "cpu_s": [q1, med, q3],
            "wins": wins,
            "peak_rss_mb": rss,
            "minflt": minflt,
        }
    summary["b_over_a"] = statistics.median(cpu["b"]) / statistics.median(cpu["a"])
    print(f"B/A median CPU {summary['b_over_a']:.3f}")
    print("per solver family, median solve CPU seconds (quartiles):")
    summary["family_b_over_a"] = {}
    for fam in sorted(runs["a"][0]["family_cpu_s"]):
        fig = {}
        for s in runs:
            fig[s] = quartiles([r["family_cpu_s"][fam] for r in runs[s]])
            summary[s].setdefault("family_cpu_s", {})[fam] = list(fig[s])
        ratio = summary["family_b_over_a"][fam] = fig["b"][1] / fig["a"][1]
        print(
            f"  {fam}: A {fig['a'][1]:.3f} ({fig['a'][0]:.3f}-{fig['a'][2]:.3f}), "
            f"B {fig['b'][1]:.3f} ({fig['b'][0]:.3f}-{fig['b'][2]:.3f}), B/A {ratio:.3f}"
        )
    summary["solves"] = len(runs["a"][0]["digests"])
    summary["differing_pairs"] = differ
    if differ:
        print(f"solution JSON differs between the sides in pairs {differ}")
    else:
        print(f"solution JSON identical in every pair ({summary['solves']} solves per run)")
    print(json.dumps(summary))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
