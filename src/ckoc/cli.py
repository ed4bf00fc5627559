"""Command line front end.

Commands: solve, feasible, verify, gen, bench, klevel.  Instances use the
line format of graph_core; rationals print as "p/q".  Exit codes: 0
success, 1 bad flags or bad instance, 2 solver/oracle divergence, 3
internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from fractions import Fraction

from .arrangement_search import solve_weighted_graph
from .general_feasibility import is_feasible_graph
from .graph_core import (
    Graph,
    InstanceError,
    InternalError,
    all_pairs_distances,
    emit_instance,
    parse_instance,
    parse_rational,
    point_json,
)
from .klevel_geometry import build_chains, kth_level, solve_unweighted_graph
from .oracle import brute_lambda
from .tree_solver import is_feasible_tree, solve_unweighted_tree, solve_weighted_tree

_ALGOS = ("auto", "weighted-graph", "unweighted-graph", "weighted-tree", "unweighted-tree")
_DENOMS = (1, 1, 2, 4, 8, 16)
_SEARCHES = ("explicit", "counting", "auto")
_SEARCH_HELP = (
    "optimal-radius search of the weighted solvers: on weighted trees explicit "
    "bisects the sorted pair radii w_u*w_v*d(u,v)/(w_u+w_v) and counting narrows "
    "the centroid lines' arrangement; on weighted graphs explicit enumerates every "
    "crossing of the candidate lines and counting narrows their arrangement; auto "
    "picks by size (default: %(default)s)"
)


class _Parser(argparse.ArgumentParser):
    # reserve exit code 2 for verify divergence
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc.strerror}") from exc


def _pick_algo(g: Graph, algo: str) -> str:
    if algo != "auto":
        return algo
    if g.is_tree:
        return "unweighted-tree" if g.unit_weights else "weighted-tree"
    return "unweighted-graph" if g.unit_weights else "weighted-graph"


def _dispatch(g: Graph, k: int, algo: str, search: str):
    if algo == "weighted-graph":
        return solve_weighted_graph(g, k, search=search)
    if algo == "unweighted-graph":
        return solve_unweighted_graph(g, k)
    if algo == "weighted-tree":
        return solve_weighted_tree(g, k, search=search)
    return solve_unweighted_tree(g, k)


def generate_instance(
    seed: int, n: int, density: float, weighted: bool, tree_only: bool
) -> str:
    """Deterministic random instance: spanning tree plus a density-chosen
    share of the remaining pairs, small rational lengths and weights."""
    if n < 2:
        raise InstanceError("generation needs n >= 2")
    if not 0.0 <= density <= 1.0:
        raise InstanceError("density must lie in [0, 1]")
    rng = random.Random(seed)

    def rat() -> Fraction:
        return Fraction(rng.randint(1, 8), rng.choice(_DENOMS))

    pairs = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    if not tree_only:
        used = {(min(u, v), max(u, v)) for u, v in pairs}
        pool = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u, v) not in used
        ]
        extra = round(density * len(pool))
        pairs += sorted(rng.sample(pool, extra))
    edges = [(u, v, rat()) for u, v in pairs]
    weights = [rat() for _ in range(n)] if weighted else [Fraction(1)] * n
    k = rng.randint(1, n)
    return emit_instance(Graph(n, weights, edges), k)


def _peak_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _cmd_solve(args) -> int:
    text = _read_text(args.instance)
    started = time.perf_counter()
    g, k_file = parse_instance(text)
    parsed = time.perf_counter()
    parse_peak_mb = _peak_mb()
    k = args.k if args.k is not None else k_file
    algo = _pick_algo(g, args.algo)
    sol = _dispatch(g, k, algo, args.search)
    solved = time.perf_counter()
    print(sol.to_json(g))
    if args.timing:
        print(
            f"parsed in {parsed - started:.3f} s, solved in {solved - parsed:.3f} s ({algo}), "
            f"peak memory {parse_peak_mb:.1f} MB after the parse, {_peak_mb():.1f} MB in all",
            file=sys.stderr,
        )
    return 0


def _cmd_feasible(args) -> int:
    g, k_file = parse_instance(_read_text(args.instance))
    k = args.k if args.k is not None else k_file
    lam = parse_rational(args.lam)
    if g.is_tree:
        res = is_feasible_tree(g, k, lam)
    else:
        res = is_feasible_graph(g, all_pairs_distances(g), k, lam)
    payload = {"feasible": res.feasible, "witness": None}
    if res.witness is not None:
        x, block = res.witness
        payload["witness"] = {
            "center": point_json(g, x),
            "subtree": sorted(block),
        }
    print(json.dumps(payload))
    return 0


def _cmd_gen(args) -> int:
    text = generate_instance(args.seed, args.n, args.density, args.weighted, args.tree)
    sys.stdout.write(text)
    return 0


def _solvers_for(g: Graph) -> list[str]:
    out = ["weighted-graph"]
    if g.unit_weights:
        out.append("unweighted-graph")
    if g.is_tree:
        out.append("weighted-tree")
        if g.unit_weights:
            out.append("unweighted-tree")
    return out


def _cmd_verify(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.n_max < 2:
        raise ValueError(f"--n-max must be at least 2, got {args.n_max}")
    rng = random.Random(args.seed)
    solves = 0
    for case in range(args.count):
        n = rng.randint(2, args.n_max)
        tree_only = args.tree or rng.random() < 0.5
        weighted = rng.random() < 0.5
        density = 0.0 if tree_only else rng.choice((0.0, 0.2, 0.5))
        text = generate_instance(rng.randrange(1 << 30), n, density, weighted, tree_only)
        g, _k = parse_instance(text)
        for k in range(1, g.n + 1):
            want = brute_lambda(g, k)
            for algo in _solvers_for(g):
                got = _dispatch(g, k, algo, "auto").lambda_star
                solves += 1
                if got != want:
                    sys.stderr.write(
                        f"divergence on case {case} algo {algo} k {k}: "
                        f"solver {got} oracle {want}\ninstance:\n{emit_instance(g, k)}"
                    )
                    return 2
    print(f"verified {args.count} instances ({solves} solves)")
    return 0


def _sizes(text: str) -> list[int]:
    """The --sizes list, checked whole before bench prints anything."""
    try:
        sizes = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None
    if min(sizes) < 2:
        raise argparse.ArgumentTypeError(f"every size must be at least 2, got {min(sizes)}")
    return sizes


def _density(text: str) -> float:
    """The --density value, checked before anything is generated."""
    try:
        density = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= density <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return density


def _cmd_bench(args) -> int:
    if args.k is not None and not 1 <= args.k <= min(args.sizes):
        raise ValueError(f"--k {args.k} outside 1..{min(args.sizes)}, the smallest size")
    rng = random.Random(args.seed)
    print("n,m,k,algo,seconds")
    for n in args.sizes:
        text = generate_instance(
            rng.randrange(1 << 30), n, args.density, args.weighted, args.tree
        )
        g, k_file = parse_instance(text)
        k = args.k if args.k is not None else k_file
        algo = _pick_algo(g, args.algo)
        started = time.perf_counter()
        _dispatch(g, k, algo, args.search)
        elapsed = time.perf_counter() - started
        print(f"{g.n},{g.m},{k},{algo},{elapsed:.3f}")
    return 0


def _cmd_klevel(args) -> int:
    g, k_file = parse_instance(_read_text(args.instance))
    k = args.k if args.k is not None else k_file
    if not g.m:
        raise InstanceError("the instance has no edges")
    if not 0 <= args.edge < g.m:
        raise InstanceError(f"edge {args.edge} out of range 0..{g.m - 1}")
    dm = all_pairs_distances(g)
    cs = build_chains(g, dm, args.edge)
    level = kth_level(cs, k)
    x, y = level.lowest()
    ends = [g.eu[args.edge], g.ev[args.edge]]
    if args.dump:
        chains = [
            {
                "vertex": c.vertex,
                "left": str(c.left),
                "right": str(c.right),
                "shape": c.shape,
                "apex": None if c.apex is None else str(c.apex),
            }
            for c in cs.chains
        ]
        payload = {
            "edge": ends,
            "length": str(cs.length),
            "k": k,
            "chains": chains,
            "level": level.to_json(),
            "lowest": [str(x), str(y)],
        }
    else:
        payload = {
            "edge": ends,
            "k": k,
            "chains": len(cs.ids),
            "lowest": [str(x), str(y)],
        }
    print(json.dumps(payload))
    return 0


def _build_parser() -> _Parser:
    top = _Parser(prog="ckoc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and print the solution JSON")
    p.add_argument("instance", help="instance path, or - for stdin")
    p.add_argument("--algo", choices=_ALGOS, default="auto")
    p.add_argument("--search", choices=_SEARCHES, default="auto", help=_SEARCH_HELP)
    p.add_argument("--k", type=int, default=None, help="override the instance's k")
    p.add_argument(
        "--timing",
        action="store_true",
        help="report parse and solve wall time, and the peak memory after the parse "
        "and at the end, on stderr",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("feasible", help="test one radius and print the witness")
    p.add_argument("instance")
    p.add_argument("--lambda", dest="lam", required=True, help="radius as p/q")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("verify", help="cross-check solvers against the oracle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--tree", action="store_true", help="restrict to trees")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a deterministic random instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=_density, default=0.3, help="in [0, 1]")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--tree", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time solves over generated instances, CSV out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--sizes", type=_sizes, default="20,50,100", help="comma list of n values, each >= 2"
    )
    p.add_argument("--density", type=_density, default=0.3, help="in [0, 1]")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--tree", action="store_true")
    p.add_argument("--algo", choices=_ALGOS, default="auto")
    p.add_argument("--search", choices=_SEARCHES, default="auto", help=_SEARCH_HELP)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("klevel", help="dump one edge's chain set and k-th level")
    p.add_argument("instance")
    p.add_argument("--edge", type=int, default=0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--dump", action="store_true", help="full chains and level JSON")
    p.set_defaults(func=_cmd_klevel)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
