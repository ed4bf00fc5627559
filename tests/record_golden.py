"""Record the golden solve outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python3 tests/record_golden.py

writes tests/golden/solve.jsonl: one line per (instance, solver, k) with
the exact Solution.to_json text.  The file was recorded once, before a
refactor that must keep every output byte-identical; do not re-run this
script to make a changed output pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ckoc import cli
from ckoc.graph_core import parse_instance

GOLDEN = Path(__file__).resolve().parent / "golden" / "solve.jsonl"

SIZES = (2, 3, 5, 8, 11, 14, 17, 21, 25, 30)
# weighted graphs are the slowest solves (every solver runs on every
# instance): smaller sizes keep the golden test under 30 s
WEIGHTED_GRAPH_SIZES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
# (tree_only, density): trees and graphs of two densities
SHAPES = ((True, 0.0), (False, 0.2), (False, 0.5))


def cases():
    """(seed, n, density, weighted, tree_only) of every golden instance."""
    out = []
    for i in range(len(SIZES)):
        for j, (tree_only, density) in enumerate(SHAPES):
            for weighted in (False, True):
                n = WEIGHTED_GRAPH_SIZES[i] if weighted and not tree_only else SIZES[i]
                seed = 1000 + 10 * i + 2 * j + int(weighted)
                out.append((seed, n, density, weighted, tree_only))
    return out


def solves(case):
    """The Graph of one golden instance and the (algo, k) of its solves."""
    seed, n, density, weighted, tree_only = case
    g, _ = parse_instance(cli.generate_instance(seed, n, density, weighted, tree_only))
    ks = sorted({2, math.ceil(n / 2), n})
    return g, [(algo, k) for algo in cli._solvers_for(g) for k in ks]


def record_line(case, algo: str, k: int, solution: str) -> str:
    seed, n, density, weighted, tree_only = case
    return json.dumps(
        {"seed": seed, "n": n, "density": density, "weighted": weighted,
         "tree": tree_only, "algo": algo, "k": k, "solution": solution}
    )


def main() -> None:
    lines = []
    for case in cases():
        g, todo = solves(case)
        for algo, k in todo:
            sol = cli._dispatch(g, k, algo, "auto")
            lines.append(record_line(case, algo, k, sol.to_json(g)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} solves to {GOLDEN}")


if __name__ == "__main__":
    main()
