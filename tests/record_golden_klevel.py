"""Record the golden k-levels that tests/test_golden_klevel.py compares against.

    PYTHONPATH=src python3 tests/record_golden_klevel.py

writes tests/golden/klevel.jsonl: one line per (instance, edge, k) with
the exact LevelChain.to_json and lowest() text, for k in {1, ceil(n/2), n}.
The file was recorded once, before the k-level sweep moved to scaled
integers; do not re-run this script to make a changed output pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ckoc import cli
from ckoc.graph_core import all_pairs_distances, parse_instance
from ckoc.klevel_geometry import build_chains, kth_level

GOLDEN = Path(__file__).resolve().parent / "golden" / "klevel.jsonl"

SIZES = (3, 5, 8, 12, 16, 20, 25, 30)
DENSITIES = (0.0, 0.2, 0.5)
# unit-weight 6-cycle whose lengths 8/p have prime denominators p ~ 10^6
BIG_UNIT_CYCLE = (
    "p ckoc 6 6 3 0\n"
    "e 1 2 8/999983\ne 2 3 8/1000003\ne 3 4 8/1000033\ne 4 5 8/1000037\n"
    "e 5 6 8/999983\ne 6 1 8/1000037\n"
)


def cases():
    """(name, instance text) of every golden unit graph."""
    out = []
    for i, n in enumerate(SIZES):
        for j, density in enumerate(DENSITIES):
            seed = 2000 + 10 * i + j
            text = cli.generate_instance(seed, n, density, False, False)
            out.append((f"seed={seed} n={n} density={density}", text))
    out.append(("big-unit-cycle", BIG_UNIT_CYCLE))
    return out


def levels(text: str):
    """(edge, k, level) for every edge and every k in {1, ceil(n/2), n}."""
    g, _ = parse_instance(text)
    dm = all_pairs_distances(g)
    ks = sorted({1, math.ceil(g.n / 2), g.n})
    for edge in range(g.m):
        cs = build_chains(g, dm, edge)
        for k in ks:
            yield edge, k, kth_level(cs, k)


def record_line(name: str, edge: int, k: int, level) -> str:
    x, y = level.lowest()
    return json.dumps(
        {"case": name, "edge": edge, "k": k, "level": level.to_json(),
         "lowest": [str(x), str(y)]}
    )


def main() -> None:
    lines = [
        record_line(name, edge, k, level)
        for name, text in cases()
        for edge, k, level in levels(text)
    ]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} levels to {GOLDEN}")


if __name__ == "__main__":
    main()
