"""Output checks that share no code with the solvers.

Two checks per solve: the output must match, byte for byte, the digest
recorded in golden/ for that workload and seed; and the witness must be
valid, which is checked with this module's own parser and exact Dijkstra.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DIGEST_LEN = 8


def digest(output: str) -> str:
    """Leading hex digits of the output's SHA-256; a wrong output matches
    by chance with probability 2**-32."""
    return hashlib.sha256(output.encode()).hexdigest()[:DIGEST_LEN]


def golden_path(workload: str, smoke: bool) -> Path:
    return GOLDEN_DIR / f"{workload}{'.smoke' if smoke else ''}.json"


def load_golden(workload: str, variant: int, smoke: bool) -> list[str]:
    """Recorded output digests of one workload variant, in solve order."""
    packed = json.loads(golden_path(workload, smoke).read_text())[str(variant)]
    return [packed[i : i + DIGEST_LEN] for i in range(0, len(packed), DIGEST_LEN)]


class Witness:
    """Validates solve outputs against one instance text."""

    def __init__(self, text: str):
        self.weights: list[Fraction] = []
        self.adj: list[list[tuple[int, Fraction]]] = []
        self.edges: dict[tuple[int, int], Fraction] = {}
        for line in text.splitlines():
            parts = line.split()
            if parts[0] == "p":
                n = int(parts[2])
                self.weights = [Fraction(1)] * (n + 1)
                self.adj = [[] for _ in range(n + 1)]
            elif parts[0] == "v":
                self.weights[int(parts[1])] = Fraction(parts[2])
            elif parts[0] == "e":
                u, v, length = int(parts[1]), int(parts[2]), Fraction(parts[3])
                self.adj[u].append((v, length))
                self.adj[v].append((u, length))
                self.edges[(min(u, v), max(u, v))] = length
        self.n = len(self.adj) - 1
        self.scale = math.lcm(*(l.denominator for l in self.edges.values()))

    def _distances(self, sources: list[tuple[Fraction, int]], scale: int) -> list[int | None]:
        """Exact shortest distances from the sources, in units of 1/scale."""
        dist: list[int | None] = [None] * (self.n + 1)
        heap = [(int(d * scale), v) for d, v in sources]
        heapq.heapify(heap)
        ints = [[(u, int(l * scale)) for u, l in row] for row in self.adj]
        while heap:
            d, v = heapq.heappop(heap)
            if dist[v] is not None:
                continue
            dist[v] = d
            for u, l in ints[v]:
                if dist[u] is None:
                    heapq.heappush(heap, (d + l, u))
        return dist

    def error(self, k: int, output: str) -> str | None:
        """None when the output is a valid witness for k, else the reason."""
        try:
            sol = json.loads(output)
            lam = Fraction(sol["lambda_star"])
            (u, v), t = sol["center"]["edge"], Fraction(sol["center"]["t"])
            block = sol["subtree"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {exc!r}"
        if len(block) != k or len(set(block)) != k:
            return f"witness has {len(set(block))} distinct vertices, want {k}"
        if not all(isinstance(b, int) and 1 <= b <= self.n for b in block):
            return "witness names a vertex out of range"
        if u == v:
            # a vertex center, printed as the degenerate pair (1, 1)
            if (u, t) != (1, 0):
                return f"bad vertex center {u} t={t}"
            sources, scale, ends = [(Fraction(0), 1)], self.scale, {1}
        else:
            length = self.edges.get((u, v))
            if u > v or length is None or not 0 <= t <= length:
                return f"center ({u}, {v}) t={t} is not a point of an edge"
            scale = math.lcm(self.scale, t.denominator)
            sources, ends = [(t, u), (length - t, v)], {u, v}
        inside = set(block)
        if not inside & ends:
            return "witness does not touch the center's edge"
        seen, stack = {block[0]}, [block[0]]
        while stack:
            for w, _ in self.adj[stack.pop()]:
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != k:
            return "witness is not connected"
        dist = self._distances(sources, scale)
        radius = max(self.weights[b] * Fraction(dist[b], scale) for b in block)
        if radius != lam:
            return f"witness radius {radius} != lambda_star {lam}"
        return None
