"""Graph model with exact rational arithmetic.

Instances are undirected, connected, simple graphs with positive vertex
weights and positive edge lengths.  Points live on edges, distances are
shortest-path lengths, and every value is exact: parsed weights and
lengths, radii, centers and the solvers' answers are fractions.Fraction,
and no correctness-critical path touches floats.

Internally most distance work runs on integers: all edge lengths are
rescaled by the LCM of their denominators (length_scale, SL), which keeps
Dijkstra and the bulk numeric code exact and fast.  Solvers whose values
share that scale compare them as ints and convert to Fraction only at
their boundary; the k-level sweep of klevel_geometry, for one, runs in
units of 1/(2 * SL).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .general_feasibility import FeasibilityTester

ZERO = Fraction(0)

INCREASING = "increasing"
DECREASING = "decreasing"
PEAK = "peak"


class InstanceError(ValueError):
    """Malformed or invalid problem instance."""


class InternalError(AssertionError):
    """A structural assumption of an algorithm failed at runtime."""


@dataclass(frozen=True)
class Edge:
    """Undirected edge; endpoints are stored with u < v, t runs from u to v."""

    id: int
    u: int
    v: int
    length: Fraction


class Graph:
    """Vertex-weighted graph with vertices 1..n and edges indexed 0..m-1."""

    def __init__(
        self,
        n: int,
        weights: Sequence[Fraction | int],
        edges: Iterable[tuple[int, int, Fraction | int]],
    ):
        if n < 1:
            raise InstanceError("graph needs at least one vertex")
        if len(weights) != n:
            raise InstanceError(f"expected {n} weights, got {len(weights)}")
        self.n = n
        self.weights: list[Fraction] = [ZERO] + [Fraction(w) for w in weights]
        for i, w in enumerate(self.weights[1:], start=1):
            if w <= 0:
                raise InstanceError(f"vertex {i} has nonpositive weight {w}")

        self.edges: list[Edge] = []
        pairs: set[tuple[int, int]] = set()
        for u, v, length in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceError(f"edge ({u},{v}) has endpoint out of range")
            if u == v:
                raise InstanceError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in pairs:
                raise InstanceError(f"duplicate edge ({a},{b})")
            length = Fraction(length)
            if length <= 0:
                raise InstanceError(f"edge ({a},{b}) has nonpositive length {length}")
            pairs.add((a, b))
            self.edges.append(Edge(len(self.edges), a, b, length))
        self.m = len(self.edges)

        self.adj: list[list[tuple[int, Edge]]] = [[] for _ in range(n + 1)]
        for e in self.edges:
            self.adj[e.u].append((e.v, e))
            self.adj[e.v].append((e.u, e))

        # smallest incident edge id per vertex, used to canonicalize vertex points
        self.min_edge: list[int | None] = [None] * (n + 1)
        for e in self.edges:
            for a in (e.u, e.v):
                if self.min_edge[a] is None or e.id < self.min_edge[a]:
                    self.min_edge[a] = e.id

        if n > 1:
            seen = self._reach(1)
            if len(seen) != n:
                missing = min(v for v in range(1, n + 1) if v not in seen)
                raise InstanceError(f"graph is disconnected (vertex {missing} unreachable)")

        self.length_scale: int = math.lcm(*(e.length.denominator for e in self.edges)) if self.m else 1
        self.lengths_int: list[int] = [int(e.length * self.length_scale) for e in self.edges]
        self.weight_scale: int = math.lcm(*(w.denominator for w in self.weights[1:]))
        self.weights_int: list[int] = [0] + [int(w * self.weight_scale) for w in self.weights[1:]]

    def _reach(self, start: int) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u, _ in self.adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    @classmethod
    def unit(cls, n: int, edges: Iterable[tuple[int, int] | tuple[int, int, Fraction | int]]) -> "Graph":
        """Unit-weight graph; edges may omit lengths (default 1)."""
        full = [(e[0], e[1], e[2] if len(e) == 3 else 1) for e in edges]
        return cls(n, [1] * n, full)

    @property
    def unit_weights(self) -> bool:
        return all(w == 1 for w in self.weights[1:])

    @property
    def is_tree(self) -> bool:
        return self.m == self.n - 1

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.weights == other.weights
            and [(e.u, e.v, e.length) for e in self.edges]
            == [(e.u, e.v, e.length) for e in other.edges]
        )

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def dijkstra_scaled(g: Graph, source: int, banned: int | None = None) -> list[int | None]:
    """Distances from source in units of 1/g.length_scale; None if unreachable.

    With banned set, that vertex is deleted from the graph for this run,
    which is how descendant-of-endpoint tests are answered.
    """
    dist: list[int | None] = [None] * (g.n + 1)
    if source == banned:
        return dist
    dist[source] = 0
    pq: list[tuple[int, int]] = [(0, source)]
    lengths = g.lengths_int
    while pq:
        dv, v = heapq.heappop(pq)
        if dv != dist[v]:
            continue
        for u, e in g.adj[v]:
            if u == banned:
                continue
            nd = dv + lengths[e.id]
            du = dist[u]
            if du is None or nd < du:
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return dist


class DistanceMatrix:
    """All-pairs shortest distances, stored as scaled integers, plus the
    per-instance data derived from them: the edge profiles edge_profile
    builds and the feasibility tester of general_feasibility."""

    def __init__(self, rows: list[list[int]], scale: int):
        self.scale = scale
        self.rows = rows  # rows[u][v] for u,v in 1..n; row/col 0 unused
        self.profiles: dict[int, list[EdgeDistanceFn | None]] = {}
        self.tester: FeasibilityTester | None = None

    def d(self, u: int, v: int) -> Fraction:
        return Fraction(self.rows[u][v], self.scale)

    def d_int(self, u: int, v: int) -> int:
        return self.rows[u][v]


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    rows: list[list[int]] = [[0] * (g.n + 1)]
    for s in range(1, g.n + 1):
        dist = dijkstra_scaled(g, s)
        rows.append([x if x is not None else 0 for x in dist])
    return DistanceMatrix(rows, g.length_scale)


@dataclass(frozen=True, order=True)
class EdgePoint:
    """Point on an edge at rational offset t from the smaller endpoint."""

    edge: int
    t: Fraction


def canonical_point(g: Graph, edge: int, t: Fraction) -> EdgePoint:
    """Normalize so each point of the graph has exactly one representation.

    Interior points are unique already; a point at a vertex is pinned to
    that vertex's smallest-id incident edge.
    """
    e = g.edges[edge]
    if not (0 <= t <= e.length):
        raise ValueError(f"offset {t} outside [0, {e.length}] on edge {edge}")
    if 0 < t < e.length:
        return EdgePoint(edge, t)
    a = e.u if t == 0 else e.v
    return vertex_point(g, a)


def vertex_point(g: Graph, a: int) -> EdgePoint:
    em = g.min_edge[a]
    if em is None:  # single-vertex graph has no edges, represent as a sentinel
        return EdgePoint(-1, ZERO)
    e = g.edges[em]
    return EdgePoint(em, ZERO if e.u == a else e.length)


def vertex_of_point(g: Graph, x: EdgePoint) -> int | None:
    """Vertex id if x lies at an edge endpoint, else None."""
    if x.edge < 0:
        return 1
    e = g.edges[x.edge]
    if x.t == 0:
        return e.u
    if x.t == e.length:
        return e.v
    return None


def point_distance(g: Graph, dm: DistanceMatrix, x: EdgePoint, v: int) -> Fraction:
    """Shortest-path distance from the point x to vertex v."""
    if x.edge < 0:
        return ZERO
    e = g.edges[x.edge]
    # both routes in units of 1/(scale*q) for x.t = p/q
    p, q = x.t.numerator, x.t.denominator
    ps = p * dm.scale
    via_u = ps + q * dm.rows[e.u][v]
    via_v = q * (g.lengths_int[e.id] + dm.rows[e.v][v]) - ps
    return Fraction(min(via_u, via_v), dm.scale * q)


@dataclass(frozen=True)
class EdgeDistanceFn:
    """Restriction of the distance-to-v function to one edge.

    Measured from r (the smaller endpoint): the unweighted distance is
    min(d_r + t, d_s + length - t), so the function either rises over the
    whole edge, falls over the whole edge, or rises to an interior apex.
    semicircular_t is the offset of v's semicircular point on this edge
    when one exists: the apex for the peak case, or an endpoint when the
    endpoint qualifies (v has a shortest path to that endpoint that stays
    off the edge's far side).
    """

    vertex: int
    edge: int
    case: str
    d_r: Fraction
    d_s: Fraction
    weight: Fraction
    length: Fraction
    semicircular_t: Fraction | None

    def dist_at(self, t: Fraction) -> Fraction:
        return min(self.d_r + t, self.d_s + self.length - t)

    def value_at(self, t: Fraction) -> Fraction:
        return self.weight * self.dist_at(t)


def edge_profile(g: Graph, dm: DistanceMatrix, edge: int) -> list[EdgeDistanceFn | None]:
    """EdgeDistanceFn for every vertex on one edge, indexed by vertex id;
    built once per edge and kept in dm.profiles."""
    cached = dm.profiles.get(edge)
    if cached is not None:
        return cached
    e = g.edges[edge]
    r, s, l = e.u, e.v, e.length
    scale = g.length_scale
    l_int = g.lengths_int[edge]
    # shortest distances from each endpoint with the other endpoint deleted;
    # equality with the true distance means the far endpoint is avoidable
    off_s = dijkstra_scaled(g, r, s)
    off_r = dijkstra_scaled(g, s, r)
    out: list[EdgeDistanceFn | None] = [None] * (g.n + 1)
    for v in range(1, g.n + 1):
        dr_i = dm.d_int(v, r)
        ds_i = dm.d_int(v, s)
        dr = Fraction(dr_i, scale)
        ds = Fraction(ds_i, scale)
        if ds_i == dr_i + l_int:
            case = INCREASING
            semi = None
            # the function is still rising at s; s is a semicircular point
            # when v == r or some shortest path s->v avoids r
            if v == r or (off_r[v] is not None and off_r[v] == ds_i):
                semi = l
        elif dr_i == ds_i + l_int:
            case = DECREASING
            semi = None
            if v == s or (off_s[v] is not None and off_s[v] == dr_i):
                semi = ZERO
        else:
            case = PEAK
            semi = Fraction(ds_i - dr_i + l_int, 2 * scale)
        out[v] = EdgeDistanceFn(v, edge, case, dr, ds, g.weights[v], l, semi)
    dm.profiles[edge] = out
    return out


def point_json(g: Graph, x: EdgePoint) -> dict:
    """The JSON form of a point: its edge's endpoints and the offset."""
    if x.edge < 0:
        return {"edge": [1, 1], "t": "0"}
    e = g.edges[x.edge]
    return {"edge": [e.u, e.v], "t": str(x.t)}


@dataclass(frozen=True)
class Solution:
    lambda_star: Fraction
    center: EdgePoint
    subtree: frozenset[int]

    def to_json(self, g: Graph) -> str:
        return json.dumps(
            {
                "lambda_star": str(self.lambda_star),
                "center": point_json(g, self.center),
                "subtree": sorted(self.subtree),
            }
        )


def parse_rational(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"bad rational {tok!r}") from exc


def parse_instance(text: str) -> tuple[Graph, int]:
    """Parse the line-oriented instance format; raises InstanceError with line numbers."""
    n = m = k = None
    weighted = False
    weights: dict[int, Fraction] = {}
    edges: list[tuple[int, int, Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if n is not None:
                    raise InstanceError(f"line {lineno}: duplicate problem line")
                if len(parts) != 6 or parts[1] != "ckoc":
                    raise InstanceError(f"line {lineno}: expected 'p ckoc n m k weighted'")
                n, m, k, wflag = (int(x) for x in parts[2:6])
                if wflag not in (0, 1):
                    raise InstanceError(f"line {lineno}: weighted flag must be 0 or 1")
                weighted = wflag == 1
            elif parts[0] == "v":
                if n is None:
                    raise InstanceError(f"line {lineno}: vertex record before problem line")
                if not weighted:
                    raise InstanceError(f"line {lineno}: vertex record in unweighted instance")
                if len(parts) != 3:
                    raise InstanceError(f"line {lineno}: expected 'v id weight'")
                vid = int(parts[1])
                if not 1 <= vid <= n:
                    raise InstanceError(f"line {lineno}: vertex id {vid} out of range")
                if vid in weights:
                    raise InstanceError(f"line {lineno}: duplicate weight for vertex {vid}")
                weights[vid] = parse_rational(parts[2])
            elif parts[0] == "e":
                if n is None:
                    raise InstanceError(f"line {lineno}: edge record before problem line")
                if len(parts) != 4:
                    raise InstanceError(f"line {lineno}: expected 'e u v length'")
                edges.append((int(parts[1]), int(parts[2]), parse_rational(parts[3])))
            else:
                raise InstanceError(f"line {lineno}: unknown record {parts[0]!r}")
        except ValueError as exc:
            msg = str(exc)
            if isinstance(exc, InstanceError) and msg.startswith("line "):
                raise
            raise InstanceError(f"line {lineno}: {msg}") from exc
    if n is None:
        raise InstanceError("missing problem line")
    if len(edges) != m:
        raise InstanceError(f"expected {m} edges, found {len(edges)}")
    if weighted:
        missing = [v for v in range(1, n + 1) if v not in weights]
        if missing:
            raise InstanceError(f"missing weight for vertex {missing[0]}")
        wlist = [weights[v] for v in range(1, n + 1)]
    else:
        wlist = [Fraction(1)] * n
    g = Graph(n, wlist, edges)
    if not 1 <= k <= n:
        raise InstanceError(f"k={k} out of range 1..{n}")
    return g, k


def emit_instance(g: Graph, k: int) -> str:
    weighted = not g.unit_weights
    lines = [f"p ckoc {g.n} {g.m} {k} {1 if weighted else 0}"]
    if weighted:
        for v in range(1, g.n + 1):
            lines.append(f"v {v} {g.weights[v]}")
    for e in g.edges:
        lines.append(f"e {e.u} {e.v} {e.length}")
    return "\n".join(lines) + "\n"
