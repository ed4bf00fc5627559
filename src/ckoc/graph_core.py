"""Graph model with exact rational arithmetic.

Instances are undirected, connected, simple graphs with positive vertex
weights and positive edge lengths.  Points live on edges, distances are
shortest-path lengths, and every value is exact: parsed weights and
lengths, radii, centers and the solvers' answers are fractions.Fraction,
and no correctness-critical path touches floats.

The parser builds one Fraction per distinct token spelling of an input
and shares it among the records that spell it that way; nothing outlives
the call.  Graph reads each value's numerator and denominator once: the
positivity checks look at numerators, and the scales and scaled integers
come from exact integer arithmetic.  All edge lengths are rescaled by the
LCM of their distinct denominators (length_scale, SL), each length being
numerator * (SL // denominator); weights likewise by weight_scale.  This
keeps shortest paths and the bulk numeric code exact and fast.
All-pairs distances come from an int64 Floyd-Warshall whenever the scaled
lengths sum below 2**62 (every partial sum then fits), and from one exact
Python-int Dijkstra per source otherwise.  Solvers whose values share
that scale compare them as ints and convert to Fraction only at their
boundary; the k-level sweep of klevel_geometry, for one, runs in units
of 1/(2 * SL).  So does edge_profile, which gives per edge the one fact
about a vertex that the distance rows do not: where its semicircular
point lies, if it has one.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

ZERO = Fraction(0)


class InstanceError(ValueError):
    """Malformed or invalid problem instance."""


class InternalError(AssertionError):
    """A structural assumption of an algorithm failed at runtime."""


class Edge(NamedTuple):
    """Undirected edge; endpoints are stored with u < v, t runs from u to v."""

    id: int
    u: int
    v: int
    length: Fraction


def _common_scale(nums: list[int], dens: list[int]) -> tuple[int, list[int]]:
    """The lcm S of the denominators, and each value nums[i]/dens[i] as
    the integer count of 1/S it holds."""
    distinct = set(dens)
    scale = math.lcm(*distinct)
    if scale == 1:
        return 1, nums
    mult = {d: scale // d for d in distinct}
    return scale, [x * mult[d] for x, d in zip(nums, dens)]


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
        wf = [w if type(w) is Fraction else Fraction(w) for w in weights]
        wnum = [w.numerator for w in wf]
        if min(wnum) <= 0:
            i = next(i for i, x in enumerate(wnum) if x <= 0)
            raise InstanceError(f"vertex {i + 1} has nonpositive weight {wf[i]}")
        self.weights: list[Fraction] = [ZERO, *wf]

        # one pass validates the edges in input order and builds the
        # adjacency lists; a pair (a, b) is kept as the int a*(n+1)+b,
        # which, unlike a tuple, the garbage collector does not track
        self.edges: list[Edge] = []
        self.adj: list[list[tuple[int, Edge]]] = [[] for _ in range(n + 1)]
        adj, stride = self.adj, n + 1
        pairs: set[int] = set()
        lnum: list[int] = []
        lden: list[int] = []
        for u, v, length in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceError(f"edge ({u},{v}) has endpoint out of range")
            if u == v:
                raise InstanceError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            key = a * stride + b
            if key in pairs:
                raise InstanceError(f"duplicate edge ({a},{b})")
            if type(length) is not Fraction:
                length = Fraction(length)
            num = length.numerator
            if num <= 0:
                raise InstanceError(f"edge ({a},{b}) has nonpositive length {length}")
            pairs.add(key)
            e = Edge(len(self.edges), a, b, length)
            self.edges.append(e)
            adj[a].append((b, e))
            adj[b].append((a, e))
            lnum.append(num)
            lden.append(length.denominator)
        self.m = len(self.edges)

        # smallest incident edge id per vertex, used to canonicalize vertex
        # points: edges joined the lists in id order
        self.min_edge: list[int | None] = [nb[0][1].id if nb else None for nb in adj]

        if n > 1:
            seen = self._reach(1)
            if seen.count(True) != n:
                missing = seen.index(False, 1)
                raise InstanceError(f"graph is disconnected (vertex {missing} unreachable)")

        self.length_scale, self.lengths_int = _common_scale(lnum, lden)
        self.weight_scale, wint = _common_scale(wnum, [w.denominator for w in wf])
        self.weights_int: list[int] = [0, *wint]
        # w_v == 1 exactly when its scaled weight equals the scale
        self.unit_weights: bool = self.weights_int.count(self.weight_scale) == n

    def _reach(self, start: int) -> list[bool]:
        """seen[v] for every vertex id: whether v is reachable from start."""
        seen = [False] * (self.n + 1)
        seen[start] = True
        stack = [start]
        while stack:
            for u, _ in self.adj[stack.pop()]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return seen

    @classmethod
    def unit(cls, n: int, edges: Iterable[tuple[int, int] | tuple[int, int, Fraction | int]]) -> "Graph":
        """Unit-weight graph; edges may omit lengths (default 1)."""
        full = [(e[0], e[1], e[2] if len(e) == 3 else 1) for e in edges]
        return cls(n, [1] * n, full)

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
    """All-pairs shortest distances, stored as integers in units of
    1/scale."""

    def __init__(self, rows: list[list[int]], scale: int):
        self.scale = scale
        self.rows = rows  # rows[u][v] for u,v in 1..n; row/col 0 unused

    def d(self, u: int, v: int) -> Fraction:
        return Fraction(self.rows[u][v], self.scale)


_INT64_SUM_LIMIT = 2**62  # two distances below this add without overflow
_INT64_LIMIT = 2**63
_BOUND_BLOCK = 1 << 14


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Shortest distances between every pair of vertices, in units of
    1/g.length_scale."""
    total = sum(g.lengths_int)
    if total >= _INT64_SUM_LIMIT:
        rows: list[list[int]] = [[0] * (g.n + 1)]
        for s in range(1, g.n + 1):
            dist = dijkstra_scaled(g, s)
            rows.append([x if x is not None else 0 for x in dist])
        return DistanceMatrix(rows, g.length_scale)
    # Floyd-Warshall from "total" off the diagonal: the graph is connected
    # and no shortest path is longer than all edges together, so that is
    # an upper bound on every distance, and each sum stays below 2**63
    n = g.n
    d = np.full((n, n), total, dtype=np.int64)
    np.fill_diagonal(d, 0)
    u = np.array([e.u - 1 for e in g.edges], dtype=np.int64)
    v = np.array([e.v - 1 for e in g.edges], dtype=np.int64)
    d[u, v] = d[v, u] = g.lengths_int
    for w in range(n):
        # row and column w do not change in round w, so d updates in place
        np.minimum(d, d[:, w, None] + d[w], out=d)
    return DistanceMatrix([[0] * (n + 1)] + [[0] + r for r in d.tolist()], g.length_scale)


def kth_bounds(g: Graph, dm: DistanceMatrix, k: int) -> list[tuple[int, int]]:
    """(bound, edge id) for every edge, ascending, in units of
    1/(g.weight_scale * dm.scale).

    An edge's bound is the k-th smallest w_v * min(d(v, a), d(v, b)) over
    the vertices v, a and b being its endpoints.  Every point of the edge
    is at least that far from v, so below the bound fewer than k vertices
    lie within the radius of any point of the edge.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} outside 1..{g.n}")
    rows, wi = dm.rows, g.weights_int
    top = max(map(max, rows)) * max(wi)
    if top >= _INT64_LIMIT:
        bounds = [
            sorted(wi[v] * min(rows[v][e.u], rows[v][e.v]) for v in g.vertices())[k - 1]
            for e in g.edges
        ]
        return sorted(zip(bounds, range(g.m)))
    # rows are symmetric, so row u holds every d(v, u); the edges go in
    # blocks of about _BOUND_BLOCK values, which caps the memory at large m
    d = np.array(rows, dtype=np.int64)[:, 1:]
    w = np.array(wi[1:], dtype=np.int64)
    u = [e.u for e in g.edges]
    v = [e.v for e in g.edges]
    bounds = np.empty(g.m, dtype=np.int64)
    step = max(1, _BOUND_BLOCK // g.n)
    for lo in range(0, g.m, step):
        lows = d[u[lo:lo + step]]
        np.minimum(lows, d[v[lo:lo + step]], out=lows)
        lows *= w
        lows.partition(k - 1, axis=1)
        bounds[lo:lo + step] = lows[:, k - 1]
    order = np.argsort(bounds, kind="stable")  # ties keep edge-id order
    return list(zip(bounds[order].tolist(), order.tolist()))


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


def edge_profile(g: Graph, dm: DistanceMatrix, edge: int) -> list[int | None]:
    """The semicircular point of every vertex on one edge, indexed by
    vertex id: its offset from r, the smaller endpoint, in units of
    1/(2 * SL), or None when the vertex has none on this edge.

    Measured from r, the distance to v is min(d_r + t, d_s + l - t), so it
    rises over the whole edge (d_s = d_r + l), falls over the whole edge
    (d_r = d_s + l), or rises to an interior apex at 2t = d_s - d_r + l,
    which is v's semicircular point.  A rising function has one at s when
    v is r or some shortest path from s to v avoids r, and a falling one
    at r likewise.  The distance rows alone cannot tell which, so two
    Dijkstra runs, each with one endpoint deleted, decide it.
    """
    e = g.edges[edge]
    r, s, l = e.u, e.v, g.lengths_int[edge]
    # shortest distances from each endpoint with the other endpoint deleted;
    # equality with the true distance means the far endpoint is avoidable
    off_s = dijkstra_scaled(g, r, s)
    off_r = dijkstra_scaled(g, s, r)
    d_r, d_s = dm.rows[r], dm.rows[s]
    out: list[int | None] = [None] * (g.n + 1)
    for v in range(1, g.n + 1):
        dr, ds = d_r[v], d_s[v]
        if ds == dr + l:
            if v == r or off_r[v] == ds:
                out[v] = 2 * l
        elif dr == ds + l:
            if v == s or off_s[v] == dr:
                out[v] = 0
        else:
            out[v] = ds - dr + l
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


def _first_unreached(us: list[int], vs: list[int]) -> int:
    """Smallest vertex id the edge records do not join to vertex 1.

    Called with fewer than n - 1 records, so vertex 1 reaches at most
    len(us) + 1 ids and one of 1..len(us) + 2 is missed; O(m) either way.
    """
    nbrs: dict[int, list[int]] = {}
    for u, v in zip(us, vs):
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    seen = {1}
    stack = [1]
    while stack:
        for u in nbrs.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    v = 1
    while v in seen:
        v += 1
    return v


def parse_instance(text: str) -> tuple[Graph, int]:
    """Parse the line-oriented instance format; raises InstanceError with line numbers.

    Each distinct rational token becomes one Fraction, shared by every
    record that spells it the same way.  A header that cannot describe a
    connected graph (n > 1 and m < n - 1) or names a k outside 1..n is
    rejected before anything of size n is built.
    """
    n = m = k = None
    weighted = False
    weights: dict[int, Fraction] = {}
    us: list[int] = []
    vs: list[int] = []
    lengths: list[Fraction] = []
    rationals: dict[str, Fraction] = {}  # token -> value, for this text only
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
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
                tok = parts[2]
                w = rationals.get(tok)
                if w is None:
                    w = rationals[tok] = parse_rational(tok)
                weights[vid] = w
            elif parts[0] == "e":
                if n is None:
                    raise InstanceError(f"line {lineno}: edge record before problem line")
                if len(parts) != 4:
                    raise InstanceError(f"line {lineno}: expected 'e u v length'")
                u, v, tok = int(parts[1]), int(parts[2]), parts[3]
                length = rationals.get(tok)
                if length is None:
                    length = rationals[tok] = parse_rational(tok)
                us.append(u)
                vs.append(v)
                lengths.append(length)
            else:
                raise InstanceError(f"line {lineno}: unknown record {parts[0]!r}")
        except ValueError as exc:
            msg = str(exc)
            if isinstance(exc, InstanceError) and msg.startswith("line "):
                raise
            raise InstanceError(f"line {lineno}: {msg}") from exc
    if n is None:
        raise InstanceError("missing problem line")
    if len(lengths) != m:
        raise InstanceError(f"expected {m} edges, found {len(lengths)}")
    if weighted:
        missing = next((v for v in range(1, n + 1) if v not in weights), None)
        if missing is not None:
            raise InstanceError(f"missing weight for vertex {missing}")
    if n > 1 and m < n - 1:
        raise InstanceError(f"graph is disconnected (vertex {_first_unreached(us, vs)} unreachable)")
    if n >= 1 and not 1 <= k <= n:
        raise InstanceError(f"k={k} out of range 1..{n}")
    wlist = [weights[v] for v in range(1, n + 1)] if weighted else [Fraction(1)] * n
    return Graph(n, wlist, zip(us, vs, lengths)), k


def emit_instance(g: Graph, k: int) -> str:
    weighted = not g.unit_weights
    lines = [f"p ckoc {g.n} {g.m} {k} {1 if weighted else 0}"]
    if weighted:
        for v in range(1, g.n + 1):
            lines.append(f"v {v} {g.weights[v]}")
    for e in g.edges:
        lines.append(f"e {e.u} {e.v} {e.length}")
    return "\n".join(lines) + "\n"
