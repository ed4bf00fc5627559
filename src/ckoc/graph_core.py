"""Graph model with exact rational arithmetic.

Instances are undirected, connected, simple graphs with positive vertex
weights and positive edge lengths.  Points live on edges, distances are
shortest-path lengths, and every value is exact: parsed weights and
lengths, radii, centers and the solvers' answers are exact rationals,
and no correctness-critical path touches floats.

A Graph holds its edges as integer columns and no object per edge: edge
i joins eu[i] < ev[i], its length is lengths_int[i] / length_scale, and
adj[v] lists (neighbour, edge id) pairs.  All edge lengths share one
scale, SL = length_scale, the LCM of their distinct reduced denominators,
each length being numerator * (SL // denominator); weights likewise
share weight_scale, and weights[v] keeps each weight as a Fraction too.
A Fraction length is built only at the boundary, by Graph.length(i), for
the points, JSON and text a caller reads.  The parser builds one
Fraction per distinct token spelling of an input, shared among the
records that spell it that way, and maps each edge record straight to
its scaled integer once every length token is known; nothing outlives
the call.  Graph(n, weights, edges) and parse_instance hand their
columns to one validation pass, so both report the same first fault.
Integer lengths keep shortest paths and the bulk numeric code exact and
fast.  All-pairs distances come from an int64 Floyd-Warshall whenever
the scaled lengths sum below 2**62 (every partial sum then fits), and
from one exact Python-int Dijkstra per source otherwise.  Solvers whose
values share that scale compare them as ints and convert to Fraction
only at their boundary; the k-level sweep of klevel_geometry, for one,
runs in units of 1/(2 * SL).  So does edge_profile, which gives per edge
the one fact about a vertex that the distance rows do not: where its
semicircular point lies, if it has one.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

ZERO = Fraction(0)


class InstanceError(ValueError):
    """Malformed or invalid problem instance."""


class InternalError(AssertionError):
    """A structural assumption of an algorithm failed at runtime."""


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
    """Vertex-weighted graph with vertices 1..n and edges indexed 0..m-1,
    held as integer columns.

    Edge i joins eu[i] < ev[i] and has length lengths_int[i] /
    length_scale; length(i) gives it as a Fraction.  adj[v] lists the
    (neighbour, edge id) pairs of v in edge-id order, and min_edge[v] is
    the first of those ids (None for an isolated vertex).  weights[v] is
    w_v as a Fraction (weights[0] unused), and weights_int[v] /
    weight_scale is the same value.
    """

    def __init__(
        self,
        n: int,
        weights: Sequence[Fraction | int],
        edges: Iterable[tuple[int, int, Fraction | int]],
    ):
        us: list[int] = []
        vs: list[int] = []
        lengths: list[Fraction] = []
        for u, v, length in edges:
            us.append(u)
            vs.append(v)
            lengths.append(length if type(length) is Fraction else Fraction(length))
        scale, lint = _common_scale([x.numerator for x in lengths], [x.denominator for x in lengths])
        self._build(n, weights, us, vs, lint, scale)

    @classmethod
    def _from_columns(
        cls, n: int, weights: Sequence[Fraction], us: list[int], vs: list[int],
        lengths_int: list[int], length_scale: int,
    ) -> "Graph":
        """The graph of edge records (us[i], vs[i]) of length lengths_int[i]
        / length_scale, validated as the constructor validates."""
        g = cls.__new__(cls)
        g._build(n, weights, us, vs, lengths_int, length_scale)
        return g

    def _build(
        self, n: int, weights: Sequence[Fraction | int], us: list[int], vs: list[int],
        lengths_int: list[int], length_scale: int,
    ) -> None:
        """Validate and store: the weights first, then each edge record in
        input order (endpoints in range, no self-loop, no duplicate,
        positive length), then connectivity; the first fault raises."""
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
        self.weight_scale, wint = _common_scale(wnum, [w.denominator for w in wf])
        self.weights_int: list[int] = [0, *wint]
        # w_v == 1 exactly when its scaled weight equals the scale
        self.unit_weights: bool = self.weights_int.count(self.weight_scale) == n

        # one pass validates the records in input order and builds the
        # columns; a pair (a, b) is kept as the int a*(n+1)+b, which,
        # unlike a tuple, the garbage collector does not track.  Every
        # column refers to one int object per vertex id (ids), not to one
        # per record, which saves 28 bytes per endpoint past id 256
        self.eu: list[int] = []
        self.ev: list[int] = []
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        eu, ev, adj, stride = self.eu, self.ev, self.adj, n + 1
        ids = list(range(stride))
        pairs: set[int] = set()
        for i, u, v, l in zip(range(len(us)), us, vs, lengths_int):
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceError(f"edge ({u},{v}) has endpoint out of range")
            if u == v:
                raise InstanceError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            key = u * stride + v
            if key in pairs:
                raise InstanceError(f"duplicate edge ({u},{v})")
            if l <= 0:
                raise InstanceError(
                    f"edge ({u},{v}) has nonpositive length {Fraction(l, length_scale)}"
                )
            pairs.add(key)
            u, v = ids[u], ids[v]
            eu.append(u)
            ev.append(v)
            adj[u].append((v, i))
            adj[v].append((u, i))
        self.m = len(eu)
        self.length_scale = length_scale
        self.lengths_int = lengths_int

        # smallest incident edge id per vertex, used to canonicalize vertex
        # points: edges joined the lists in id order
        self.min_edge: list[int | None] = [nb[0][1] if nb else None for nb in adj]

        if n > 1:
            seen = self._reach(1)
            if seen.count(True) != n:
                missing = seen.index(False, 1)
                raise InstanceError(f"graph is disconnected (vertex {missing} unreachable)")

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

    def length(self, i: int) -> Fraction:
        """The length of edge i."""
        return Fraction(self.lengths_int[i], self.length_scale)

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
        # the scale is the lcm of the reduced denominators, so equal
        # lengths give equal scales and scaled integers
        return (
            self.n == other.n
            and self.weights == other.weights
            and self.eu == other.eu
            and self.ev == other.ev
            and self.length_scale == other.length_scale
            and self.lengths_int == other.lengths_int
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
        for u, eid in g.adj[v]:
            if u == banned:
                continue
            nd = dv + lengths[eid]
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
    u = np.array(g.eu, dtype=np.int64) - 1
    v = np.array(g.ev, dtype=np.int64) - 1
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
        raise ValueError(f"k={k} out of range for n={g.n}")
    rows, wi = dm.rows, g.weights_int
    top = max(map(max, rows)) * max(wi)
    if top >= _INT64_LIMIT:
        bounds = [
            sorted(wi[v] * min(rows[v][a], rows[v][b]) for v in g.vertices())[k - 1]
            for a, b in zip(g.eu, g.ev)
        ]
        return sorted(zip(bounds, range(g.m)))
    # rows are symmetric, so row u holds every d(v, u); the edges go in
    # blocks of about _BOUND_BLOCK values, which caps the memory at large m
    d = np.array(rows, dtype=np.int64)[:, 1:]
    w = np.array(wi[1:], dtype=np.int64)
    u, v = g.eu, g.ev
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
    # t and the length, in units of 1/(q * SL) for t = p/q
    at, end = t.numerator * g.length_scale, g.lengths_int[edge] * t.denominator
    if not (0 <= at <= end):
        raise ValueError(f"offset {t} outside [0, {g.length(edge)}] on edge {edge}")
    if 0 < at < end:
        return EdgePoint(edge, t)
    a = g.eu[edge] if at == 0 else g.ev[edge]
    return vertex_point(g, a)


def vertex_point(g: Graph, a: int) -> EdgePoint:
    em = g.min_edge[a]
    if em is None:  # single-vertex graph has no edges, represent as a sentinel
        return EdgePoint(-1, ZERO)
    return EdgePoint(em, ZERO if g.eu[em] == a else g.length(em))


def vertex_of_point(g: Graph, x: EdgePoint) -> int | None:
    """Vertex id if x lies at an edge endpoint, else None."""
    if x.edge < 0:
        return 1
    if x.t == 0:
        return g.eu[x.edge]
    if x.t.numerator * g.length_scale == g.lengths_int[x.edge] * x.t.denominator:
        return g.ev[x.edge]
    return None


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
    r, s, l = g.eu[edge], g.ev[edge], g.lengths_int[edge]
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
    return {"edge": [g.eu[x.edge], g.ev[x.edge]], "t": str(x.t)}


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
    weight that spells it the same way; an edge record keeps only the
    index of its token, which becomes its scaled integer length once
    every length token, and so the length scale, is known.  A header
    that cannot describe a connected graph (n > 1 and m < n - 1) or
    names a k outside 1..n is rejected before anything of size n is
    built.
    """
    n = m = k = None
    weighted = False
    weights: dict[int, Fraction] = {}
    us: list[int] = []
    vs: list[int] = []
    lens: list[int] = []  # per edge record, the index of its length token
    spellings: dict[str, int] = {}  # length token -> its index in values
    values: list[Fraction] = []
    rationals: dict[str, Fraction] = {}  # token -> value, for this text only
    for lineno, parts in enumerate(map(str.split, text.splitlines()), start=1):
        if not parts:
            continue
        tag = parts[0]
        try:
            if tag == "e":
                if n is None:
                    raise InstanceError(f"line {lineno}: edge record before problem line")
                if len(parts) != 4:
                    raise InstanceError(f"line {lineno}: expected 'e u v length'")
                _, u, v, tok = parts
                us.append(int(u))
                vs.append(int(v))
                i = spellings.get(tok)
                if i is None:
                    value = rationals.get(tok)
                    if value is None:
                        value = rationals[tok] = parse_rational(tok)
                    i = spellings[tok] = len(values)
                    values.append(value)
                lens.append(i)
            elif tag == "p":
                if n is not None:
                    raise InstanceError(f"line {lineno}: duplicate problem line")
                if len(parts) != 6 or parts[1] != "ckoc":
                    raise InstanceError(f"line {lineno}: expected 'p ckoc n m k weighted'")
                n, m, k, wflag = (int(x) for x in parts[2:6])
                if wflag not in (0, 1):
                    raise InstanceError(f"line {lineno}: weighted flag must be 0 or 1")
                weighted = wflag == 1
            elif tag == "v":
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
            elif not tag.startswith("c"):  # c starts a comment
                raise InstanceError(f"line {lineno}: unknown record {tag!r}")
        except ValueError as exc:
            msg = str(exc)
            if isinstance(exc, InstanceError) and msg.startswith("line "):
                raise
            raise InstanceError(f"line {lineno}: {msg}") from exc
    if n is None:
        raise InstanceError("missing problem line")
    if len(lens) != m:
        raise InstanceError(f"expected {m} edges, found {len(lens)}")
    if weighted:
        missing = next((v for v in range(1, n + 1) if v not in weights), None)
        if missing is not None:
            raise InstanceError(f"missing weight for vertex {missing}")
    if n > 1 and m < n - 1:
        raise InstanceError(f"graph is disconnected (vertex {_first_unreached(us, vs)} unreachable)")
    if n >= 1 and not 1 <= k <= n:
        raise InstanceError(f"k={k} out of range 1..{n}")
    wlist = [weights[v] for v in range(1, n + 1)] if weighted else [Fraction(1)] * n
    scale, ints = _common_scale([x.numerator for x in values], [x.denominator for x in values])
    lengths_int = list(map(ints.__getitem__, lens))
    return Graph._from_columns(n, wlist, us, vs, lengths_int, scale), k


def emit_instance(g: Graph, k: int) -> str:
    weighted = not g.unit_weights
    lines = [f"p ckoc {g.n} {g.m} {k} {1 if weighted else 0}"]
    if weighted:
        for v in range(1, g.n + 1):
            lines.append(f"v {v} {g.weights[v]}")
    for i, (u, v) in enumerate(zip(g.eu, g.ev)):
        lines.append(f"e {u} {v} {g.length(i)}")
    return "\n".join(lines) + "\n"
