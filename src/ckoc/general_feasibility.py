"""Feasibility testing on weighted graphs.

Core question: given a radius lam, is there a point x whose shortest-path
structure contains a connected block of at least k vertices, all within
weighted distance lam of x?  Heavy vertices (w_v * d(v,x) > lam) act as
cuts: vertices whose every shortest path to x passes through a heavy
vertex are unusable even when they are close enough themselves.

Per edge, the covered-count f(e, t) is a piecewise constant function of
the offset t.  It is assembled from two one-sided scans (coverage through
each endpoint) minus an overlap correction at semicircular points, each
side driven by sorted turning points and incremental removal of expired
vertices and their newly cut descendants.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import (
    ZERO,
    DistanceMatrix,
    EdgePoint,
    Graph,
    InternalError,
    canonical_point,
    edge_profile,
    point_distance,
    vertex_of_point,
)


class PredecessorStructure:
    """Per-vertex predecessor/successor sets on shortest paths to a root,
    with incremental removal.

    pred[v] holds every neighbor that starts some shortest path from v to
    the root; removing a vertex erases it from its neighbors' sets, and a
    vertex whose pred set empties is cut off (a descendant of the removed
    set) and is removed in turn, FIFO order.
    """

    def __init__(self, root: int, pred: dict[int, dict[int, None]]):
        self.root = root
        self.pred = pred
        self.succ: dict[int, dict[int, None]] = {v: {} for v in pred}
        for v, ps in pred.items():
            for u in ps:
                self.succ[u][v] = None
        self.alive: dict[int, None] = dict.fromkeys(pred)

    @property
    def alive_count(self) -> int:
        return len(self.alive)

    def remove(self, S) -> tuple[list[int], list[int]]:
        """Remove S plus everything cut off from the root; returns
        (all removed in order, the descendants-only part)."""
        pred, succ, alive = self.pred, self.succ, self.alive
        queue: deque[int] = deque()
        for v in S:
            if v in alive:
                del alive[v]
                queue.append(v)
        removed = list(queue)
        desc: list[int] = []
        while queue:
            v = queue.popleft()
            for u in succ[v]:
                pu = pred[u]
                if v in pu:
                    del pu[v]
                    if not pu and u in alive and u != self.root:
                        del alive[u]
                        desc.append(u)
                        removed.append(u)
                        queue.append(u)
            for u in pred[v]:
                su = succ[u]
                if v in su:
                    del su[v]
            pred[v] = {}
            succ[v] = {}
        return removed, desc


DUMMY = 0  # stand-in vertex id for an interior point


def build_predecessor_structure(g: Graph, dm: DistanceMatrix, x: EdgePoint) -> PredecessorStructure:
    """Predecessor structure of the whole graph toward the point x.

    For an interior point a dummy vertex (id 0) representing x itself is
    the root; an endpoint offset makes the vertex the root directly.
    """
    a = vertex_of_point(g, x)
    dist: dict[int, Fraction] = {v: point_distance(g, dm, x, v) for v in g.vertices()}
    pred: dict[int, dict[int, None]] = {}
    if a is None:
        e = g.edges[x.edge]
        root = DUMMY
        dist[DUMMY] = ZERO
        pred[DUMMY] = {}
    else:
        root = a
    for v in g.vertices():
        ps: dict[int, None] = {}
        if v != root:
            if a is None:
                e = g.edges[x.edge]
                if (v == e.u and dist[v] == x.t) or (v == e.v and dist[v] == e.length - x.t):
                    ps[DUMMY] = None
            for u, ev in g.adj[v]:
                if dist[u] + ev.length == dist[v]:
                    ps[u] = None
        pred[v] = ps
    return PredecessorStructure(root, pred)


def covered_subtree(g: Graph, dm: DistanceMatrix, x: EdgePoint, lam: Fraction) -> frozenset[int]:
    """All vertices covered from x at radius lam, after heavy-cut removal."""
    if x.edge < 0:
        return frozenset({1}) if lam >= 0 else frozenset()
    ps = build_predecessor_structure(g, dm, x)
    heavy = [v for v in g.vertices() if g.weights[v] * point_distance(g, dm, x, v) > lam]
    ps.remove(heavy)
    return frozenset(v for v in ps.alive if v != DUMMY)


def trim_witness(
    g: Graph, dm: DistanceMatrix, x: EdgePoint, covered: frozenset[int], k: int
) -> frozenset[int]:
    """Pick exactly k covered vertices forming a connected block around x,
    greedily by (distance from x, vertex id)."""
    import heapq

    if x.edge < 0:
        return frozenset({1})
    if len(covered) < k:
        raise InternalError(f"cannot trim {len(covered)} covered vertices to {k}")
    e = g.edges[x.edge]
    dist = {v: point_distance(g, dm, x, v) for v in covered}
    heap = []
    if e.u in covered and dist[e.u] == x.t:
        heap.append((dist[e.u], e.u))
    if e.v in covered and dist[e.v] == e.length - x.t:
        heap.append((dist[e.v], e.v))
    heapq.heapify(heap)
    out: set[int] = set()
    while heap and len(out) < k:
        d, v = heapq.heappop(heap)
        if v in out:
            continue
        out.add(v)
        for u, ev in g.adj[v]:
            if u in covered and u not in out and d + ev.length == dist[u]:
                heapq.heappush(heap, (dist[u], u))
    if len(out) != k:
        raise InternalError("covered set was not connected around the witness point")
    return frozenset(out)


@dataclass(frozen=True)
class CoverageProfile:
    """f(e, t) on one edge as breakpoints (t, value on the open interval
    just left of t, value at t); breakpoints cover [0, l]."""

    edge: int
    breakpoints: tuple[tuple[Fraction, int, int], ...]

    def value_at(self, t: Fraction) -> int:
        ts = [row[0] for row in self.breakpoints]
        i = bisect_left(ts, t)
        if i >= len(ts):
            raise ValueError(f"offset {t} beyond edge")
        row = self.breakpoints[i]
        return row[2] if row[0] == t else row[1]

    def max_value(self) -> int:
        return max(max(left, at) for _, left, at in self.breakpoints)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[EdgePoint, frozenset[int]] | None = None


class _SideTemplate:
    """Radius-independent data for one edge endpoint: the side's vertex set,
    its predecessor sets toward the endpoint, and per-vertex caps
    (semicircular offsets) in side-local coordinates."""

    __slots__ = ("root", "universe", "pred", "dist", "caps", "semi_local", "length")

    def __init__(self, root, universe, pred, dist, caps, semi_local, length):
        self.root = root
        self.universe = universe
        self.pred = pred
        self.dist = dist
        self.caps = caps
        self.semi_local = semi_local
        self.length = length

    def instantiate(self) -> PredecessorStructure:
        return PredecessorStructure(self.root, {v: dict.fromkeys(us) for v, us in self.pred.items()})


class FeasibilityTester:
    """Caches per-edge side templates across radius probes for one (g, dm)."""

    def __init__(self, g: Graph, dm: DistanceMatrix):
        self.g = g
        self.dm = dm
        self._templates: dict[tuple[int, bool], _SideTemplate] = {}
        self._semi_maps: dict[int, dict[Fraction, list[int]]] = {}
        self._kth_bounds: dict[tuple[int, int], Fraction] = {}

    # side templates ----------------------------------------------------

    def _template(self, edge: int, from_r: bool) -> _SideTemplate:
        key = (edge, from_r)
        tpl = self._templates.get(key)
        if tpl is not None:
            return tpl
        g, dm = self.g, self.dm
        e = g.edges[edge]
        l = e.length
        profile = edge_profile(g, dm, edge)
        root = e.u if from_r else e.v
        universe: list[int] = []
        caps: dict[int, Fraction] = {}
        semi_local: dict[int, Fraction] = {}
        for v in g.vertices():
            fn = profile[v]
            semi = fn.semicircular_t
            if from_r:
                member = fn.case == "increasing" or semi is not None
            else:
                member = fn.case == "decreasing" or semi is not None
            if not member:
                continue
            universe.append(v)
            if semi is not None:
                local = semi if from_r else l - semi
                semi_local[v] = local
                caps[v] = local
            else:
                caps[v] = l
        inset = set(universe)
        d_root = {v: dm.d_int(root, v) for v in universe}
        lengths = g.lengths_int
        pred: dict[int, dict[int, None]] = {}
        for v in universe:
            ps: dict[int, None] = {}
            if v != root:
                for u, ev in g.adj[v]:
                    if u in inset and d_root[u] + lengths[ev.id] == d_root[v]:
                        ps[u] = None
            pred[v] = ps
        scale = g.length_scale
        dist = {v: Fraction(d_root[v], scale) for v in universe}
        tpl = _SideTemplate(root, universe, pred, dist, caps, semi_local, l)
        self._templates[key] = tpl
        return tpl

    def _semi_map(self, edge: int) -> dict[Fraction, list[int]]:
        sm = self._semi_maps.get(edge)
        if sm is None:
            sm = {}
            profile = edge_profile(self.g, self.dm, edge)
            for v in self.g.vertices():
                semi = profile[v].semicircular_t
                if semi is not None:
                    sm.setdefault(semi, []).append(v)
            self._semi_maps[edge] = sm
        return sm

    # one-sided scan ----------------------------------------------------

    def _side_scan(self, edge: int, from_r: bool, lam: Fraction):
        """Step function of covered-through-this-endpoint counts, in
        side-local offsets: value[i] holds on (threshold[i-1], threshold[i]].
        Also returns the covered-at-own-semicircular flag per vertex."""
        tpl = self._template(edge, from_r)
        g = self.g
        ps = tpl.instantiate()
        heavy: list[int] = []
        buckets: dict[Fraction, list[int]] = {}
        for v in tpl.universe:
            xv = lam / g.weights[v] - tpl.dist[v]
            cap = tpl.caps[v]
            if xv > cap:
                xv = cap
            if xv < 0:
                heavy.append(v)
            else:
                buckets.setdefault(xv, []).append(v)
        flags: dict[int, bool] = {}
        removed, _ = ps.remove(heavy)
        for v in removed:
            flags[v] = False
        semi_local = tpl.semi_local
        thresholds = sorted(buckets)
        values: list[int] = []
        for p in thresholds:
            values.append(ps.alive_count)
            removed, _ = ps.remove(buckets[p])
            for v in removed:
                flags[v] = semi_local.get(v) == p
        if ps.alive_count:
            raise InternalError("side scan left vertices alive past their turning points")
        return thresholds, values, flags

    # profile assembly --------------------------------------------------

    def profile(self, edge: int, lam: Fraction) -> CoverageProfile:
        g = self.g
        e = g.edges[edge]
        l = e.length
        thr_r, val_r, fl_r = self._side_scan(edge, True, lam)
        thr_s, val_s, fl_s = self._side_scan(edge, False, lam)
        semi_map = self._semi_map(edge)

        def step(thresholds, values, q):
            i = bisect_left(thresholds, q)
            return values[i] if i < len(values) else 0

        bps = {ZERO, l}
        bps.update(thr_r)
        bps.update(l - q for q in thr_s)
        rows: list[tuple[Fraction, int, int]] = []
        prev: Fraction | None = None
        for t in sorted(bps):
            overlap = 0
            for v in semi_map.get(t, ()):
                if fl_r.get(v) and fl_s.get(v):
                    overlap += 1
            at = step(thr_r, val_r, t) + step(thr_s, val_s, l - t) - overlap
            if prev is None:
                left = at
            else:
                mid = (prev + t) / 2
                left = step(thr_r, val_r, mid) + step(thr_s, val_s, l - mid)
            rows.append((t, left, at))
            prev = t
        return CoverageProfile(edge, tuple(rows))

    # feasibility -------------------------------------------------------

    def _kth_bound(self, edge: int, k: int) -> Fraction:
        key = (edge, k)
        val = self._kth_bounds.get(key)
        if val is None:
            g, rows = self.g, self.dm.rows
            e = g.edges[edge]
            lows = sorted(
                g.weights_int[v] * min(rows[v][e.u], rows[v][e.v]) for v in g.vertices()
            )
            val = Fraction(lows[k - 1], g.weight_scale * self.dm.scale)
            self._kth_bounds[key] = val
        return val

    def feasible(self, k: int, lam: Fraction) -> FeasibilityResult:
        g, dm = self.g, self.dm
        if lam < 0:
            return FeasibilityResult(False)
        if g.n == 1:
            return FeasibilityResult(k <= 1, (EdgePoint(-1, ZERO), frozenset({1})) if k <= 1 else None)
        if not 1 <= k <= g.n:
            raise ValueError(f"k={k} out of range")
        for e in g.edges:
            # cheap lower bound: even ignoring connectivity, fewer than k
            # vertices can ever be within lam of any point of this edge
            if lam < self._kth_bound(e.id, k):
                continue
            prof = self.profile(e.id, lam)
            rows = prof.breakpoints
            for i, (t, left, at) in enumerate(rows):
                if i > 0 and left >= k:
                    wt = (rows[i - 1][0] + t) / 2
                    return FeasibilityResult(True, self._witness(e.id, wt, k, lam))
                if at >= k:
                    return FeasibilityResult(True, self._witness(e.id, t, k, lam))
        return FeasibilityResult(False)

    def _witness(self, edge: int, t: Fraction, k: int, lam: Fraction):
        x = canonical_point(self.g, edge, t)
        covered = covered_subtree(self.g, self.dm, x, lam)
        if len(covered) < k:
            raise InternalError(
                f"profile promised >= {k} at edge {edge} t={t}, recomputation found {len(covered)}"
            )
        return (x, covered)


def _tester(g: Graph, dm: DistanceMatrix) -> FeasibilityTester:
    if dm.tester is None:
        dm.tester = FeasibilityTester(g, dm)
    return dm.tester


def coverage_profile(g: Graph, dm: DistanceMatrix, edge: int, lam: Fraction) -> CoverageProfile:
    return _tester(g, dm).profile(edge, lam)


def is_feasible_graph(g: Graph, dm: DistanceMatrix, k: int, lam: Fraction) -> FeasibilityResult:
    return _tester(g, dm).feasible(k, lam)
