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

The tester runs on exact integers with one denominator per vertex.  At
lam = p/q, with SL and SW the length and weight scales, W_v the scaled
weight of v and D_v its scaled distance to a side's endpoint, v turns at
the side-local offset lam/w_v - d_v, which in units of 1/(2 * SL * q) is
(2 * p * SW * SL - 2 * q * W_v * D_v) / W_v; the edge length and the
semicircular offsets (half-integers in units of 1/SL) are integers in
those units.  Such a value x is keyed by floor(x * 2**s) (the ceiling on
the side scanned from the far endpoint, whose offsets are mirrored), with
2**s > 2 * max(W)**2.  Two distinct values with denominators of at most
max(W) differ by at least 1/max(W)**2, so the keys order and match
exactly as the values do, and a key determines its value (the nearest
rational with denominator at most max(W)).  An lcm of all the weights
would grow with every coprime weight; 2**s grows only with the largest.
Fraction remains at the boundary: lam comes in as one, and the
breakpoints of a CoverageProfile and the witness offset go out as ones.
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
    kth_bounds,
    vertex_of_point,
)


class PredecessorStructure:
    """Per-vertex predecessor/successor lists on shortest paths to a root,
    with incremental removal.

    pred[v] holds every neighbor that starts some shortest path from v to
    the root; each vertex counts its predecessors still alive, and a
    vertex whose count drops to zero is cut off (a descendant of the
    removed set) and is removed in turn, FIFO order.  pred and succ never
    change, so fresh() copies only the counters and the alive set.
    """

    def __init__(self, root: int, pred: dict[int, dict[int, None]]):
        self.root = root
        self.pred = pred
        self.succ: dict[int, list[int]] = {v: [] for v in pred}
        for v, ps in pred.items():
            for u in ps:
                self.succ[u].append(v)
        self.live: dict[int, int] = {v: len(ps) for v, ps in pred.items()}
        self.alive: dict[int, None] = dict.fromkeys(pred)

    def fresh(self) -> "PredecessorStructure":
        """A copy with nothing removed yet, sharing pred and succ."""
        ps = object.__new__(PredecessorStructure)
        ps.root, ps.pred, ps.succ = self.root, self.pred, self.succ
        ps.live = self.live.copy()
        ps.alive = self.alive.copy()
        return ps

    @property
    def alive_count(self) -> int:
        return len(self.alive)

    def remove(self, S) -> tuple[list[int], list[int]]:
        """Remove S plus everything cut off from the root; returns
        (all removed in order, the descendants-only part)."""
        succ, live, alive, root = self.succ, self.live, self.alive, self.root
        queue: deque[int] = deque()
        for v in S:
            if v in alive:
                del alive[v]
                queue.append(v)
        removed = list(queue)
        desc: list[int] = []
        while queue:
            for u in succ[queue.popleft()]:
                if u in alive:
                    live[u] -= 1
                    if not live[u] and u != root:
                        del alive[u]
                        desc.append(u)
                        removed.append(u)
                        queue.append(u)
        return removed, desc


DUMMY = 0  # stand-in vertex id for an interior point


def _scaled_distances(g: Graph, dm: DistanceMatrix, x: EdgePoint) -> tuple[list[int], int, int]:
    """(dist, offset, far) for an interior or endpoint x = (edge, p/q):
    dist[v] is point_distance(x, v) for every vertex, in units of
    1/(dm.scale * q), and offset and far are x's distances to the edge's
    endpoints along the edge in those units (index 0 of dist is unused)."""
    e = g.edges[x.edge]
    p, q = x.t.numerator, x.t.denominator
    offset = p * dm.scale
    far = q * g.lengths_int[e.id] - offset
    dist = [min(offset + q * a, far + q * b) for a, b in zip(dm.rows[e.u], dm.rows[e.v])]
    return dist, offset, far


def build_predecessor_structure(g: Graph, dm: DistanceMatrix, x: EdgePoint) -> PredecessorStructure:
    """Predecessor structure of the whole graph toward the point x.

    For an interior point a dummy vertex (id 0) representing x itself is
    the root; an endpoint offset makes the vertex the root directly.
    """
    a = vertex_of_point(g, x)
    e = g.edges[x.edge]
    dist, offset, far = _scaled_distances(g, dm, x)
    q = x.t.denominator
    lengths = g.lengths_int
    pred: dict[int, dict[int, None]] = {}
    if a is None:
        root = DUMMY
        pred[DUMMY] = {}
    else:
        root = a
    for v in g.vertices():
        ps: dict[int, None] = {}
        if v != root:
            if a is None and ((v == e.u and dist[v] == offset) or (v == e.v and dist[v] == far)):
                ps[DUMMY] = None
            for u, ev in g.adj[v]:
                if dist[u] + q * lengths[ev.id] == dist[v]:
                    ps[u] = None
        pred[v] = ps
    return PredecessorStructure(root, pred)


def covered_subtree(g: Graph, dm: DistanceMatrix, x: EdgePoint, lam: Fraction) -> frozenset[int]:
    """All vertices covered from x at radius lam, after heavy-cut removal."""
    if x.edge < 0:
        return frozenset({1}) if lam >= 0 else frozenset()
    ps = build_predecessor_structure(g, dm, x)
    dist, _, _ = _scaled_distances(g, dm, x)
    # w_v * d(x, v) > lam, both sides times weight_scale * dm.scale * q * lam.q
    bound = lam.numerator * g.weight_scale * dm.scale * x.t.denominator
    wi, lq = g.weights_int, lam.denominator
    ps.remove([v for v in g.vertices() if wi[v] * dist[v] * lq > bound])
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
    dist, offset, far = _scaled_distances(g, dm, x)
    q = x.t.denominator
    lengths = g.lengths_int
    heap = []
    if e.u in covered and dist[e.u] == offset:
        heap.append((dist[e.u], e.u))
    if e.v in covered and dist[e.v] == far:
        heap.append((dist[e.v], e.v))
    heapq.heapify(heap)
    out: set[int] = set()
    while heap and len(out) < k:
        d, v = heapq.heappop(heap)
        if v in out:
            continue
        out.add(v)
        for u, ev in g.adj[v]:
            if u in covered and u not in out and d + q * lengths[ev.id] == dist[u]:
                heapq.heappush(heap, (dist[u], u))
    if len(out) != k:
        raise InternalError("covered set was not connected around the witness point")
    return frozenset(out)


class CoverageProfile:
    """f(e, t) on one edge at one radius, as integer rows (key of t, value
    on the open interval just left of t, value at t) covering [0, l].

    The key of an offset t is floor(t * unit * 2**shift), with unit =
    2 * SL * q at the radius p/q; in units of 1/unit every breakpoint is a
    rational with denominator at most wmax, which its key pins down
    exactly (see the module docstring).  offset, breakpoints, value_at and
    max_value give the offsets as Fractions."""

    __slots__ = ("edge", "rows", "unit", "shift", "wmax")

    def __init__(self, edge: int, rows: list[tuple[int, int, int]], unit: int, shift: int, wmax: int):
        self.edge = edge
        self.rows = rows
        self.unit = unit
        self.shift = shift
        self.wmax = wmax

    def offset(self, key: int) -> Fraction:
        return Fraction(key, 1 << self.shift).limit_denominator(self.wmax) / self.unit

    @property
    def breakpoints(self) -> tuple[tuple[Fraction, int, int], ...]:
        return tuple((self.offset(t), left, at) for t, left, at in self.rows)

    def value_at(self, t: Fraction) -> int:
        bps = self.breakpoints
        if t < 0 or t > bps[-1][0]:
            raise ValueError(f"offset {t} beyond edge")
        row = bps[bisect_left([row[0] for row in bps], t)]
        return row[2] if row[0] == t else row[1]

    def max_value(self) -> int:
        return max(max(left, at) for _, left, at in self.rows)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[EdgePoint, frozenset[int]] | None = None


class _SideTemplate:
    """Radius-independent data for one edge endpoint: the side's vertex
    set, its predecessor structure toward the endpoint (each scan removes
    from a fresh copy), and, aligned with the vertex list, each vertex's
    distance term and its cap (the edge length, or its semicircular offset
    in side-local coordinates).  Both are stored as keys at q = 1, so a
    scan at lam = p/q multiplies them by q; semi maps each vertex with a
    semicircular point to its cap."""

    __slots__ = ("structure", "universe", "dist", "caps", "semi")

    def __init__(self, structure, universe, dist, caps, semi):
        self.structure = structure
        self.universe = universe
        self.dist = dist
        self.caps = caps
        self.semi = semi


class FeasibilityTester:
    """Caches per-edge side templates across radius probes for one (g, dm),
    and the per-vertex key bases of the last radius probed."""

    def __init__(self, g: Graph, dm: DistanceMatrix):
        self.g = g
        self.dm = dm
        self._wmax = max(g.weights_int)
        self._shift = 2 * self._wmax.bit_length() + 1
        self._templates: dict[tuple[int, bool], _SideTemplate] = {}
        self._kth_bounds: dict[int, list[int]] = {}
        self._radius: tuple[Fraction, int, list[int], list[int]] | None = None

    # side templates ----------------------------------------------------

    def _template(self, edge: int, from_r: bool) -> _SideTemplate:
        tpl = self._templates.get((edge, from_r))
        if tpl is None:
            # every profile scans both sides, so both are built at once
            semi = edge_profile(self.g, self.dm, edge)
            for side in (True, False):
                self._templates[edge, side] = self._side_template(edge, side, semi)
            tpl = self._templates[edge, from_r]
        return tpl

    def _side_template(self, edge: int, from_r: bool, offsets: list[int | None]) -> _SideTemplate:
        """The template of one side from edge_profile's offsets, which
        are measured from r in units of 1/(2 * SL)."""
        g, rows, s = self.g, self.dm.rows, self._shift
        e = g.edges[edge]
        l_int = g.lengths_int[edge]
        root, far = (e.u, e.v) if from_r else (e.v, e.u)
        d_root, d_far = rows[root], rows[far]
        universe: list[int] = []
        caps: list[int] = []
        semi: dict[int, int] = {}
        for v in g.vertices():
            off = offsets[v]
            if off is not None:
                # 2 * SL times the semicircular offset, measured from root
                cap = (off if from_r else 2 * l_int - off) << s
                semi[v] = cap
            elif d_far[v] == d_root[v] + l_int:
                # rising from root over the whole edge
                cap = 2 * l_int << s
            else:
                continue
            universe.append(v)
            caps.append(cap)
        inset = set(universe)
        lengths = g.lengths_int
        pred: dict[int, dict[int, None]] = {}
        for v in universe:
            ps: dict[int, None] = {}
            if v != root:
                for u, ev in g.adj[v]:
                    if u in inset and d_root[u] + lengths[ev.id] == d_root[v]:
                        ps[u] = None
            pred[v] = ps
        dist = [d_root[v] << (s + 1) for v in universe]
        return _SideTemplate(PredecessorStructure(root, pred), universe, dist, caps, semi)

    def _bases(self, lam: Fraction) -> tuple[Fraction, int, list[int], list[int]]:
        """(lam, q, floor bases, ceil bases) at lam = p/q: per vertex v the
        floor and the ceiling of 2**shift * 2 * SL * q * lam / w_v, from
        which each side's key of v subtracts its distance term.  Kept for
        the last radius object asked about."""
        got = self._radius
        if got is not None and got[0] is lam:
            return got
        g = self.g
        q = lam.denominator
        top = 2 * lam.numerator * g.weight_scale * self.dm.scale << self._shift
        lo = [0]
        hi = [0]
        for w in g.weights_int[1:]:
            f, r = divmod(top, w)
            lo.append(f)
            hi.append(f + 1 if r else f)
        self._radius = got = (lam, q, lo, hi)
        return got

    # one-sided scan ----------------------------------------------------

    def _side_scan(self, edge: int, from_r: bool, lam: Fraction):
        """Step function of covered-through-this-endpoint counts, on the
        keys of side-local offsets (floor keys from r, ceiling keys from
        s): value[i] holds on (threshold[i-1], threshold[i]].  Also returns
        the vertices covered exactly up to their own semicircular point."""
        tpl = self._template(edge, from_r)
        _, q, lo, hi = self._bases(lam)
        base = lo if from_r else hi
        ps = tpl.structure.fresh()
        heavy: list[int] = []
        buckets: dict[int, list[int]] = {}
        for v, d, cap in zip(tpl.universe, tpl.dist, tpl.caps):
            x = base[v] - q * d
            cap *= q
            if x > cap:
                x = cap
            elif x < 0:
                heavy.append(v)
                continue
            b = buckets.get(x)
            if b is None:
                buckets[x] = [v]
            else:
                b.append(v)
        ps.remove(heavy)
        semi = tpl.semi
        flagged: set[int] = set()
        thresholds = sorted(buckets)
        values: list[int] = []
        for t in thresholds:
            values.append(ps.alive_count)
            removed, _ = ps.remove(buckets[t])
            for v in removed:
                c = semi.get(v)
                if c is not None and c * q == t:
                    flagged.add(v)
        if ps.alive_count:
            raise InternalError("side scan left vertices alive past their turning points")
        return thresholds, values, flagged

    # profile assembly --------------------------------------------------

    def profile(self, edge: int, lam: Fraction) -> CoverageProfile:
        thr_r, val_r, fl_r = self._side_scan(edge, True, lam)
        thr_s, val_s, fl_s = self._side_scan(edge, False, lam)
        q = self._bases(lam)[1]
        top = q * (2 * self.g.lengths_int[edge] << self._shift)
        # s-side thresholds as floor keys of offsets from r, ascending
        far = [top - t for t in reversed(thr_s)]
        far_val = val_s[::-1]
        overlap: dict[int, int] = {}
        if fl_r and fl_s:
            semi = self._templates[edge, True].semi
            for v in fl_r & fl_s:
                t = q * semi[v]
                overlap[t] = overlap.get(t, 0) + 1
        # no threshold lies strictly between two breakpoints, so left of t
        # the r-side counts as at t and the s-side as at the breakpoint
        # before (the r-side step is left-continuous, the s-side's right)
        rows: list[tuple[int, int, int]] = []
        i = j = sv = 0
        nr, ns = len(thr_r), len(far)
        for t in sorted({0, top, *thr_r, *far}):
            while j < nr and thr_r[j] < t:
                j += 1
            rv = val_r[j] if j < nr else 0
            left = rv + sv
            while i < ns and far[i] <= t:
                sv = far_val[i]
                i += 1
            rows.append((t, left, rv + sv - overlap.get(t, 0)))
        at0 = rows[0][2]
        rows[0] = (0, at0, at0)
        return CoverageProfile(edge, rows, 2 * self.dm.scale * q, self._shift, self._wmax)

    # feasibility -------------------------------------------------------

    def _kth_ints(self, k: int) -> list[int]:
        """graph_core.kth_bounds by edge id, in units of
        1/(g.weight_scale * dm.scale), taken for all edges at once per k."""
        bounds = self._kth_bounds.get(k)
        if bounds is None:
            bounds = [0] * self.g.m
            for b, eid in kth_bounds(self.g, self.dm, k):
                bounds[eid] = b
            self._kth_bounds[k] = bounds
        return bounds

    def feasible(self, k: int, lam: Fraction) -> FeasibilityResult:
        g, dm = self.g, self.dm
        if not 1 <= k <= g.n:
            raise ValueError(f"k={k} out of range")
        if lam < 0:
            return FeasibilityResult(False)
        if g.n == 1:
            return FeasibilityResult(True, (EdgePoint(-1, ZERO), frozenset({1})))
        bounds = self._kth_ints(k)
        _, q, _, _ = self._bases(lam)
        p_unit = lam.numerator * g.weight_scale * dm.scale
        for e in g.edges:
            # cheap lower bound: even ignoring connectivity, fewer than k
            # vertices can ever be within lam of any point of this edge
            if p_unit < bounds[e.id] * q:
                continue
            prof = self.profile(e.id, lam)
            prev = None
            for t, left, at in prof.rows:
                if left >= k and prev is not None:
                    wt = (prof.offset(prev) + prof.offset(t)) / 2
                    return FeasibilityResult(True, self._witness(e.id, wt, k, lam))
                if at >= k:
                    return FeasibilityResult(True, self._witness(e.id, prof.offset(t), k, lam))
                prev = t
        return FeasibilityResult(False)

    def _witness(self, edge: int, t: Fraction, k: int, lam: Fraction):
        x = canonical_point(self.g, edge, t)
        covered = covered_subtree(self.g, self.dm, x, lam)
        if len(covered) < k:
            raise InternalError(
                f"profile promised >= {k} at edge {edge} t={t}, recomputation found {len(covered)}"
            )
        return (x, covered)


def coverage_profile(g: Graph, dm: DistanceMatrix, edge: int, lam: Fraction) -> CoverageProfile:
    """One profile from a fresh tester; callers that probe many radii
    keep a FeasibilityTester of their own."""
    return FeasibilityTester(g, dm).profile(edge, lam)


def is_feasible_graph(g: Graph, dm: DistanceMatrix, k: int, lam: Fraction) -> FeasibilityResult:
    """One feasibility test from a fresh tester."""
    return FeasibilityTester(g, dm).feasible(k, lam)
