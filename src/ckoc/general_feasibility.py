"""Feasibility testing on weighted graphs.

Core question: given a radius lam, is there a point x whose shortest-path
structure contains a connected block of at least k vertices, all within
weighted distance lam of x?  Heavy vertices (w_v * d(v,x) > lam) act as
cuts: vertices whose every shortest path to x passes through a heavy
vertex are unusable even when they are close enough themselves.

Per edge, the covered-count f(e, t) is a piecewise constant function of
the offset t.  It is assembled from two one-sided scans (coverage through
each endpoint) minus an overlap correction at semicircular points.  A
side scan keys each vertex by its turning point and runs one
graph_core.bottlenecks pass over the shortest-path DAG toward its
endpoint: tau_v = min(x_v, max over predecessors u of tau_u) is the last
key at which v is still covered through that endpoint, so the count at a
key t is #{v : tau_v >= t}.  covered_subtree, edge_profile and the
bracket's vertex-center radii are the same pass with other x, and all
but covered_subtree's, whose root is a point, read the one DAG toward
each vertex that FeasibilityTester builds, the side scans included.

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

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import (
    ZERO,
    Dag,
    DistanceMatrix,
    EdgePoint,
    Graph,
    InternalError,
    bottlenecks,
    canonical_point,
    edge_profile,
    kth_bounds,
    shortest_path_dag,
    vertex_of_point,
)


def _scaled_distances(g: Graph, dm: DistanceMatrix, x: EdgePoint) -> tuple[list[int], int, int]:
    """(dist, offset, far) for an interior or endpoint x = (edge, p/q):
    dist[v] is the distance from x to v for every vertex, in units of
    1/(dm.scale * q), and offset and far are x's distances to the edge's
    endpoints along the edge in those units (index 0 of dist is unused)."""
    p, q = x.t.numerator, x.t.denominator
    offset = p * dm.scale
    far = q * g.lengths_int[x.edge] - offset
    d_r, d_s = dm.rows[g.eu[x.edge]], dm.rows[g.ev[x.edge]]
    dist = [min(offset + q * a, far + q * b) for a, b in zip(d_r, d_s)]
    return dist, offset, far


def covered_subtree(g: Graph, dm: DistanceMatrix, x: EdgePoint, lam: Fraction) -> frozenset[int]:
    """All vertices covered from x at radius lam: the light ones (w_v *
    d(x, v) <= lam) that some shortest path from x reaches through light
    vertices alone."""
    if x.edge < 0:
        return frozenset({1}) if lam >= 0 else frozenset()
    dist, offset, far = _scaled_distances(g, dm, x)
    q = x.t.denominator
    order, preds = shortest_path_dag(g, dist, q)
    if vertex_of_point(g, x) is None:
        # an interior x reaches the ends of its edge along the edge itself
        for v, d in ((g.eu[x.edge], offset), (g.ev[x.edge], far)):
            if dist[v] == d:
                preds[order.index(v)] = ()
    # w_v * d(x, v) > lam, both sides times weight_scale * dm.scale * q * lam.q
    bound = lam.numerator * g.weight_scale * dm.scale * q
    wi, lq = g.weights_int, lam.denominator
    tau = bottlenecks(preds, [int(wi[v] * dist[v] * lq <= bound) for v in order])
    return frozenset(v for v, t in zip(order, tau) if t)


def trim_witness(
    g: Graph, dm: DistanceMatrix, x: EdgePoint, covered: frozenset[int], k: int
) -> frozenset[int]:
    """Pick exactly k covered vertices forming a connected block around x,
    greedily by (distance from x, vertex id)."""
    if x.edge < 0:
        return frozenset({1})
    if len(covered) < k:
        raise InternalError(f"cannot trim {len(covered)} covered vertices to {k}")
    r, s = g.eu[x.edge], g.ev[x.edge]
    dist, offset, far = _scaled_distances(g, dm, x)
    q = x.t.denominator
    lengths = g.lengths_int
    heap = []
    if r in covered and dist[r] == offset:
        heap.append((dist[r], r))
    if s in covered and dist[s] == far:
        heap.append((dist[s], s))
    heapq.heapify(heap)
    out: set[int] = set()
    while heap and len(out) < k:
        d, v = heapq.heappop(heap)
        if v in out:
            continue
        out.add(v)
        for u, eid in g.adj[v]:
            if u in covered and u not in out and d + q * lengths[eid] == dist[u]:
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


class FeasibilityTester:
    """Caches, for one (g, dm), the shortest-path DAG toward each vertex
    and the caps of each edge side, built on first use and kept across
    radius probes, and the per-vertex key bases of the last radius."""

    def __init__(self, g: Graph, dm: DistanceMatrix):
        self.g = g
        self.dm = dm
        self._wmax = max(g.weights_int)
        self._shift = 2 * self._wmax.bit_length() + 1
        self._dags: list[Dag | None] = [None] * (g.n + 1)
        self._sides: dict[tuple[int, bool], tuple[int, list[int], dict[int, int]]] = {}
        self._kth_bounds: dict[int, list[int]] = {}
        self._radius: tuple[Fraction, int, list[int], list[int]] | None = None

    # per-vertex DAGs and side caps -------------------------------------

    def _dag(self, v: int) -> Dag:
        """The shortest-path DAG toward vertex v, built once."""
        dag = self._dags[v]
        if dag is None:
            dag = self._dags[v] = shortest_path_dag(self.g, self.dm.rows[v])
        return dag

    def _side(self, edge: int, from_r: bool) -> tuple[int, list[int], dict[int, int]]:
        """(endpoint, caps, semi) of one side of edge.  caps holds, in the
        endpoint's DAG order, the key at q = 1 of the edge length, of v's
        semicircular offset from the endpoint, or -1 for v outside the side
        (the vertices rising from the endpoint over the whole edge and
        those with a semicircular point); semi maps those positions to caps."""
        got = self._sides.get((edge, from_r))
        if got is not None:
            return got
        g, rows, s = self.g, self.dm.rows, self._shift
        l_int = g.lengths_int[edge]
        # every profile scans both sides, so both are built at once from
        # offsets measured from r in units of 1/(2 * SL)
        offsets = edge_profile(g, self.dm, edge, self._dag)
        for side in (True, False):
            root, far = (g.eu[edge], g.ev[edge]) if side else (g.ev[edge], g.eu[edge])
            d_root, d_far = rows[root], rows[far]
            caps: list[int] = []
            semi: dict[int, int] = {}
            for i, v in enumerate(self._dag(root)[0]):
                off = offsets[v]
                if off is not None:
                    # 2 * SL times the semicircular offset, measured from root
                    semi[i] = cap = (off if side else 2 * l_int - off) << s
                    caps.append(cap)
                else:
                    caps.append(2 * l_int << s if d_far[v] == d_root[v] + l_int else -1)
            self._sides[edge, side] = root, caps, semi
        return self._sides[edge, from_r]

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
        s): value[i] holds on (threshold[i-1], threshold[i]].  Also maps
        each vertex covered exactly up to its own semicircular point to
        that point's key.

        The pass runs over the endpoint's whole DAG, with x_v = -1 outside
        the side as for a heavy v, and finds the tau of a pass over the side
        alone: no tau is below -1, so predecessors outside the side never
        raise a max, and each vertex of the side but its root has one in
        it.  A rising vertex's predecessors rise; an apex vertex's rise or
        have an apex; a falling vertex of the side is the far endpoint,
        after the root, or follows a vertex of the side on a shortest path
        from the root that avoids the far endpoint."""
        root, caps, semi = self._side(edge, from_r)
        order, preds = self._dag(root)
        d_root = self.dm.rows[root]
        _, q, lo, hi = self._bases(lam)
        base = lo if from_r else hi
        # v's distance term, 2 * SL * q * d_v times 2**shift
        qd = q << (self._shift + 1)
        # x_v is v's turning key capped at its cap, or -1 when v is heavy
        # or outside the side
        xs: list[int] = []
        for v, cap in zip(order, caps):
            x = base[v] - qd * d_root[v]
            cap *= q
            xs.append(-1 if x < 0 or cap < 0 else cap if x > cap else x)
        thresholds = sorted(set(xs) - {-1})
        tau = bottlenecks(preds, xs)
        flagged = {order[i]: c * q for i, c in semi.items() if tau[i] == c * q}
        # count the covered vertices down the thresholds, which only lowers
        # the count; each tau_v is some x_u, so the count ends at none
        # unless a tau_v >= 0 is missing from them
        ends: dict[int, int] = {}
        for t in tau:
            ends[t] = ends.get(t, 0) + 1
        alive = len(tau) - ends.get(-1, 0)
        values: list[int] = []
        for t in thresholds:
            values.append(alive)
            alive -= ends.get(t, 0)
        if alive:
            raise InternalError("side scan found covering keys outside its thresholds")
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
            for v in fl_r.keys() & fl_s.keys():
                t = fl_r[v]
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

    def bracket(self, k: int) -> tuple[int, int]:
        """(lo, hi) with lo <= lambda*(k) <= hi, in _kth_ints' units, from
        the distances alone.  lo is the least per-edge k-th-distance bound:
        below it feasible() skips every edge.  hi is the least radius at
        which some vertex a covers k vertices as a center.  v is covered
        from a from the radius b_v = max(w_v * d(a, v), min over its
        shortest-path predecessors u of b_u) on, with b_a = 0: that is the
        bottlenecks pass over a's row with x_v = -w_v * d(a, v) and
        b_v = -tau_v, and a covers k from its k-th smallest b_v."""
        g, rows = self.g, self.dm.rows
        wi = g.weights_int
        his = []
        for a in g.vertices():
            da = rows[a]
            order, preds = self._dag(a)
            tau = bottlenecks(preds, [-wi[v] * da[v] for v in order])
            his.append(-sorted(tau)[-k])
        return min(self._kth_ints(k)), min(his)

    def feasible(self, k: int, lam: Fraction) -> FeasibilityResult:
        g, dm = self.g, self.dm
        if not 1 <= k <= g.n:
            raise ValueError(f"k={k} out of range for n={g.n}")
        if lam < 0:
            return FeasibilityResult(False)
        if g.n == 1:
            return FeasibilityResult(True, (EdgePoint(-1, ZERO), frozenset({1})))
        bounds = self._kth_ints(k)
        _, q, _, _ = self._bases(lam)
        p_unit = lam.numerator * g.weight_scale * dm.scale
        for edge in range(g.m):
            # cheap lower bound: even ignoring connectivity, fewer than k
            # vertices can ever be within lam of any point of this edge
            if p_unit < bounds[edge] * q:
                continue
            prof = self.profile(edge, lam)
            prev = None
            for t, left, at in prof.rows:
                if left >= k and prev is not None:
                    wt = (prof.offset(prev) + prof.offset(t)) / 2
                    return FeasibilityResult(True, self._witness(edge, wt, k, lam))
                if at >= k:
                    return FeasibilityResult(True, self._witness(edge, prof.offset(t), k, lam))
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
