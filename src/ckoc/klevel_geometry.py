"""Generalized k-th level of unit-slope distance chains, and the
unweighted general-graph solver built on it.

On an edge (r, s) of an unweighted graph, each vertex v traces the chain
y = min(d(v,r) + t, d(v,s) + l - t): a rising segment, a falling segment,
or both joined at an interior peak.  The k-th level is the x-monotone
zigzag whose value at every t is the k-th smallest chain value; its
lowest point on the best edge realizes the optimal radius.

The level is built by one left-to-right sweep over two sequence arrays:
rising segments grouped by their common line (descending offset) and
falling segments likewise (ascending x-intercept).  While riding a line
the sweep tracks f, the number of chains not above that line, updating
it only at intersections with lines of the opposite slope, and turns as
soon as (falling) continuing would push f below k, or (rising) turning
keeps at least k chains not above the new line.

The sweep runs on Python ints in units of 1/S.  For a graph's chains
S = 2 * g.length_scale: chain ends are twice the scaled distances of
DistanceMatrix.rows, so every line offset and intercept is even and each
crossing ((c - a)/2, (c + a)/2) is an exact integer.  Fraction appears
only at the boundary: ChainSet.chains, LevelChain.vertices, lowest(),
value_at and to_json, and the solver's final radius and center.

The solver need not build every edge's level.  Every chain of edge
(u, w) is at least min(d(v,u), d(v,w)), the chain's value at the nearer
endpoint, so the k-th smallest of these values (graph_core.kth_bounds)
bounds the edge's whole k-th level from below.  The solver visits edges
in ascending (bound, edge id) and stops at the first edge whose bound,
2b in chain units, is strictly greater than the best level minimum so
far: neither it nor any later edge can reach that height.  An edge whose
bound equals the best is still visited, since its level may tie the best
height at a smaller edge id, so the answer is the same (y, edge id, x)
minimum as over all edges.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .graph_core import (
    ZERO,
    DistanceMatrix,
    Graph,
    InstanceError,
    InternalError,
    Solution,
    all_pairs_distances,
    canonical_point,
    kth_bounds,
    vertex_point,
)
from .general_feasibility import covered_subtree, trim_witness

X_SHAPE = "x"
Y_SHAPE = "y"
PEAK_SHAPE = "peak"

_ONE = Fraction(1)


@dataclass(frozen=True)
class Chain:
    """Distance chain of one vertex along an edge: value_at(t) is the
    vertex's distance to the point at offset t."""

    vertex: int
    left: Fraction
    right: Fraction
    length: Fraction
    shape: str
    apex: Optional[Fraction] = None

    def value_at(self, t: Fraction) -> Fraction:
        return min(self.left + t, self.right + self.length - t)


class ChainSet:
    """The distance chains of one edge in integer units of 1/scale: the
    chain of vertex ids[i] is min(lefts[i] + t, rights[i] + size - t) for
    t in [0, size].  scale is even and every left and right is even, so
    the sweep's crossings are integers.

    ChainSet(chains, length) scales hand-built Fraction chains once, to
    twice the lcm of their denominators; build_chains makes the integer
    form directly.  The Fraction Chain objects of .chains are built only
    when read."""

    def __init__(self, chains: Sequence[Chain], length: Fraction | int, edge: int = -1):
        length = Fraction(length)
        dens = [length.denominator]
        dens += [q.denominator for c in chains for q in (c.left, c.right)]
        scale = 2 * math.lcm(*dens)
        self.ids: Sequence[int] = tuple(c.vertex for c in chains)
        self.lefts = [int(c.left * scale) for c in chains]
        self.rights = [int(c.right * scale) for c in chains]
        self.size = int(length * scale)
        self.scale = scale
        self.edge = edge

    @classmethod
    def scaled(cls, ids: Sequence[int], lefts: list[int], rights: list[int],
               size: int, scale: int, edge: int) -> "ChainSet":
        cs = cls.__new__(cls)
        cs.ids, cs.lefts, cs.rights = ids, lefts, rights
        cs.size, cs.scale, cs.edge = size, scale, edge
        return cs

    @property
    def length(self) -> Fraction:
        return Fraction(self.size, self.scale)

    @cached_property
    def chains(self) -> tuple[Chain, ...]:
        S, size, length = self.scale, self.size, self.length
        out = []
        for v, a, b in zip(self.ids, self.lefts, self.rights):
            left, right = Fraction(a, S), Fraction(b, S)
            if b == a + size:
                out.append(Chain(v, left, right, length, X_SHAPE))
            elif a == b + size:
                out.append(Chain(v, left, right, length, Y_SHAPE))
            else:
                apex = Fraction(b + size - a, 2 * S)
                out.append(Chain(v, left, right, length, PEAK_SHAPE, apex))
        return tuple(out)


def build_chains(g: Graph, dm: DistanceMatrix, edge: int) -> ChainSet:
    """Chains of every vertex along one edge at scale 2 * g.length_scale,
    read from dm.rows (distances are symmetric, so row r holds d(v, r))."""
    if not g.unit_weights:
        raise InstanceError("distance chains are defined for unit weights only")
    lefts = [2 * d for d in dm.rows[g.eu[edge]][1:]]
    rights = [2 * d for d in dm.rows[g.ev[edge]][1:]]
    return ChainSet.scaled(range(1, g.n + 1), lefts, rights,
                           2 * g.lengths_int[edge], 2 * dm.scale, edge)


@dataclass(frozen=True)
class SegmentSequences:
    """Segments in the units of their ChainSet, grouped by line; each
    group is (line, tops) with tops the negated heights of the group's
    segments' highest points (a rising piece's right end, a falling
    piece's left end) in ascending order, so tops[0] is the longest
    segment and bisect counts the segments above a height.

    splus: rising groups y = t + line, in descending offset (ascending
    x-intercept) order.  sminus: falling groups y = -t + line, in
    ascending intercept order."""

    splus: tuple[tuple[int, list[int]], ...]
    sminus: tuple[tuple[int, list[int]], ...]


def segment_sequences(cs: ChainSet) -> SegmentSequences:
    size = cs.size
    plus: dict[int, list[int]] = {}
    minus: dict[int, list[int]] = {}
    for v, a, b in zip(cs.ids, cs.lefts, cs.rights):
        c = b + size
        # the chain's peak is where its two lines meet: offset (c - a)/2,
        # height (c + a)/2; it is an end of the edge for x and y shapes
        apex = (c - a) // 2
        if not 0 <= apex <= size:
            raise InternalError(f"peak of vertex {v} not interior to edge {cs.edge}")
        top = -((c + a) // 2)
        if apex > 0:
            plus.setdefault(a, []).append(top)
        if apex < size:
            minus.setdefault(c, []).append(top)
    splus = tuple((a, sorted(tops)) for a, tops in sorted(plus.items(), reverse=True))
    sminus = tuple((c, sorted(tops)) for c, tops in sorted(minus.items()))
    return SegmentSequences(splus, sminus)


@dataclass(frozen=True)
class LevelChain:
    """x-monotone zigzag; points are the turn points plus both edge
    endpoints in integer units of 1/scale, segment slopes alternating
    between -1 and +1."""

    points: tuple[tuple[int, int], ...]
    size: int
    scale: int

    @property
    def length(self) -> Fraction:
        return Fraction(self.size, self.scale)

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        S = self.scale
        return tuple((Fraction(x, S), Fraction(y, S)) for x, y in self.points)

    @cached_property
    def _xs(self) -> list[Fraction]:
        return [x for x, _ in self.vertices]

    def value_at(self, t: Fraction) -> Fraction:
        if not ZERO <= t <= self.length:
            raise ValueError(f"offset {t} outside [0, {self.length}]")
        i = bisect_right(self._xs, t) - 1
        if i == len(self.vertices) - 1:
            return self.vertices[-1][1]
        x0, y0 = self.vertices[i]
        y1 = self.vertices[i + 1][1]
        slope = _ONE if y1 > y0 else -_ONE
        return y0 + slope * (t - x0)

    def lowest_scaled(self) -> tuple[int, int]:
        """Lowest point in units of 1/scale, ties to the smallest offset."""
        y, x = min((y, x) for x, y in self.points)
        return x, y

    def lowest(self) -> tuple[Fraction, Fraction]:
        x, y = self.lowest_scaled()
        return Fraction(x, self.scale), Fraction(y, self.scale)

    def to_json(self) -> list[list[str]]:
        return [[str(x), str(y)] for x, y in self.vertices]


def _above(tops: list[int], y: int) -> int:
    """Number of a group's segments whose highest point is strictly above
    y (tops holds the negated heights, ascending)."""
    return bisect_left(tops, -y)


def kth_level(cs: ChainSet, k: int) -> LevelChain:
    """k-th level of the chain set: at every offset t its value equals the
    k-th smallest chain value."""
    n = len(cs.ids)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    l = cs.size
    seqs = segment_sequences(cs)
    sp_line = [a for a, _ in seqs.splus]  # descending
    sp_tops = [tops for _, tops in seqs.splus]
    sm_line = [c for c, _ in seqs.sminus]  # ascending
    sm_tops = [tops for _, tops in seqs.sminus]
    # line parameters per group, for cursor placement by binary search
    sp_neg_off = [-a for a in sp_line]  # ascending
    sp_index = {a: i for i, a in enumerate(sp_line)}
    sm_index = {c: i for i, c in enumerate(sm_line)}

    at0 = sorted(cs.lefts)
    y1 = at0[k - 1]
    f0 = bisect_right(at0, y1)
    n_below = bisect_left(at0, y1)
    n_fall_at = sum(1 for a, b in zip(cs.lefts, cs.rights) if a == y1 and a == b + l)
    ip = sp_index.get(y1)
    im = sm_index.get(y1)

    vertices: list[tuple[int, int]] = [(0, y1)]
    fprime = f0
    pprime = (0, y1)

    RISING, FALLING = 0, 1
    if n_below + n_fall_at >= k:
        # enough mass on and below the falling line just right of t=0
        if im is None:
            raise InternalError("level starts falling but no falling group at start")
        mode, cur = FALLING, im
        pend = ip  # rising group whose crossing the level may turn onto
        sp_cur = (ip + 1) if ip is not None else bisect_right(sp_neg_off, -y1)
        sm_cur = 0  # reassigned at the first turn
        jp = 0
    else:
        if ip is None:
            raise InternalError("level starts rising but no rising group at start")
        mode, cur = RISING, ip
        jp = _above(sp_tops[ip], y1)
        sm_cur = (im + 1) if im is not None else bisect_right(sm_line, y1)
        sp_cur = 0
        pend = None

    guard = 0
    limit = 8 * (len(sp_line) + len(sm_line) + 4) * (n + 4)
    while True:
        guard += 1
        if guard > limit:
            raise InternalError("level sweep failed to terminate")
        if mode == RISING:
            tops = sp_tops[cur]
            a = sp_line[cur]
            xr0 = -tops[0] - a
            start_x = vertices[-1][0]
            turned = False
            while sm_cur < len(sm_line):
                c = sm_line[sm_cur]
                ctops = sm_tops[sm_cur]
                x_int = (c - a) // 2
                if x_int <= start_x:
                    sm_cur += 1
                    continue
                if x_int > xr0 or x_int < c + ctops[0] or x_int > l:
                    # even the longest pieces miss each other
                    sm_cur += 1
                    continue
                y_int = (c + a) // 2
                f_at = fprime + _above(ctops, y_int)
                jp = min(jp, _above(tops, y_int))
                if f_at - jp >= k:
                    # the falling line through here keeps at least k chains
                    # not above it, so the level turns now
                    vertices.append((x_int, y_int))
                    fprime = f_at
                    pprime = (x_int, y_int)
                    pend = cur
                    sp_cur = cur + 1
                    mode, cur = FALLING, sm_cur
                    turned = True
                    break
                fprime = f_at
                pprime = (x_int, y_int)
                sm_cur += 1
            if not turned:
                vertices.append((l, a + l))
                break
        else:
            c = sm_line[cur]
            xl0 = c + sm_tops[cur][0]
            start_x = vertices[-1][0]
            turned = False
            ran_out = False
            while True:
                if sp_cur >= len(sp_line):
                    ran_out = True
                else:
                    a = sp_line[sp_cur]
                    x_int = (c - a) // 2
                    if x_int <= start_x:
                        sp_cur += 1
                        continue
                    if x_int < xl0 or x_int > -sp_tops[sp_cur][0] - a or x_int > l:
                        sp_cur += 1
                        continue
                drop = _above(sp_tops[pend], pprime[1]) if pend is not None else 0
                f_at = fprime - drop
                if f_at < k:
                    # continuing past the last crossing starves the line;
                    # the level turned there, onto the group that crossed it
                    if pend is None:
                        raise InternalError("level must turn but has no rising group")
                    vertices.append(pprime)
                    jp = drop
                    sm_cur = cur + 1
                    sp_cur = pend + 1
                    mode, cur = RISING, pend
                    turned = True
                    break
                if ran_out:
                    break
                fprime = f_at
                pprime = (x_int, (c + a) // 2)
                pend = sp_cur
                sp_cur += 1
            if not turned and ran_out:
                vertices.append((l, c - l))
                break

    out = [vertices[0]]
    for p in vertices[1:]:
        if p != out[-1]:
            out.append(p)
    if out[0][0] != 0 or out[-1][0] != l:
        raise InternalError("level does not span the edge")
    rising = []
    for (x0, y0), (x1, yv1) in zip(out, out[1:]):
        if x1 <= x0:
            raise InternalError("level vertices not strictly x-monotone")
        if abs(yv1 - y0) != x1 - x0:
            raise InternalError("level segment with non-unit slope")
        rising.append(yv1 > y0)
    for s0, s1 in zip(rising, rising[1:]):
        if s0 == s1:
            raise InternalError("level alternation violated")
    return LevelChain(tuple(out), l, cs.scale)


def solve_unweighted_graph(g: Graph, k: int) -> Solution:
    """Optimal radius over all k-vertex connected subtrees of an
    unweighted graph, by taking each edge's k-th level at its lowest
    point.  Ties go to the smallest edge id, then the smallest offset.

    Edges are visited in ascending order of their k-th bound b, which no
    point of the edge's level lies below; the visit stops at the first
    edge with 2b (the bound in chain units) strictly above the lowest
    level point found so far.  The stop is strict because an edge whose
    bound equals that height may still tie it at a smaller edge id."""
    if not g.unit_weights:
        raise InstanceError("unweighted solver requires unit vertex weights")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    if k == 1 or g.n == 1:
        return Solution(ZERO, vertex_point(g, 1), frozenset({1}))
    dm = all_pairs_distances(g)
    # every edge's chains share the scale 2 * g.length_scale, so the
    # (y, edge id, x) keys compare as ints; bounds are in units of
    # 1/g.length_scale, as unit weights have weight_scale 1
    best = None
    for b, eid in kth_bounds(g, dm, k):
        if best is not None and 2 * b > best[0]:
            break
        level = kth_level(build_chains(g, dm, eid), k)
        x, y = level.lowest_scaled()
        key = (y, eid, x)
        if best is None or key < best:
            best = key
    y, eid, x = best
    scale = 2 * dm.scale
    lam = Fraction(y, scale)
    center = canonical_point(g, eid, Fraction(x, scale))
    covered = covered_subtree(g, dm, center, lam)
    subtree = trim_witness(g, dm, center, covered, k)
    return Solution(lam, center, subtree)
