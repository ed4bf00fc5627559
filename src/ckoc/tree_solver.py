"""Feasibility testing and optimal solvers on trees.

Critical points: for radius lam every vertex v determines one test point,
the point of v's root path at distance lam/w_v from v (the root when it
is closer).  Whenever any point of the tree covers k vertices at radius
lam, one of these n points does, so feasibility only ever probes them.

The weighted solver bisects the sorted pair radii w_u w_v d(u,v)/(w_u +
w_v), one of which is the optimum (see solve_weighted_tree), with the tree
feasibility test; their distances come from one table filled in BFS
order.  Past the arrangement search's enumeration threshold it runs the
counting arrangement search instead, over the distance lines of each
vertex from the centroids of its components, whose memory stays bounded.
Both solvers read one centroid decomposition, _centroid_levels.

The unweighted solver (unit vertex weights, rational lengths) searches
the optimal radius on an integer grid, between 0 and the k-th distance
from the outermost centroid.  A probe counts coverage with vectorized
ball counts over the centroid chains of the ends of each critical
point's edge, and nothing else.  With unit weights each vertex's count
is monotone in the radius, so each vertex has a threshold, the least
radius at which its critical point covers k.  The search keeps every
vertex whose threshold may be least: it bisects a block of those that
cover the most at the upper bracket down to their least threshold, then
counts the others once one grid step below it, and only those that still
cover k there go on to the next round.  The order in which vertices are
bisected decides the work, never the radius or the least id found (see
_least_radius).  A count over more than one block of vertices counts
each distinct critical point once: near the upper bracket many vertices
share one, the root above all.  Its engine roots the tree by an Euler
tour ranked in numpy and builds the centroid decomposition level by
level, all components of one level at once, from the rooted tree's shape
(_centroid_levels).  A level is a fixed number of numpy passes with no
sort: each component is a run of vertices in DFS order with their
subtree sizes in it, its centroid is read off those sizes, and the run
splits at the centroid into the next level's runs by computed offsets.
Each centroid distance comes from depths and a lowest common ancestor
that the same run gives.  It keeps ids as int32 while they fit and
counts the critical points of a probe in fixed blocks of vertices, so a
tree of a hundred thousand vertices stays in budget in time and in
memory.  The engine works at any length scale: its depths and packed
keys are int64 when the largest key fits, and Python ints in numpy
object arrays otherwise, through the same code.

Both solvers take their witness, the k covered vertices nearest to the
center, from one walk of the center's covered subtree.

Small trees build neither engine.  On a tree of at most _WALK_MAX = 64
vertices a feasibility probe runs that walk (covered_walk) from each
distinct critical point in id order until one covers k, with no spine
tree or coverage arrays.  A unit tree of at most _UNIT_WALK_MAX = 16
vertices goes to the weighted solver: the same radius, the same center
(the first critical point in id order that covers k) and the same
witness walk, so the same answer.  Per solve of k = 2, n/4, n/2, 3n/4
and n (CPU time, best of 3, 2-core machine, random, star, path,
caterpillar and broom trees), walks against the weighted engine took
0.33-0.44x at n = 16, 0.58-0.88x at n = 64, 0.79-1.22x at n = 100 and
1.05-1.69x at n = 200; unit trees through the weighted walks against the
unit engine took 0.55-0.67x at n = 16 and 0.93-1.30x at n = 32.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import arrangement_search
from .arrangement_search import (
    _INT_LIMIT,
    LineSet,
    _lowest_accepted,
    _sorted_ordinates,
    lowest_feasible_vertex,
)
from .general_feasibility import FeasibilityResult
from .graph_core import (
    ZERO,
    EdgePoint,
    Graph,
    InstanceError,
    InternalError,
    Solution,
    canonical_point,
    vertex_point,
)
from .tree_engine import (
    _rooted_arrays,
    binarize,
    build_coverage_arrays,
    query_at_least_k_at,
    query_count,
    spine_decompose,
)


# ---------------------------------------------------------------- context


# trees of at most this many vertices probe feasibility by covered walks,
# larger ones through the coverage engine of tree_engine; unit trees of at
# most _UNIT_WALK_MAX go to the weighted solver, larger ones to the unit
# engine (the module docstring has the timings behind both)
_WALK_MAX = 64
_UNIT_WALK_MAX = 16


class _TreeContext:
    """The tree rooted at 1 by breadth-first search, as _rooted_arrays
    gives it: parents, parent-edge ids and lengths, the BFS order, depths
    and ancestor jumps, shared across repeated feasibility probes; above
    _WALK_MAX vertices also the spine tree of the coverage engine, built
    on the binary transform."""

    def __init__(self, g: Graph):
        if not g.is_tree:
            raise InstanceError("tree solver requires a tree instance")
        self.g = g
        parent, plen, self.eid, children = _rooted_arrays(g, 1)
        self.parent, self.plen = parent, plen
        self.order = order = [1]
        for v in order:
            order.extend(children[v])
        self.dd = dd = [0] * (g.n + 1)
        for v in order[1:]:
            dd[v] = dd[parent[v]] + plen[v]
        up = [parent]
        for _ in range(max(0, g.n.bit_length() - 1)):
            prev = up[-1]
            up.append([prev[prev[v]] for v in range(g.n + 1)])
        self.up = up
        self.st = spine_decompose(binarize(g)) if g.n > _WALK_MAX else None

    def point(self, v: int, lam: Fraction) -> tuple[int, int, int]:
        """Critical point of v: on v's root path at distance lam/w_v.

        Returned as (c, n, d) in lowest terms, the point at distance
        n/(d*SL) from vertex c toward its parent, so equal points compare
        equal: (c, 0, 1) is vertex c itself.
        """
        g, dd = self.g, self.dd
        # lam/w_v is rn/qw in units of 1/SL
        rn = lam.numerator * g.weight_scale * g.length_scale
        if rn == 0:
            return v, 0, 1
        qw = lam.denominator * g.weights_int[v]
        target = dd[v] * qw - rn  # depth of the point, in units of 1/(qw*SL)
        if target <= 0:
            return 1, 0, 1
        # dd[a] * qw > target exactly when dd[a] > floor(target / qw)
        lim = target // qw
        c = v
        for row in reversed(self.up):
            a = row[c]
            if a and dd[a] > lim:
                c = a
        p = self.parent[c]
        if dd[p] * qw == target:
            return p, 0, 1
        n = dd[c] * qw - target
        h = math.gcd(n, qw)
        return c, n // h, qw // h

    def edge_point(self, pt: tuple[int, int, int]) -> EdgePoint:
        """The EdgePoint of a point given as point() returns it."""
        c, n, d = pt
        g = self.g
        if n == 0:
            return vertex_point(g, c)
        i = self.eid[c]
        # the offset from the edge's first end, in units of 1/(d*SL)
        at = n if g.eu[i] == c else g.lengths_int[i] * d - n
        return canonical_point(g, i, Fraction(at, d * g.length_scale))


# ---------------------------------------------------------------- feasibility


def _feasible_scan(ctx: _TreeContext, k: int, lam: Fraction):
    """First critical point x covering k vertices, as a hit (x, dist,
    engine), each distinct point counted once.  Without a spine tree the
    count is x's covered_walk, kept as dist, and engine is None; with one
    it is the engine's, dist is None and engine holds (st, ca)."""
    st = ctx.st
    ca = None if st is None else build_coverage_arrays(st, lam)
    seen = set()
    for v in ctx.g.vertices():
        pt = ctx.point(v, lam)
        if pt in seen:
            continue
        seen.add(pt)
        if ca is None:
            x = ctx.edge_point(pt)
            dist = covered_walk(ctx.g, x, lam)
            if len(dist) >= k:
                return x, dist, None
        # the tree's edge child c is also the transformed tree's vertex c
        elif query_at_least_k_at(st, ca, *pt, k):
            return ctx.edge_point(pt), None, (st, ca)
    return None


def is_feasible_tree(g: Graph, k: int, lam: Fraction) -> FeasibilityResult:
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    if lam < 0:
        return FeasibilityResult(False)
    ctx = _TreeContext(g)
    hit = _feasible_scan(ctx, k, lam)
    if hit is None:
        return FeasibilityResult(False)
    x, dist = _covered(hit)
    return FeasibilityResult(True, (x, frozenset(dist)))


def covered_walk(g: Graph, x: EdgePoint, lam: Fraction) -> dict[int, int]:
    """The covered subtree of the point x at radius lam >= 0 on a tree,
    each vertex with its distance from x in units of 1/(q*SL) for x.t =
    p/q: a walk from the ends of x's edge through the light vertices."""
    if x.edge < 0:
        return {1: 0}
    r, s = g.eu[x.edge], g.ev[x.edge]
    q = x.t.denominator
    a = x.t.numerator * g.length_scale
    li, wi, lq = g.lengths_int, g.weights_int, lam.denominator
    # w_v * d(x, v) <= lam  <=>  wi[v] * dist * lq <= gate
    gate = lam.numerator * g.weight_scale * q * g.length_scale
    dist: dict[int, int] = {}
    seen = {r, s}
    stack = []
    for v, dv in ((r, a), (s, q * li[x.edge] - a)):
        if wi[v] * dv * lq <= gate:
            dist[v] = dv
            stack.append(v)
    while stack:
        v = stack.pop()
        for u, eid in g.adj[v]:
            if u not in seen:
                seen.add(u)
                du = dist[v] + q * li[eid]
                if wi[u] * du * lq <= gate:
                    dist[u] = du
                    stack.append(u)
    return dist


def _covered(hit) -> tuple[EdgePoint, dict[int, int]]:
    """A _feasible_scan hit's point and its covered_walk; an engine hit's
    walk is taken here and checked against the engine's count."""
    x, dist, engine = hit
    if engine is not None:
        st, ca = engine
        dist = covered_walk(st.bt.g, x, ca.lam)
        if query_count(st, ca, x) != len(dist):
            raise InternalError("coverage walk disagrees with the engine count")
    return x, dist


def _nearest(dist: dict[int, int], k: int) -> list[int]:
    """The k vertices of a covered_walk nearest to its point, ties to the
    smaller id, nearest first."""
    return sorted(dist, key=lambda v: (dist[v], v))[:k]


# ---------------------------------------------------------------- weighted


def _pair_radii(ctx: _TreeContext) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pair radii w_u w_v d(u,v) / (w_u + w_v) over vertices
    u != v of ctx's tree, ascending, as reduced numerators and positive
    denominators.

    The distances come from one table indexed by BFS position: a vertex's
    row, up to its own position, is its parent's plus the parent-edge
    length, mirrored into its column.  In integer units the radius is wi_u
    wi_v d / (SW SL (wi_u + wi_v)); the arrays are int64 when those bounds
    fit and Python ints in object arrays otherwise, picked once as LineSet
    picks its dtype.
    """
    g, order = ctx.g, ctx.order
    wi = g.weights_int
    top = max(wi)
    sc = g.weight_scale * g.length_scale
    fits = max(2 * top * top * sum(g.lengths_int), 2 * top * sc) < _INT_LIMIT
    dt = np.dtype(np.int64 if fits else object)
    n = g.n
    pos = [0] * (n + 1)
    for i, v in enumerate(order):
        pos[v] = i
    dist = np.zeros((n, n), dtype=dt)
    for i in range(1, n):
        v = order[i]
        row = dist[pos[ctx.parent[v]], :i] + ctx.plen[v]
        dist[i, :i] = row
        dist[:i, i] = row
    # every pair once, through a mask of the upper triangle (n*n bytes,
    # not two index arrays); the table and the mask go before the products
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    d = dist[upper]
    del dist
    w = np.array([wi[v] for v in order], dtype=dt)
    wu = np.broadcast_to(w[:, None], (n, n))[upper]
    wv = np.broadcast_to(w, (n, n))[upper]
    del upper
    num = wu * wv
    num *= d
    del d
    wu += wv
    wu *= sc
    del wv
    return _sorted_ordinates(num, wu, ranked=False)[:2]


def _centroid_lines(g: Graph) -> LineSet:
    """Distance lines of every recursive centroid: vertex v in a component
    with centroid c contributes y = w_v (x + d(c,v)) and its mirror, so
    every pair radius appears as an intersection ordinate.  The counting
    search narrows their arrangement without enumerating it, so its memory
    stays bounded at any n.  The decomposition and the distances d(c,v)
    are _centroid_levels'."""
    parent, _eid, tin, tout, depth, _ = _euler_rooting(g, _id_dtype(g.n))
    # (slope, intercept) in integer units of 1/SW and 1/(SW*SL), each once;
    # depths are in units of 1/(2*SL)
    wi = g.weights_int
    aff: dict[tuple[int, int], None] = {}
    for v, _c, _b, twice in _centroid_levels(parent, tin, tout, depth):
        for u, d2 in zip(v.tolist(), twice.tolist()):
            w = wi[u]
            b = w * (d2 >> 1)
            aff[(w, b)] = aff[(-w, b)] = None
    return LineSet([m for m, _ in aff], [b for _, b in aff], [], g.weight_scale, g.length_scale)


def solve_weighted_tree(g: Graph, k: int, search: str = "auto") -> Solution:
    """Optimal radius, center point and k-vertex witness block for a
    weighted tree.

    For k >= 2 the optimum lambda* is a pair radius w_u w_v d(u,v) / (w_u +
    w_v), the point that balances u and v (Kariv & Hakimi 1979; Megiddo
    1983).  For a point x let b_v(x) be the largest w_u d(x,u) over the
    vertices u of the path from x to v; x covers k vertices at radius lam
    exactly when k of the b_v(x) are at most lam, so lambda* is the least
    over x of the k-th smallest b_v(x).  It is positive, as covering two
    vertices takes a positive radius.  At an optimal center x, call v
    tight when b_v(x) = lambda*, and let u(v) be a vertex attaining the
    maximum, at distance lambda*/w_u(v) > 0 from x.  Moving x a little
    toward one side (along its edge, or along one edge of the vertex it
    is) lowers b_v strictly for every v on that side and keeps below
    lambda* every b_v that was below it.  If every tight v lay on one side,
    k values would then fall below lambda*, which is least.  So tight
    vertices lie on two sides, and their u(v) and u(v') on two sides of x
    give w_u d(x,u) = w_u' d(x,u') = lambda* with d(u,u') = d(x,u) +
    d(x,u'), which is lambda* = w_u w_u' d(u,u') / (w_u + w_u').

    search "explicit" bisects the sorted pair radii of all n(n-1)/2 pairs
    (_pair_radii, from a table of every distance) with the feasibility
    test; "counting" runs the counting arrangement search over the
    centroid lines (_centroid_lines, from _centroid_levels), whose
    ordinates include every pair radius; "auto" takes the pair radii while there are at most
    arrangement_search._ENUM_THRESHOLD pairs, the most candidates the
    counting search ever enumerates, and counts above that.
    """
    if not g.is_tree:
        raise InstanceError("weighted tree solver requires a tree")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    if search == "auto":
        pairs = g.n * (g.n - 1) // 2
        search = "explicit" if pairs <= arrangement_search._ENUM_THRESHOLD else "counting"
    if search not in ("explicit", "counting"):
        raise ValueError(f"unknown search strategy {search!r}")
    if k == 1 or g.n == 1:
        return Solution(ZERO, vertex_point(g, 1), frozenset({1}))
    ctx = _TreeContext(g)
    memo: dict[Fraction, bool] = {}
    # the scan hit (point, and its walk or count arrays) of the lowest
    # feasible radius probed so far, kept so the witness needs no second
    # scan or build; one hit is kept at a time
    best_lam = best_hit = None

    def accept(lam: Fraction) -> bool:
        nonlocal best_lam, best_hit
        if lam not in memo:
            hit = _feasible_scan(ctx, k, lam) if lam >= 0 else None
            memo[lam] = hit is not None
            if hit is not None and (best_lam is None or lam < best_lam):
                best_lam, best_hit = lam, hit
        return memo[lam]

    if search == "explicit":
        lam = _lowest_accepted(*_pair_radii(ctx), accept)
    else:
        lam = lowest_feasible_vertex(_centroid_lines(g), accept, strategy="counting")
    if lam is None or best_lam != lam:
        raise InternalError("lowest candidate radius is not feasible")
    x, dist = _covered(best_hit)
    return Solution(lam, x, frozenset(_nearest(dist, k)))


# ---------------------------------------------------------------- unweighted


# the unit-tree engine counts the critical points of this many vertices at
# a time, so a probe's temporaries keep one size however large the tree
_COUNTS_BLOCK = 1 << 10
# the radius search bisects this many of its vertices first, those that
# cover the most at its upper bracket (see _least_radius)
_PIVOT_BLOCK = 1 << 10


def _id_bound(n: int) -> int:
    """A bound above every id the unit-tree engine numbers on n vertices:
    chain rows and branch ids stay below n * (log2 n + 2)."""
    return n * (n.bit_length() + 2) + 4


def _id_dtype(n: int) -> np.dtype:
    """The unit-tree engine's id dtype on n vertices: int32 when every id
    fits, int64 otherwise."""
    return np.dtype(np.int32 if _id_bound(n) < 1 << 31 else np.int64)


def _euler_rooting(g: Graph, idt: np.dtype):
    """The tree rooted at 1, from one Euler tour ranked by pointer jumping.

    Returns per vertex its parent (parent[1] = 0), parent-edge id (-1 at
    the root), DFS entry and exit times (tin[1] = 0, tout[v] = tin[v] +
    the size of v's subtree), all of dtype idt, and its depth in integer
    units of 1/(2 * g.length_scale): int64 when the lengths sum below the
    limit, Python ints otherwise.  Also returns the child of the root at
    which the tour starts (0 on a single vertex).
    """
    n, nd = g.n, 2 * g.m
    parent = np.zeros(n + 1, dtype=idt)
    eid = np.full(n + 1, -1, dtype=idt)
    tin = np.zeros(n + 1, dtype=idt)
    tout = np.full(n + 1, n, dtype=idt)
    ldt = np.dtype(np.int64 if 2 * sum(g.lengths_int) < _INT_LIMIT else object)
    depth = np.zeros(n + 1, dtype=ldt)
    if not nd:
        return parent, eid, tin, tout, depth, 0
    # directed edge j runs from tail[j] to tail[j ^ 1]; 2e and 2e + 1 are
    # the two ways along edge e
    tail = np.empty(nd, dtype=np.intp)
    tail[0::2] = g.eu
    tail[1::2] = g.ev
    seq = np.arange(nd)
    rev = seq ^ 1
    out = np.argsort(tail, kind="stable")
    at = np.empty_like(seq)
    at[out] = seq
    first = np.zeros(n + 2, dtype=np.intp)
    np.cumsum(np.bincount(tail, minlength=n + 1), out=first[1:])
    # the tour leaves a vertex, entered by j, along the edge after j's
    # reverse in its cyclic edge list; it starts on the root's first edge,
    # so the edge into the root before that one ends it
    cyc = np.arange(1, nd + 1)
    cyc[first[2:] - 1] = first[1:-1]
    succ = out[cyc[at[rev]]]
    last = out[first[2] - 1] ^ 1
    succ[last] = last
    # left[j]: edges after j up to the last, summed along succ by doubling
    left = np.ones(nd, dtype=np.intp)
    left[last] = 0
    for _ in range(nd.bit_length()):
        left += left[succ]
        succ = succ[succ]
    pos = nd - 1 - left
    tour = np.empty_like(seq)
    tour[pos] = seq
    down = pos < pos[rev]  # traversed away from the root
    dj = np.flatnonzero(down)
    uj = dj ^ 1
    child, at = tail[uj], pos[dj]
    parent[child] = tail[dj]
    eid[child] = dj >> 1
    going = down[tour]
    entered = np.cumsum(going)
    tin[child] = entered[at]
    tout[child] = entered[pos[uj]] + 1
    step = np.array(g.lengths_int, dtype=ldt)[tour >> 1]
    step *= np.where(going, 2, -2)
    depth[child] = np.cumsum(step)[at]
    return parent, eid, tin, tout, depth, int(tail[out[first[1]] ^ 1])


def _centroid_levels(parent, tin, tout, depth):
    """The recursive centroid decomposition, one level at a time, on the
    tree rooted at 1 given by parent (parent[1] = 0), DFS entry and exit
    times (tin[1] = 0), integer arrays of one dtype, and depths.

    Yields arrays (v, c, b, d) per level, outermost first, with one row
    per vertex v of the component of each centroid c: b is v's branch id
    (the part of the component without c that holds v, numbered from 1
    across the whole decomposition; 0 for c itself) and d = d(c, v) in
    the units and dtype of depth; v is intp, c and b have tin's dtype.  A
    vertex has a row on every level up to the one where it is a centroid.
    A level's rows run by component, in order of its top vertex's id (the
    one nearest the root), and in DFS order within one.  The centroids
    depend on the components alone, so one decomposition serves every
    length and weight.

    Each component is a run of the live vertices in DFS order, each with
    its subtree size in the component, taken once from tout - tin.  Its
    centroid minimizes the largest remaining part, ties to the smaller
    id: the vertices whose subtree holds more than half of the component
    form a path from the top, whose deepest (last) vertex leaves no part
    above half, and only a child of it holding exactly half ties with it.
    Taking c out lowers only the sizes of its proper ancestors in the
    component, by c's.  In the run c's subtree is one block, each child
    of c heading a block of it, and the rest is the part above c, so the
    next level's runs are placed by offsets in one scatter.  Along the run
    lca(c, v) changes only at c, at its ancestors and where their
    subtrees end, so one running maximum over those marks gives it.  A
    level costs a fixed number of numpy passes over its rows and the ids,
    with no sort or search.
    """
    n = parent.size - 1
    idt = tin.dtype
    # gathers run faster on intp indices
    parent, tin, tout = (x.astype(np.intp) for x in (parent, tin, tout))
    at = np.arange(n + 1)
    # the live vertices, one run per component: first and span give the
    # runs' starts and lengths, size each vertex's subtree in its component
    verts = np.empty(n, dtype=np.intp)
    verts[tin[1:]] = at[1:]
    size = (tout - tin)[verts]
    first, span = at[:1], np.array([n])
    # by id: the size of the component a vertex heads next, and an index
    part = np.zeros(n + 1, dtype=np.intp)
    slot = np.empty(n + 1, dtype=np.intp)

    def split(verts, size, first, span, nb):
        """One level's rows, and the next level's runs; the level's
        temporaries go when it returns, before the caller keeps its rows."""
        m, k = verts.size, first.size
        pos = at[:m]
        half = 2 * size - np.repeat(span, span)
        at_c = np.maximum.reduceat(np.where(half > 0, pos, 0), first)
        tie = np.flatnonzero(half == 0)
        tv = verts[tie]
        tp = parent[tv]
        win = tv < tp
        slot[verts[at_c]] = at[:k]
        at_c[slot[tp[win]]] = tie[win]
        c, z = verts[at_c], size[at_c]
        cr = np.repeat(c.astype(idt), span)
        cat, zr = np.repeat(at_c, span), np.repeat(z, span)
        rel = pos - cat
        below = (rel > 0) & (rel < zr)
        # c and its ancestors, from the top down
        path = np.flatnonzero((rel <= 0) & (rel + size > 0))
        # lca(c, v) is the last of them at or before v, until v leaves the
        # subtree of one of them (other than the top); from there on it is
        # that one's parent, the shallowest one's where several subtrees end
        out, par = path[1:], path[:-1]
        end = out + size[out]
        edge = np.zeros(m + 1, dtype=bool)
        edge[first] = True
        edge[m] = True
        leave = ~edge[out] & ~edge[end] & (np.diff(end, prepend=-1) != 0)
        end, par = end[leave], par[leave]
        lca = np.zeros(m, dtype=np.intp)
        lca[path] = path
        lca[end] = end
        np.maximum.accumulate(lca, out=lca)
        hold = np.empty(m, dtype=np.intp)
        hold[path] = path
        hold[end] = par
        dv = depth[verts]
        d = dv + dv[cat]
        d -= 2 * dv[hold[lca]]
        size[path] -= zr[path]
        # the next runs, by top id: c's children, and the run's top when c
        # is not it, each with its component's size
        hp = np.flatnonzero(below & (parent[verts] == cr))
        up = at_c != first
        fu, cu = first[up], at_c[up]
        part[verts[hp]] = size[hp]
        part[verts[fu]] = (span - z)[up]
        tops = np.flatnonzero(part)
        lens = part[tops]
        part[tops] = 0
        off = np.cumsum(lens) - lens
        slot[tops] = at[: tops.size]
        hr, ur = slot[verts[hp]], slot[verts[fu]]
        # the rows of one segment (a child's block, the part above c before
        # and after c's subtree, or c alone) move by one shift and share a
        # branch; c goes to a slot past the end
        su = cu + z[up]
        sm = su < fu + span[up]
        bnd = np.concatenate((hp, fu, su[sm], at_c))
        new = np.concatenate((off[hr], off[ur], off[ur[sm]] + (cu - fu)[sm], np.full(k, m - k)))
        run = np.concatenate((hr, ur, ur[sm], np.full(k, -1 - nb)))
        seg = np.zeros(m, dtype=np.intp)
        seg[bnd] = bnd
        np.maximum.accumulate(seg, out=seg)
        shift = np.empty(m, dtype=np.intp)
        shift[bnd] = new - bnd
        bid = np.empty(m, dtype=idt)
        bid[bnd] = run + (nb + 1)
        to = pos + shift[seg]
        nxt = np.empty(m - k + 1, dtype=np.intp)
        nxt[to] = verts
        size_nxt = np.empty_like(nxt)
        size_nxt[to] = size
        return (verts, cr, bid[seg], d), (nxt[:-1], size_nxt[:-1], off, lens)

    # branches are numbered by level, and within one by the id of the top
    # of the component each becomes
    nb = 0
    while verts.size:
        rows, (verts, size, first, span) = split(verts, size, first, span, nb)
        nb += first.size
        yield rows


def _centroid_pack(n: int, levels, depth, stride: int, idt: np.dtype):
    """The rows (v, c, b, d) of _centroid_levels, ids of dtype idt,
    flattened for vectorized ball counts: per-vertex chains (centroid,
    distance, branch id) from the outermost centroid in, plus the sorted
    packed keys centroid * stride + distance and branch * stride +
    distance, with the start of each centroid's and each branch's run.
    Distances and keys take the dtype of the depths."""
    # a vertex has one row per level up to its own, so its chain is those
    # rows in level order
    ch_len = np.zeros(n + 1, dtype=idt)
    rows = []
    for row in levels:
        ch_len[row[0]] = len(rows) + 1
        rows.append(row)
    dt = depth.dtype
    # the chains follow the outermost level's rows, in DFS order, as every
    # level's rows do within a component, so each level's rows land in
    # ascending runs
    v0 = rows[0][0]
    lens = ch_len[v0]
    ch_off = np.zeros(n + 1, dtype=idt)
    ch_off[v0] = np.cumsum(lens) - lens
    total = int(lens.sum())
    ch_c = np.empty(total, dtype=idt)
    ch_b = np.empty(total, dtype=idt)
    ch_d = np.empty(total, dtype=dt)
    for level in range(len(rows)):
        v, c, b, d = rows[level]
        rows[level] = None  # each level is freed once its rows are placed
        at = ch_off[v] + level
        ch_c[at] = c
        ch_b[at] = b
        ch_d[at] = d
    fulls = ch_c.astype(dt)
    fulls *= stride
    fulls += ch_d
    fulls.sort()
    full_start = np.searchsorted(fulls, np.arange(n + 1, dtype=dt) * stride).astype(idt)
    brs = ch_b.astype(dt)
    brs *= stride
    brs += ch_d
    brs.sort()
    brs = brs[n:]  # each vertex's own row, branch 0 at distance 0, sorts first
    nbid = int(ch_b.max()) + 1
    br_start = np.searchsorted(brs, np.arange(nbid, dtype=dt) * stride).astype(idt)
    return ch_off, ch_len, ch_c, ch_d, ch_b, fulls, full_start, brs, br_start


class _UnweightedEngine:
    """Integer-scaled coverage counting at many critical points at once.
    Ids are of the dtype _id_dtype picks from n; depths, distances and
    packed keys are int64 when the largest key fits and Python ints
    otherwise."""

    def __init__(self, g: Graph):
        n = g.n
        self.g = g
        self.n = n
        self.sc2 = 2 * g.length_scale
        idt = _id_dtype(n)
        parent, eid, tin, tout, depth, self.root_child = _euler_rooting(g, idt)
        self.parent, self.eid = parent, eid
        self.maxdepth = int(depth.max())
        self.stride = stride = 2 * self.maxdepth + 3
        self.dt = dt = np.dtype(np.int64 if _id_bound(n) * stride < _INT_LIMIT else object)
        self.depth_np = dn = depth.astype(dt, copy=False)
        dn[0] = -1  # below every depth, so no lift passes the root
        # each vertex's depth by rank among the distinct depths, which keys
        # its critical point at any radius (see counts)
        ranks = np.unique(dn, return_inverse=True)[1]
        self.depth_rank = ranks.astype(idt)
        self.depth_ranks = int(ranks.max()) + 1
        (
            self.ch_off,
            self.ch_len,
            self.ch_c,
            self.ch_d,
            self.ch_b,
            self.fulls,
            self.full_start,
            self.brs,
            self.br_start,
        ) = _centroid_pack(n, _centroid_levels(parent, tin, tout, dn), dn, stride, idt)
        ups = [parent]
        for _ in range(max(0, n.bit_length() - 1)):
            ups.append(ups[-1][ups[-1]])
        self.ups = ups
        self.verts = np.arange(1, n + 1, dtype=idt)

    def _ball(self, o: np.ndarray, rho: np.ndarray, e: np.ndarray, rho_e: np.ndarray) -> np.ndarray:
        """The number of vertices within rho[i] of o[i] or within rho_e[i]
        of e[i], for o a nonempty array of ids and e[i] either o[i] or a
        neighbour of it with the shorter chain.

        Row j of o[i]'s chain, with centroid c, counts the vertices of c's
        component less those of o[i]'s branch there: those whose path from
        o[i] meets c first of all centroids, at d(o[i], c) plus their own
        distance from c.  Two neighbours share every component until one of
        them is a centroid, so e[i]'s chain is a prefix of o[i]'s.  On
        those rows a vertex u counted at c lies d(c, u) beyond c from either
        end, so it is in one of the balls when d(c, u) is within the larger
        of the two bounds."""
        ln = self.ch_len[o]
        first = np.cumsum(ln) - ln  # each vertex's first row among the gathered ones
        j = np.arange(int(first[-1] + ln[-1])) - np.repeat(first, ln)  # row within its chain
        at = np.repeat(self.ch_off[o], ln) + j
        bound = np.repeat(rho, ln) - self.ch_d[at]
        both = j < np.repeat(self.ch_len[e], ln)
        at_e = np.repeat(self.ch_off[e], ln)[both] + j[both]
        bound[both] = np.maximum(bound[both], np.repeat(rho_e, ln)[both] - self.ch_d[at_e])
        dt, stride = self.dt, self.stride
        bound = np.minimum(np.maximum(bound, -1), stride - 2)
        cc, bbid = self.ch_c[at].astype(np.intp), self.ch_b[at].astype(np.intp)
        f = (
            np.searchsorted(self.fulls, cc.astype(dt, copy=False) * stride + bound, side="right")
            - self.full_start[cc]
        )
        br = (
            np.searchsorted(self.brs, bbid.astype(dt, copy=False) * stride + bound, side="right")
            - self.br_start[bbid]
        )
        return np.add.reduceat(f - br, first)

    def locate(self, radius: int, verts: np.ndarray):
        """Edge child and target depth of the critical points of the
        vertices in verts, an array of ids."""
        dn = self.depth_np
        cur = verts.astype(np.intp)
        td = np.maximum(dn[cur] - radius, 0)
        for row in reversed(self.ups):
            anc = row[cur]
            cur = np.where(dn[anc] > td, anc, cur)
        # only the root lifts to itself; any child of it will do, as the
        # point then sits on the root, the parent end of every such edge
        cur[cur == 1] = self.root_child
        return cur, td

    def edge_point(self, radius: int, v: int) -> EdgePoint:
        """The EdgePoint of v's critical point at the radius."""
        (c,), (td,) = self.locate(radius, np.array([v]))
        g = self.g
        if td == 0:
            return vertex_point(g, 1)
        p, i = int(self.parent[c]), int(self.eid[c])
        # the offset from the edge's first end, in units of 1/(2*SL)
        at = int(td - self.depth_np[p])
        if g.eu[i] != p:
            at = 2 * g.lengths_int[i] - at
        return canonical_point(g, i, Fraction(at, self.sc2))

    def counts(self, radius: int, verts: np.ndarray | None = None) -> np.ndarray:
        """Coverage count at the radius of the critical point of each vertex
        in verts, an array of ids (all vertices in id order when omitted).

        A call on more than _COUNTS_BLOCK vertices locates their critical
        points, then counts each distinct point once, both _COUNTS_BLOCK at
        a time, and gives every vertex the count of its point.  v's point
        lies on the edge into its edge child at v's depth less the radius,
        so the key (edge child, rank of v's depth) names it; every point at
        the root is one key, whichever child locate gives it.  The key is
        int64 on either depth dtype."""
        if verts is None:
            verts = self.verts
        if 0 < verts.size <= _COUNTS_BLOCK:
            return self._point_counts(radius, *self.locate(radius, verts))
        ch = np.empty(verts.size, dtype=np.intp)
        td = np.empty(verts.size, dtype=self.dt)
        for lo in range(0, verts.size, _COUNTS_BLOCK):
            hi = lo + _COUNTS_BLOCK
            ch[lo:hi], td[lo:hi] = self.locate(radius, verts[lo:hi])
        key = ch.astype(np.int64)
        key *= self.depth_ranks
        key += self.depth_rank[verts]
        key[td == 0] = -1
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        ch, td = ch[first], td[first]
        out = np.empty(first.size, dtype=np.int64)
        for lo in range(0, first.size, _COUNTS_BLOCK):
            hi = lo + _COUNTS_BLOCK
            out[lo:hi] = self._point_counts(radius, ch[lo:hi], td[lo:hi])
        return out[inv]

    def _point_counts(self, radius: int, ch: np.ndarray, td: np.ndarray) -> np.ndarray:
        """Coverage count at the radius of the points at depth td[i] on the
        edge into ch[i], as locate gives them: a vertex is covered when it
        lies within the radius less the point's distance to one end of the
        edge, from that end."""
        p = self.parent[ch].astype(np.intp)
        rho_p = radius - (td - self.depth_np[p])
        rho_ch = radius - (self.depth_np[ch] - td)
        # the end with the longer chain leads
        lead = self.ch_len[ch] > self.ch_len[p]
        o, e = np.where(lead, ch, p), np.where(lead, p, ch)
        return self._ball(o, np.where(lead, rho_ch, rho_p), e, np.where(lead, rho_p, rho_ch))


def solve_unweighted_tree(g: Graph, k: int) -> Solution:
    """Optimal radius, center point and k-vertex witness block for a tree
    with unit vertex weights."""
    if not g.is_tree:
        raise InstanceError("unweighted tree solver requires a tree")
    if not g.unit_weights:
        raise InstanceError("unweighted tree solver requires unit vertex weights")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    if k == 1 or g.n == 1:
        return Solution(ZERO, vertex_point(g, 1), frozenset({1}))
    if g.n <= _UNIT_WALK_MAX:
        # the same radius, center rule and witness walk, without an engine
        return solve_weighted_tree(g, k)
    eng = _UnweightedEngine(g)
    radius, v_star = _least_radius(eng, k)
    return _unweighted_solution(g, eng, k, radius, v_star)


def _least_radius(eng: _UnweightedEngine, k: int) -> tuple[int, int]:
    """Least grid radius at which some critical point covers k vertices
    (k >= 2), and the least vertex id whose critical point does.

    A vertex's threshold is the least radius at which its critical point
    covers k.  The search works in rounds that keep one invariant: alive
    holds every vertex whose threshold is at most hi, and every threshold
    is above lo.  A round bisects over (lo, hi) only the _PIVOT_BLOCK alive
    vertices that cover the most at hi, down to their least threshold phi,
    then counts the other alive vertices once at phi - 1.  Those that cover
    k there are the alive vertices of the next round, at hi = phi - 1.  If
    none does, no threshold is below phi, and the answer is phi with the
    least id among the block's vertices at phi and the others that cover k
    at phi.  Which vertices form the block decides only how many rounds
    run: each round keeps every vertex of the least threshold, and the
    last one compares every vertex of threshold phi.  With at most
    _PIVOT_BLOCK vertices alive, a round is one bisection of them all.
    """
    # The ball around the outermost centroid c, whose component is the
    # whole tree, holds k vertices at its k-th distance, so some critical
    # point covers k there too.
    c = int(eng.ch_c[eng.ch_off[1]])
    kth = int(eng.fulls[eng.full_start[c] + k - 1]) - c * eng.stride
    lo, hi = 0, min(eng.maxdepth, kth)
    cnt = eng.counts(hi)
    ok = cnt >= k
    alive, cnt = eng.verts[ok], cnt[ok]
    if not alive.size:
        raise InternalError("upper bracket probe found no k-point cover")
    # With unit weights, x_v(r') lies at most r' - r above x_v(r) on v's
    # root path for r < r', so B(x_v(r), r) lies in B(x_v(r'), r') and v's
    # count never falls as the radius grows: a vertex covers k exactly at
    # the radii from its threshold on.  lo = 0 holds as no radius-0 point
    # covers two vertices.
    while True:
        if alive.size > _PIVOT_BLOCK:
            top = np.sort(np.argpartition(-cnt, _PIVOT_BLOCK - 1)[:_PIVOT_BLOCK])
            block, rest = alive[top], np.delete(alive, top)
        else:
            block, rest = alive, alive[:0]
        low = lo
        while hi - low > 1:
            mid = (low + hi) // 2
            ok = eng.counts(mid, block) >= k
            if ok.any():
                hi, block = mid, block[ok]
            else:
                low = mid
        # hi is phi now, and block holds the block's vertices of threshold
        # phi; the rest have thresholds above lo, so none below phi when
        # phi - 1 = lo
        if rest.size and hi - 1 > lo:
            cnt = eng.counts(hi - 1, rest)
            ok = cnt >= k
            if ok.any():
                hi, alive, cnt = hi - 1, rest[ok], cnt[ok]
                continue
        v = int(block[0])
        rest = rest[rest < v]
        if rest.size:
            ok = eng.counts(hi, rest) >= k
            if ok.any():
                v = int(rest[ok][0])
        return hi, v


def _unweighted_solution(
    g: Graph, eng: _UnweightedEngine, k: int, radius: int, v_star: int
) -> Solution:
    """The solution centered at v_star's critical point at the radius, with
    the k vertices nearest to it, ties to the smaller id."""
    center = eng.edge_point(radius, v_star)
    lam = Fraction(radius, eng.sc2)
    # with unit weights the covered subtree is the lam-ball, which holds
    # the k nearest vertices; its distances are in units of 1/(q*SL)
    dist = covered_walk(g, center, lam)
    chosen = _nearest(dist, k)
    if len(chosen) < k or 2 * dist[chosen[-1]] != radius * center.t.denominator:
        raise InternalError("witness selection does not realize the radius")
    return Solution(lam, center, frozenset(chosen))
