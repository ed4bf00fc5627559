"""Feasibility testing and optimal solvers on trees.

Critical points: for radius lam every vertex v determines one test point,
the point of v's root path at distance lam/w_v from v (the root when it
is closer).  Whenever any point of the tree covers k vertices at radius
lam, one of these n points does, so feasibility only ever probes them.

The weighted solver collects candidate radii as intersection ordinates of
distance lines generated by a recursive centroid decomposition and runs
the arrangement search over the tree feasibility test.

The unweighted solver (unit vertex weights, rational lengths) binary
searches the optimal radius on an integer grid, between 0 and the k-th
distance from the outermost centroid.  A probe counts coverage with
vectorized subtree and centroid ball counts, at the critical points of
only those vertices that covered k at every feasible probe so far: with
unit weights each vertex's count is monotone in the radius, so the rest
cannot cover k at any lower probe.  Its engine builds the centroid
decomposition level by level in numpy (all components of one level at
once, from the rooted tree's shape) and takes each centroid distance from
depths and one lowest common ancestor in int64.  This keeps trees with a
hundred thousand vertices in budget.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arrangement_search import LineSet, lowest_feasible_vertex
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
    _RootedDistances,
    _rooted_arrays,
    binarize,
    build_coverage_arrays,
    query_at_least_k_at,
    query_count,
    spine_decompose,
)


# ---------------------------------------------------------------- context


class _TreeContext:
    """Rooted arrays, ancestor jumps and the coverage engine for one tree,
    shared across repeated feasibility probes."""

    def __init__(self, g: Graph):
        if not g.is_tree:
            raise InstanceError("tree solver requires a tree instance")
        self.g = g
        parent, plen, self.eid, children = _rooted_arrays(g, 1)
        self.rd = _RootedDistances(g.n, 1, parent, plen, children)
        up = [parent[:]]
        for _ in range(max(0, g.n.bit_length() - 1)):
            prev = up[-1]
            up.append([prev[prev[v]] for v in range(g.n + 1)])
        self.up = up
        self._st = None

    def spine(self):
        if self._st is None:
            self._st = spine_decompose(binarize(self.g))
        return self._st

    def point(self, v: int, lam: Fraction) -> tuple[int, int, int]:
        """Critical point of v: on v's root path at distance lam/w_v.

        Returned as (c, n, d) in lowest terms, the point at distance
        n/(d*SL) from vertex c toward its parent, so equal points compare
        equal: (c, 0, 1) is vertex c itself.
        """
        g, dd = self.g, self.rd.dd
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
        p = self.rd.parent[c]
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
        e = g.edges[self.eid[c]]
        ds = Fraction(n, d * g.length_scale)
        return canonical_point(g, e.id, ds if e.u == c else e.length - ds)

    def point_distance(self, x: EdgePoint, u: int) -> Fraction:
        sl = self.g.length_scale
        if x.edge < 0:
            return Fraction(self.rd.d(1, u), sl)
        e = self.g.edges[x.edge]
        # both routes in units of 1/(b*SL) for x.t = a/b
        a, b = x.t.numerator * sl, x.t.denominator
        via_u = a + b * self.rd.d(e.u, u)
        via_v = b * (self.g.lengths_int[e.id] + self.rd.d(e.v, u)) - a
        return Fraction(min(via_u, via_v), b * sl)


# ---------------------------------------------------------------- feasibility


def _feasible_scan(ctx: _TreeContext, k: int, lam: Fraction):
    """First critical point covering k vertices, with the engine state."""
    st = ctx.spine()
    ca = build_coverage_arrays(st, lam, kmax=k)
    seen = set()
    for v in ctx.g.vertices():
        pt = ctx.point(v, lam)
        if pt in seen:
            continue
        seen.add(pt)
        # the tree's edge child c is also the transformed tree's vertex c
        if query_at_least_k_at(st, ca, *pt, k):
            return ctx.edge_point(pt), st, ca
    return None


def is_feasible_tree(g: Graph, k: int, lam: Fraction, _ctx=None) -> FeasibilityResult:
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    if lam < 0:
        return FeasibilityResult(False)
    ctx = _ctx if _ctx is not None else _TreeContext(g)
    hit = _feasible_scan(ctx, k, lam)
    if hit is None:
        return FeasibilityResult(False)
    return FeasibilityResult(True, _witness(ctx, k, hit))


def _witness(ctx: _TreeContext, k: int, hit) -> tuple[EdgePoint, frozenset[int]]:
    """The k vertices nearest to a _feasible_scan hit's point, ties to the
    smaller id."""
    x, st, ca = hit
    covered = query_count(st, ca, x, report=True).reported
    if len(covered) < k:
        raise InternalError("coverage report disagrees with the k test")
    order = sorted(covered, key=lambda u: (ctx.point_distance(x, u), u))
    return x, frozenset(order[:k])


# ---------------------------------------------------------------- weighted


def _centroids(n: int, adj):
    """Recursive centroid decomposition of a tree given as adjacency lists
    of (neighbor, length), starting from the component of vertex 1.

    Yields (c, bfs, dist, br) per centroid c: the vertices of c's component
    in BFS order from c, and vertex-indexed arrays with each one's distance
    from c and branch id (the subtree of c it lies in, numbered from 1
    across the whole decomposition; 0 for c itself).  dist and br are
    scratch arrays, overwritten on the next step.  A component's centroid
    minimizes its largest remaining part, ties to the smaller id.
    """
    alive = bytearray([1]) * (n + 1)
    par_t = [0] * (n + 1)
    size_t = [0] * (n + 1)
    heavy_t = [0] * (n + 1)
    dist_t = [0] * (n + 1)
    br_t = [0] * (n + 1)
    seen = [0] * (n + 1)
    stamp = 0
    nbid = 1
    stack = [1]
    while stack:
        seed = stack.pop()
        if not alive[seed]:
            continue
        stamp += 1
        comp = [seed]
        seen[seed] = stamp
        par_t[seed] = 0
        for v in comp:
            for u, _l in adj[v]:
                if alive[u] and seen[u] != stamp:
                    seen[u] = stamp
                    par_t[u] = v
                    comp.append(u)
        for v in comp:
            size_t[v] = 1
            heavy_t[v] = 0
        for v in reversed(comp):
            p = par_t[v]
            if p:
                size_t[p] += size_t[v]
                if size_t[v] > heavy_t[p]:
                    heavy_t[p] = size_t[v]
        total = len(comp)
        c = comp[0]
        best = None
        for v in comp:
            other = total - size_t[v]
            score = heavy_t[v] if heavy_t[v] > other else other
            if best is None or score < best or (score == best and v < c):
                best, c = score, v
        stamp += 1
        seen[c] = stamp
        dist_t[c] = 0
        br_t[c] = 0
        bfs = [c]
        for v in bfs:
            for u, l in adj[v]:
                if alive[u] and seen[u] != stamp:
                    seen[u] = stamp
                    dist_t[u] = dist_t[v] + l
                    if v == c:
                        br_t[u] = nbid
                        nbid += 1
                    else:
                        br_t[u] = br_t[v]
                    bfs.append(u)
        yield c, bfs, dist_t, br_t
        alive[c] = 0
        for u, _l in adj[c]:
            if alive[u]:
                stack.append(u)


def _centroid_lines(g: Graph) -> LineSet:
    """Distance lines of every recursive centroid: vertex v in a component
    with centroid c contributes y = w_v (x + d(c,v)) and its mirror, so the
    optimal radius of any binding pair appears as an intersection
    ordinate."""
    # The Python generator, not the engine's _centroid_levels: it keeps
    # distances as Python ints at any length scale, where int64 would
    # overflow, and on trees with n <= 10, which this solver mostly sees,
    # it costs ~30 us per tree against ~440 us for the array version.
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for e in g.edges:
        l = g.lengths_int[e.id]
        adj[e.u].append((e.v, l))
        adj[e.v].append((e.u, l))
    # (slope, intercept) in integer units of 1/SW and 1/(SW*SL), each once
    wi = g.weights_int
    aff: dict[tuple[int, int], None] = {}
    for _c, bfs, dist, _br in _centroids(g.n, adj):
        for v in bfs:
            w = wi[v]
            b = w * dist[v]
            aff[(w, b)] = aff[(-w, b)] = None
    return LineSet([m for m, _ in aff], [b for _, b in aff], [], g.weight_scale, g.length_scale)


def solve_weighted_tree(g: Graph, k: int, search: str = "explicit") -> Solution:
    """Optimal radius, center point and k-vertex witness block for a
    weighted tree."""
    if not g.is_tree:
        raise InstanceError("weighted tree solver requires a tree")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    if k == 1 or g.n == 1:
        return Solution(ZERO, vertex_point(g, 1), frozenset({1}))
    ctx = _TreeContext(g)
    memo: dict[Fraction, bool] = {}
    # the scan hit of the lowest feasible radius probed so far, kept so
    # the witness needs no second scan; one hit at a time bounds memory
    best_lam = best_hit = None

    def accept(lam: Fraction) -> bool:
        nonlocal best_lam, best_hit
        if lam not in memo:
            hit = _feasible_scan(ctx, k, lam) if lam >= 0 else None
            memo[lam] = hit is not None
            if hit is not None and (best_lam is None or lam < best_lam):
                best_lam, best_hit = lam, hit
        return memo[lam]

    ls = _centroid_lines(g)
    lam = lowest_feasible_vertex(ls, accept, strategy=search)
    accept(lam)  # scans only if the search never probed its answer
    if best_lam != lam:
        raise InternalError("lowest candidate radius is not feasible")
    x, block = _witness(ctx, k, best_hit)
    return Solution(lam, x, block)


# ---------------------------------------------------------------- unweighted


def _dfs_depths(g: Graph, children: list[list[int]], eid: list[int]):
    """Depths in integer units of 1/(2 * g.length_scale), depths in edges,
    and DFS entry/exit times of the tree rooted at 1, children visited in
    list order."""
    n = g.n
    li = g.lengths_int
    depth = [0] * (n + 1)
    udepth = [0] * (n + 1)
    tin = [0] * (n + 1)
    tout = [0] * (n + 1)
    timer = 1
    stack = [(1, 0)]
    while stack:
        v, ci = stack[-1]
        if ci < len(children[v]):
            stack[-1] = (v, ci + 1)
            c = children[v][ci]
            depth[c] = depth[v] + 2 * li[eid[c]]
            udepth[c] = udepth[v] + 1
            tin[c] = timer
            timer += 1
            stack.append((c, 0))
        else:
            stack.pop()
            tout[v] = timer
    return depth, udepth, tin, tout


def _centroid_levels(parent, udepth, tin, tout):
    """The centroid decomposition of _centroids, one level at a time, on
    int64 arrays of the tree rooted at 1: parent (parent[1] = 0), depths
    in edges, and DFS entry/exit times (tin[1] = 0).

    Returns int64 arrays (v, c, b, a) with one row per vertex v of the
    component of each centroid c, outermost level first: b is v's branch
    id (the part of the component without c that holds v, numbered from 1
    across the whole decomposition; 0 for c itself) and a = lca(c, v).
    It reads no length: the centroids, chosen from the components alone,
    are those of _centroids; only the branch ids are numbered differently.
    """
    n = parent.size - 1
    big = n + 1
    # For tin[u] < tin[v], lca(u, v) is the shallowest parent of the
    # vertices at DFS positions tin[u]+1 .. tin[v]: a range minimum of
    # udepth[p] * big + p over their parents p, from a sparse table.
    order = np.empty(n, dtype=np.int64)
    order[tin[1:]] = np.arange(1, n + 1, dtype=np.int64)
    up = parent[order]
    table = np.zeros((max(1, n.bit_length()), n), dtype=np.int64)
    table[0] = udepth[up] * big + up
    for j in range(1, table.shape[0]):
        h = 1 << (j - 1)
        table[j, : n - 2 * h + 1] = np.minimum(
            table[j - 1, : n - 2 * h + 1], table[j - 1, h : n - h + 1]
        )
    verts = np.arange(1, n + 1, dtype=np.int64)
    # each component is labelled by its top vertex, the one nearest the root
    top = np.ones(n + 1, dtype=np.int64)
    seen = np.zeros(n + 1, dtype=bool)
    nb = 0
    out = []
    while verts.size:
        m = verts.size
        pos = np.arange(m, dtype=np.int64)
        key = top[verts] * big + tin[verts]
        o = np.argsort(key)
        sv, sk = verts[o], key[o]
        st = top[sv]
        # each component is a run of equal tops in DFS order, so v's own
        # subtree within it runs from v to the first key >= top*big + tout[v]
        size = np.searchsorted(sk, st * big + tout[sv]) - pos
        heavy = np.zeros(n + 1, dtype=np.int64)
        inner = sv != st
        np.maximum.at(heavy, parent[sv[inner]], size[inner])
        first = np.flatnonzero(np.concatenate(([True], st[1:] != st[:-1])))
        sizes = np.diff(np.append(first, m))
        grp = np.repeat(np.arange(first.size), sizes)
        # the centroid minimizes its largest remaining part, whatever the
        # rooting, ties to the smaller id
        score = np.maximum(heavy[sv], sizes[grp] - size)
        c = (np.minimum.reduceat(score * big + sv, first) % big)[grp]
        # the parts below c are the runs that start at c's children; the
        # part above c keeps the old top
        below = (tin[sv] > tin[c]) & (tin[sv] < tout[c])
        run = np.maximum.accumulate(np.where(parent[sv] == c, pos, 0))
        newtop = np.where(below, sv[run], st)
        rest = sv != c
        seen[:] = False
        seen[newtop[rest]] = True
        rank = np.cumsum(seen)
        b = np.where(rest, nb + rank[newtop], 0)
        nb += int(rank[-1])
        a = c.copy()
        tv, tc = tin[sv[rest]], tin[c[rest]]
        lo = np.minimum(tv, tc) + 1
        hi = np.maximum(tv, tc)
        j = np.frexp((hi - lo + 1).astype(np.float64))[1] - 1
        a[rest] = np.minimum(table[j, lo], table[j, hi - (1 << j) + 1]) % big
        out.append((sv, c, b, a))
        verts = sv[rest]
        top[verts] = newtop[rest]
    return tuple(np.concatenate(col) for col in zip(*out))


def _centroid_pack(n: int, fv, fc, fd, fb, stride: int):
    """Centroid decomposition rows (vertex, centroid, distance, branch id)
    flattened for vectorized ball counts: per-vertex chains (centroid,
    distance, branch id) plus packed sorted distance arrays per centroid
    and per branch."""
    # a vertex's chain lists its centroids from the outermost in
    ch_len = np.bincount(fv, minlength=n + 1)
    ch_off = np.zeros(n + 1, dtype=np.int64)
    ch_off[1:] = np.cumsum(ch_len)[:-1]
    by_vertex = np.argsort(fv, kind="stable")
    fulls = np.sort(fc * stride + fd)
    full_start = np.zeros(n + 2, dtype=np.int64)
    full_start[1:] = np.cumsum(np.bincount(fc, minlength=n + 1))
    in_branch = fb != 0
    bbn = fb[in_branch]
    bdn = fd[in_branch]
    nbid = int(bbn.max()) + 1 if bbn.size else 1
    brs = np.sort(bbn * stride + bdn)
    br_start = np.zeros(nbid + 1, dtype=np.int64)
    br_start[1:] = np.cumsum(np.bincount(bbn, minlength=nbid))
    return (
        ch_off,
        ch_len,
        fc[by_vertex],
        fd[by_vertex],
        fb[by_vertex],
        fulls,
        full_start,
        brs,
        br_start,
    )


def _prefix_counts(levels, stride: int, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each query: number of tree positions i < t[q] whose depth is at
    most x[q], via the per-level sorted blocks."""
    res = np.zeros(t.size, dtype=np.int64)
    xk = np.clip(x, -1, stride - 2)
    for b in range(len(levels)):
        sel = ((t >> b) & 1).astype(bool)
        if not sel.any():
            continue
        j = (t[sel] >> b) - 1
        pos = np.searchsorted(levels[b], j * stride + xk[sel], side="right")
        res[sel] += pos - (j << b)
    return res


class _ScaleOverflow(Exception):
    """Raised when scaled coordinates would not fit 64-bit packing."""


class _UnweightedEngine:
    """Integer-scaled coverage counting at many critical points at once."""

    def __init__(self, g: Graph):
        n = g.n
        self.g = g
        self.n = n
        self.sc2 = 2 * g.length_scale
        parent, _, eid, children = _rooted_arrays(g, 1)
        depth, udepth, tin, tout = _dfs_depths(g, children, eid)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.eid = eid
        self.depth = depth
        self.children = children
        self.tin = tin
        self.tout = tout
        self.maxdepth = max(depth)
        self.stride = 2 * self.maxdepth + 3
        n2 = 1 << max(1, (n - 1).bit_length())
        # block ids reach n2 and branch ids roughly n log n
        big = max(n2, n * (n.bit_length() + 2)) + 4
        if big * self.stride >= 2**62:
            raise _ScaleOverflow
        self.depth_np = np.asarray(depth, dtype=np.int64)
        self.tin_np = np.asarray(tin, dtype=np.int64)
        self.tout_np = np.asarray(tout, dtype=np.int64)
        fv, fc, fb, fa = _centroid_levels(
            self.parent, np.asarray(udepth, dtype=np.int64), self.tin_np, self.tout_np
        )
        dn = self.depth_np
        fd = dn[fv] + dn[fc] - 2 * dn[fa]
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
        ) = _centroid_pack(n, fv, fc, fd, fb, self.stride)
        self.liftdep = self.depth_np.copy()
        self.liftdep[0] = -1
        ups = [self.parent]
        for _ in range(max(0, n.bit_length() - 1)):
            ups.append(ups[-1][ups[-1]])
        self.ups = ups
        base = np.full(n2, self.stride - 1, dtype=np.int64)
        base[self.tin_np[1:]] = self.depth_np[1:]
        levels = []
        width = 1
        while width <= n2:
            blocks = np.sort(base.reshape(-1, width), axis=1)
            offs = np.arange(blocks.shape[0], dtype=np.int64) * self.stride
            levels.append((blocks + offs[:, None]).ravel())
            width *= 2
        self.levels = levels
        self.verts = np.arange(1, n + 1, dtype=np.int64)

    def _ball(self, p: np.ndarray, rho: np.ndarray) -> np.ndarray:
        ln = self.ch_len[p]
        csum = np.cumsum(ln)
        total = int(csum[-1]) if ln.size else 0
        owner = np.repeat(np.arange(p.size, dtype=np.int64), ln)
        at = np.repeat(self.ch_off[p], ln) + (
            np.arange(total, dtype=np.int64) - np.repeat(csum - ln, ln)
        )
        cc = self.ch_c[at]
        bound = np.clip(rho[owner] - self.ch_d[at], -1, self.stride - 2)
        f = (
            np.searchsorted(self.fulls, cc * self.stride + bound, side="right")
            - self.full_start[cc]
        )
        bbid = self.ch_b[at]
        br = (
            np.searchsorted(self.brs, bbid * self.stride + bound, side="right")
            - self.br_start[bbid]
        )
        out = np.bincount(owner, weights=(f - br).astype(np.float64), minlength=p.size)
        return out.astype(np.int64)

    def locate(self, radius: int, verts: np.ndarray):
        """Edge child and target depth of the critical points of the
        vertices in verts, an int64 array of ids."""
        td = np.maximum(self.depth_np[verts] - radius, 0)
        cur = verts.copy()
        for row in reversed(self.ups):
            anc = row[cur]
            ok = self.liftdep[anc] > td
            cur = np.where(ok, anc, cur)
        cur[verts == 1] = self.children[1][0]  # root: any child, its terms cancel
        return cur, td

    def counts(self, radius: int, verts: np.ndarray | None = None) -> np.ndarray:
        """Coverage count at the radius of the critical point of each vertex
        in verts, an int64 array of ids (all vertices in id order when
        omitted)."""
        if verts is None:
            verts = self.verts
        m = verts.size
        ch, td = self.locate(radius, verts)
        p = self.parent[ch]
        dp = self.depth_np[p]
        b1 = radius + td
        b3 = radius + 2 * dp - td
        tq = np.concatenate([self.tout_np[ch], self.tin_np[ch]] * 2)
        xq = np.concatenate([b1, b1, b3, b3])
        pr = _prefix_counts(self.levels, self.stride, tq, xq)
        e1 = pr[0:m] - pr[m : 2 * m]
        e3 = pr[2 * m : 3 * m] - pr[3 * m : 4 * m]
        ball = self._ball(p, radius - (td - dp))
        return e1 + ball - e3


def _int_bfs(g: Graph, src: int) -> np.ndarray:
    """Distances from src in integer units of 1/(2 * g.length_scale)."""
    li = g.lengths_int
    dist = np.zeros(g.n + 1, dtype=np.int64)
    seen = [False] * (g.n + 1)
    seen[src] = True
    queue = [src]
    for v in queue:
        for u, e in g.adj[v]:
            if not seen[u]:
                seen[u] = True
                dist[u] = dist[v] + 2 * li[e.id]
                queue.append(u)
    return dist


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
    try:
        eng = _UnweightedEngine(g)
    except _ScaleOverflow:
        if g.n <= 1500:
            return solve_weighted_tree(g, k)
        raise InstanceError(
            "edge length denominators too large for the scaled solver"
        ) from None
    radius, v_star = _least_radius(eng, k)
    return _unweighted_solution(g, eng, k, radius, v_star)


def _least_radius(eng: _UnweightedEngine, k: int) -> tuple[int, int]:
    """Least grid radius at which some critical point covers k vertices
    (k >= 2), and the least vertex id whose critical point does."""
    # The ball around the outermost centroid c, whose component is the
    # whole tree, holds k vertices at its k-th distance, so some critical
    # point covers k there too.
    c = int(eng.ch_c[eng.ch_off[1]])
    kth = int(eng.fulls[eng.full_start[c] + k - 1]) - c * eng.stride
    lo, hi = 0, min(eng.maxdepth, kth)
    alive = eng.verts[eng.counts(hi) >= k]
    if not alive.size:
        raise InternalError("upper bracket probe found no k-point cover")
    # With unit weights, x_v(r') lies at most r' - r above x_v(r) on v's
    # root path for r < r', so B(x_v(r), r) lies in B(x_v(r'), r') and v's
    # count never falls as the radius grows.  A vertex below k at hi is
    # below k at every lower probe, and every probe after hi is lower:
    # alive, the vertices covering k at hi, is all a probe needs to count.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = eng.counts(mid, alive) >= k
        if ok.any():
            hi, alive = mid, alive[ok]
        else:
            lo = mid
    return hi, int(alive[0])


def _unweighted_solution(
    g: Graph, eng: _UnweightedEngine, k: int, radius: int, v_star: int
) -> Solution:
    """The solution centered at v_star's critical point at the radius, with
    the k vertices nearest to it, ties to the smaller id."""
    td = max(eng.depth[v_star] - radius, 0)
    if td == 0:
        center = vertex_point(g, 1)
        dist_np = eng.depth_np[1:]
    else:
        c = v_star
        for row in reversed(eng.ups):
            a = int(row[c])
            if a and eng.depth[a] > td:
                c = a
        p = int(eng.parent[c])
        off_p = td - eng.depth[p]
        e = g.edges[eng.eid[c]]
        tfp = Fraction(off_p, eng.sc2)
        t = tfp if e.u == p else e.length - tfp
        center = canonical_point(g, e.id, t)
        dp = _int_bfs(g, p)
        in_sub = (eng.tin_np[1:] >= eng.tin[c]) & (eng.tin_np[1:] < eng.tout[c])
        dist_np = np.where(in_sub, eng.depth_np[1:] - td, off_p + dp[1:])
    order = np.lexsort((eng.verts, dist_np))
    chosen = order[:k]
    if int(dist_np[chosen].max()) != radius:
        raise InternalError("witness selection does not realize the radius")
    lam = Fraction(radius, eng.sc2)
    subtree = frozenset(int(i) + 1 for i in chosen)
    return Solution(lam, center, subtree)
