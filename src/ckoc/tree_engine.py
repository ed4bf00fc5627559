"""Coverage engine for trees.

A point x covers vertex v at radius lam when w_v * d(x, v) <= lam, and the
covered subtree of x is the largest x-inclusive connected piece of covered
vertices (a heavy vertex blocks everything behind it).  This module counts
covered subtrees, and answers at-least-k queries, for arbitrary points of a
tree in polylogarithmic time after an O(n log n) build:

- a binary transformation replacing high-degree vertices by zero-length
  chains of equal-weight copies, with integer depths (units of 1/SL, SL
  the graph's length_scale),
- a spine decomposition of the binary tree, with a weight-balanced search
  tree over every spine, all linked into one decomposition tree,
- per-radius coverage arrays over the decomposition tree: for each node,
  the sizes and marked counts of the largest top-inclusive and
  bottom-inclusive covered subtrees as step functions of the distance to
  an outside point.

Every breakpoint of the arrays at radius lam = p/q has the form
lam/w_v - d for one vertex v, so it is kept exactly as an integer pair
(N, D) with D = W_v = g.weights_int[v], worth N/D in units of 1/(q*SL):
lam/w_v is (p*SW*SL, W_v) with SW the graph's weight_scale, and a shift
by a length of l/SL gives (N - q*l*D, D).  Pairs compare by
cross-multiplication.  A common denominator would need the lcm of all
weights, which grows with every coprime weight; per-vertex denominators
keep each product at the size of one weight.  Fraction appears only at
the boundary: the radius argument and the EdgePoint of a query.

A query climbs the decomposition tree from its point's spine, and every
distance it needs runs from the point to a spine vertex whose lowest
common ancestor with the point the climb already knows: the vertex itself
when it lies above, else the spine vertex the point lies on or hangs
from.  So depths alone give each distance.

The arrays only count.  A witness is never read from them: tree_solver
walks the covered subtree directly and checks its size against
query_count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph_core import (
    ZERO,
    EdgePoint,
    Graph,
    InstanceError,
    InternalError,
)


# ---------------------------------------------------------------- rooting


def _rooted_arrays(g: Graph, root: int):
    """The tree rooted at root by breadth-first search: per vertex its
    parent, parent-edge length (an integer in units of 1/g.length_scale)
    and parent-edge id, and children in id order.  The root has parent 0
    and edge id -1."""
    n = g.n
    parent = [0] * (n + 1)
    plen = [0] * (n + 1)
    eid = [-1] * (n + 1)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    seen = [False] * (n + 1)
    seen[root] = True
    queue = [root]
    for v in queue:
        for u, ev in sorted(g.adj[v], key=lambda p: p[0]):
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                plen[u] = g.lengths_int[ev.id]
                eid[u] = ev.id
                children[v].append(u)
                queue.append(u)
    if not all(seen[1:]):
        raise InstanceError("rooted tree arrays require a connected tree")
    return parent, plen, eid, children


# ---------------------------------------------------------------- binarize


@dataclass
class BinaryTransform:
    """Binary version of a rooted tree: vertices of more than two children
    are split by a zero-length chain of copies; original ids are 1..n and
    marked, copies carry the weight of their original.  Lengths and depths
    dd are integers in units of 1/g.length_scale, weights in units of
    1/g.weight_scale (g.weights_int); order lists the vertices breadth
    first, parents before children."""

    g: Graph
    root: int
    n_all: int
    parent: list[int]
    plen: list[int]
    children: list[list[int]]
    weight: list[int]
    orig: list[int]
    marked: list[bool]
    edge_child: list[int]
    dd: list[int]
    order: list[int]

    def map_point(self, x: EdgePoint) -> tuple[int, Optional[int], Fraction]:
        """Locate x on the transformed tree: (s, r, dist to s) with r the
        parent-side endpoint, or (v, None, 0) at a vertex."""
        if x.edge < 0:
            return self.root, None, ZERO
        e = self.g.edges[x.edge]
        if x.t == 0:
            return e.u, None, ZERO
        if x.t == e.length:
            return e.v, None, ZERO
        c = self.edge_child[x.edge]
        ds = e.length - x.t if c == e.v else x.t
        return c, self.parent[c], ds


def binarize(g: Graph, root: int = 1) -> BinaryTransform:
    if not g.is_tree:
        raise InstanceError("binarization requires a tree")
    n = g.n
    _, plen0, eid0, children0 = _rooted_arrays(g, root)
    parent = [0] * (n + 1)
    plen = [0] * (n + 1)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    weight = list(g.weights_int)
    orig = list(range(n + 1))
    marked = [False] + [True] * n
    edge_child = [0] * g.m
    nxt = n

    def new_aux(of: int) -> int:
        nonlocal nxt
        nxt += 1
        parent.append(0)
        plen.append(0)
        children.append([])
        weight.append(weight[of])
        orig.append(of)
        marked.append(False)
        return nxt

    def attach(p: int, c: int, length: int, eid: int | None):
        parent[c] = p
        plen[c] = length
        children[p].append(c)
        if eid is not None:
            edge_child[eid] = c

    for v in g.vertices():
        ks = children0[v]
        # beyond two children, every middle child hangs off a new copy of
        # v, chained below v; the last child hangs off the last copy
        chain = v
        for i, c in enumerate(ks):
            if 0 < i < len(ks) - 1:
                a = new_aux(v)
                attach(chain, a, 0, None)
                chain = a
            attach(chain, c, plen0[c], eid0[c])

    dd = [0] * (nxt + 1)
    order = [root]
    for v in order:
        for c in children[v]:
            dd[c] = dd[v] + plen[c]
            order.append(c)
    return BinaryTransform(
        g, root, nxt, parent, plen, children, weight, orig, marked, edge_child, dd, order
    )


# ---------------------------------------------------------------- spines


class GNode:
    """Node of the decomposition tree.  Leaf-kind nodes stand for one spine
    vertex; their only possible child (stored in left) is the root of the
    search tree built for the hanging subtree.  Internal-kind nodes are
    search-tree nodes over a contiguous subspine: left covers the lower
    part, right the upper."""

    __slots__ = ("idx", "leaf_kind", "vertex", "vt", "vb", "parent", "left",
                 "right", "tsize", "echild")

    def __init__(self, idx, leaf_kind, vertex, vt, vb, tsize, echild):
        self.idx = idx
        self.leaf_kind = leaf_kind
        self.vertex = vertex
        self.vt = vt
        self.vb = vb
        self.parent: Optional[GNode] = None
        self.left: Optional[GNode] = None
        self.right: Optional[GNode] = None
        self.tsize = tsize
        self.echild = echild

    def __repr__(self):
        kind = "leaf" if self.leaf_kind else "node"
        return f"GNode({kind} #{self.idx} vt={self.vt} vb={self.vb} |T|={self.tsize})"


class SpineTree:
    """Decomposition tree over the binary transform: spines chosen by
    descending into the larger subtree, a weight-balanced search tree per
    spine, hanging subtrees linked below their spine vertex's leaf."""

    def __init__(self, bt: BinaryTransform):
        self.bt = bt
        n = bt.n_all
        size = [1] * (n + 1)
        for v in reversed(bt.order):
            for c in bt.children[v]:
                size[v] += size[c]
        self.size = size
        left = [0] * (n + 1)
        right = [0] * (n + 1)
        for v in range(1, n + 1):
            cs = bt.children[v]
            if len(cs) == 1:
                right[v] = cs[0]
            elif len(cs) == 2:
                a, b = cs
                # larger subtree continues the spine; ties go to the
                # smaller id for determinism
                if (size[a], -a) > (size[b], -b):
                    right[v], left[v] = a, b
                else:
                    right[v], left[v] = b, a
        self.left = left
        self.right = right
        self.nodes: list[GNode] = []
        self.leaf_of: list[Optional[GNode]] = [None] * (n + 1)
        self.root = self._decompose(bt.root)
        h = self._height(self.root)
        self.height = h
        bound = 4 * math.log2(n + 1) + 8
        if h > bound:
            raise InternalError(f"decomposition height {h} exceeds {bound:.1f}")

    def _new(self, leaf_kind, vertex, vt, vb, tsize, echild) -> GNode:
        node = GNode(len(self.nodes), leaf_kind, vertex, vt, vb, tsize, echild)
        self.nodes.append(node)
        return node

    def _decompose(self, top: int) -> GNode:
        spine = [top]
        while self.right[spine[-1]]:
            spine.append(self.right[spine[-1]])
        rev = spine[::-1]  # leaves left to right are bottom-up
        leaves = []
        for s in rev:
            h = self.left[s]
            w = self.size[s] - (self.size[self.right[s]] if self.right[s] else 0)
            node = self._new(True, s, s, s, w, h if h else None)
            self.leaf_of[s] = node
            if h:
                sub = self._decompose(h)
                node.left = sub
                sub.parent = node
            leaves.append(node)
        pref = [0]
        for node in leaves:
            pref.append(pref[-1] + node.tsize)

        def build(lo: int, hi: int) -> GNode:
            if lo == hi:
                return leaves[lo]
            total = pref[hi + 1] - pref[lo]
            lo2, hi2 = lo, hi
            while lo2 < hi2:
                mid = (lo2 + hi2) // 2
                if 2 * (pref[mid + 1] - pref[lo]) > total:
                    hi2 = mid
                else:
                    lo2 = mid + 1
            j = min(lo2, hi - 1)
            lnode = build(lo, j)
            rnode = build(j + 1, hi)
            node = self._new(
                False, 0, rnode.vt, lnode.vb, lnode.tsize + rnode.tsize, lnode.vt
            )
            node.left = lnode
            node.right = rnode
            lnode.parent = node
            rnode.parent = node
            return node

        return build(0, len(leaves) - 1)

    def _height(self, node: GNode) -> int:
        best = 0
        stack = [(node, 0)]
        while stack:
            u, h = stack.pop()
            best = max(best, h)
            if u.left is not None:
                stack.append((u.left, h + 1))
            if u.right is not None:
                stack.append((u.right, h + 1))
        return best

    def post_order(self):
        out = []
        stack = [self.root]
        while stack:
            u = stack.pop()
            out.append(u)
            if u.left is not None:
                stack.append(u.left)
            if u.right is not None:
                stack.append(u.right)
        return reversed(out)


def spine_decompose(bt: BinaryTransform) -> SpineTree:
    return SpineTree(bt)


# ---------------------------------------------------------------- arrays


class _Side:
    """Step function of one node and one direction: keys descending in x,
    key i being xs[i]/xd[i] in units of 1/(q*SL) (index 0 is the
    plus-infinity sentinel, None in both), y subtree sizes, z marked
    counts, icov the first index covering the whole subspine (0 when
    none).  Built by add() calls with strictly descending x, an equal-x
    add collapsing into the last tuple (its cumulative values win), then
    close() and finish()."""

    __slots__ = ("xs", "xd", "ys", "zs", "icov")

    def __init__(self):
        self.xs: list[Optional[int]] = [None]
        self.xd: list[Optional[int]] = [None]
        self.ys = [0]
        self.zs = [0]
        self.icov = 0

    def add(self, xn, xd, y, z):
        if len(self.xs) > 1 and xn * self.xd[-1] == self.xs[-1] * xd:
            self.ys[-1] = y
            self.zs[-1] = z
            return
        self.xs.append(xn)
        self.xd.append(xd)
        self.ys.append(y)
        self.zs.append(z)

    def close(self):
        if len(self.xs) == 1 or self.xs[-1] > 0:
            self.add(0, 1, self.ys[-1], self.zs[-1])

    def finish(self, cov: Optional[tuple[int, int]]) -> _Side:
        """cov: key (N, D) of the covering breakpoint, None if the subspine
        is never fully covered."""
        if cov is not None:
            cn, cd = cov
            xs, xd = self.xs, self.xd
            icov = _rank(xs, xd, cn, cd, 1) - 1
            if icov < 1 or xs[icov] * cd != cn * xd[icov]:
                raise InternalError("covering breakpoint missing from arrays")
            self.icov = icov
        return self


def _rank(ns: list, ds: list, kn: int, kd: int, lo: int) -> int:
    """End of the run of keys ns[i]/ds[i] >= kn/kd in the descending keys
    from index lo on."""
    hi = len(ns)
    while lo < hi:
        mid = (lo + hi) // 2
        if ns[mid] * kd >= kn * ds[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _locate(side: _Side, kn: int, kd: int) -> int:
    """Largest index whose key is >= kn/kd; 0 (the sentinel) when none."""
    return _rank(side.xs, side.xd, kn, kd, 1) - 1


def _covers_spine(side: _Side, kn: int, kd: int) -> bool:
    i = side.icov
    return i >= 1 and kn * side.xd[i] <= side.xs[i] * kd


def _vertex_side(bt: BinaryTransform, s: int, lp: int) -> _Side:
    """Side of a lone spine vertex: lam/w_s is the key (lp, weight[s]),
    lp = p*SW*SL for lam = p/q."""
    x0 = (lp, bt.weight[s])
    m = 1 if bt.marked[s] else 0
    b = _Side()
    b.add(*x0, 1, m)
    b.close()
    return b.finish(x0)


def _merge_one(bt: BinaryTransform, s: int, child: _Side, d: int, lp: int) -> _Side:
    """Side of a spine-vertex node with a hanging subtree: the vertex gates
    everything at lam/w_s, the child contributes at distance d (units of
    1/(q*SL)) farther."""
    w = bt.weight[s]
    m = 1 if bt.marked[s] else 0
    j1 = _locate(child, lp + d * w, w)
    b = _Side()
    b.add(lp, w, 1 + child.ys[j1], m + child.zs[j1])
    cx, cd = child.xs, child.xd
    j = j1 + 1
    while j < len(cx):
        xn = cx[j] - d * cd[j]
        if xn < 0:
            break
        b.add(xn, cd[j], 1 + child.ys[j], m + child.zs[j])
        j += 1
    b.close()
    return b.finish((lp, w))


def _merge_two(prim: _Side, sec: _Side, d: int) -> _Side:
    """Side of a search-tree node: prim holds the subspine adjacent to the
    query anchor; sec joins in, shifted by d (units of 1/(q*SL)), only
    while prim's subspine is fully covered."""
    if prim.icov == 0:
        return prim
    px, pd, sx, sd = prim.xs, prim.xd, sec.xs, sec.xd
    xrn, xrd = px[prim.icov], pd[prim.icov]
    j1 = _locate(sec, xrn + d * xrd, xrd)
    b = _Side()
    for i in range(1, prim.icov):
        b.add(px[i], pd[i], prim.ys[i], prim.zs[i])
    b.add(xrn, xrd, prim.ys[prim.icov] + sec.ys[j1], prim.zs[prim.icov] + sec.zs[j1])
    i = prim.icov + 1
    j = j1 + 1
    np_, ns = len(px), len(sx)
    while i < np_ and j < ns:
        xbn = sx[j] - d * sd[j]
        if xbn < 0:
            break
        xan, xad, xbd = px[i], pd[i], sd[j]
        lhs = xan * xbd
        rhs = xbn * xad
        if lhs > rhs:
            b.add(xan, xad, prim.ys[i] + sec.ys[j - 1], prim.zs[i] + sec.zs[j - 1])
            i += 1
        elif rhs > lhs:
            b.add(xbn, xbd, prim.ys[i - 1] + sec.ys[j], prim.zs[i - 1] + sec.zs[j])
            j += 1
        else:
            b.add(xan, xad, prim.ys[i] + sec.ys[j], prim.zs[i] + sec.zs[j])
            i += 1
            j += 1
    while i < np_:
        b.add(px[i], pd[i], prim.ys[i] + sec.ys[j - 1], prim.zs[i] + sec.zs[j - 1])
        i += 1
    while j < ns:
        xbn = sx[j] - d * sd[j]
        if xbn < 0:
            break
        b.add(xbn, sd[j], prim.ys[np_ - 1] + sec.ys[j], prim.zs[np_ - 1] + sec.zs[j])
        j += 1
    b.close()
    cov = None
    if sec.icov:
        cn, cd = sx[sec.icov] - d * sd[sec.icov], sd[sec.icov]
        if cn * xrd > xrn * cd:
            cn, cd = xrn, xrd
        if cn >= 0:
            cov = (cn, cd)
    return b.finish(cov)


@dataclass
class CoverageArrays:
    """The arrays of every node at radius lam."""

    lam: Fraction
    ft: list[_Side]
    fb: list[_Side]


def build_coverage_arrays(st: SpineTree, lam: Fraction) -> CoverageArrays:
    if lam < 0:
        raise ValueError("radius must be nonnegative")
    bt = st.bt
    g = bt.g
    q = lam.denominator
    lp = lam.numerator * g.weight_scale * g.length_scale
    dd = bt.dd
    ft: list[Optional[_Side]] = [None] * len(st.nodes)
    fb: list[Optional[_Side]] = [None] * len(st.nodes)
    for node in st.post_order():
        if node.leaf_kind:
            s = node.vertex
            if node.left is None:
                side = _vertex_side(bt, s, lp)
            else:
                d = q * bt.plen[node.echild]
                side = _merge_one(bt, s, ft[node.left.idx], d, lp)
            ft[node.idx] = side
            fb[node.idx] = side
        else:
            lc, rc = node.left, node.right
            d_t = q * (dd[lc.vt] - dd[rc.vt])
            d_b = q * (dd[lc.vb] - dd[rc.vb])
            ft[node.idx] = _merge_two(ft[rc.idx], ft[lc.idx], d_t)
            fb[node.idx] = _merge_two(fb[lc.idx], fb[rc.idx], d_b)
    return CoverageArrays(lam, ft, fb)


# ---------------------------------------------------------------- queries


def _position(bt: BinaryTransform, x: EdgePoint) -> tuple[int, int, int]:
    """x as (s, tn, td): the point at distance tn/(td*SL) from vertex s of
    the transformed tree toward its parent (tn = 0 at s itself)."""
    s, _, ds = bt.map_point(x)
    return s, ds.numerator * bt.g.length_scale, ds.denominator


def _walk(st: SpineTree, ca: CoverageArrays, s: int, tn: int, td: int,
          k: Optional[int]) -> int:
    """Covered marked vertices of the point at distance tn/(td*SL) from
    vertex s toward its parent, counted until k when k is given.

    The walk climbs from s's leaf, keeping anchor: the vertex of the
    current spine that s is or hangs from.  Each distance it reads is to a
    spine vertex v whose lowest common ancestor a with s is known: v
    itself on entering v's spine from its hanging subtree or for the
    upper part of a subspine, the anchor for the lower part."""
    bt = st.bt
    dd = bt.dd
    g = bt.g
    q = ca.lam.denominator
    # w_v * dist(v) <= lam  <=>  weight[v] * dist(v) * q <= gate
    gate = ca.lam.numerator * g.weight_scale * g.length_scale * td
    r = bt.parent[s] if tn else None
    far = td * bt.plen[s] - tn

    def dist(v: int, a: int) -> int:
        """Distance from the point to v, a = lca(s, v), in units of
        1/(td*SL)."""
        if r is None:
            return td * (dd[s] + dd[v] - 2 * dd[a])
        if a == s:
            return tn + td * (dd[v] - dd[s])
        return far + td * (dd[r] + dd[v] - 2 * dd[a])

    count = 0

    # a distance dist is the array key (dist * q, td)
    def contrib(side: _Side, kn: int):
        nonlocal count
        count += side.zs[_locate(side, kn, td)]

    u = st.leaf_of[s]
    anchor = s
    flag_a = False
    flag_b = False
    prev: Optional[GNode] = None
    while u is not None:
        if u.leaf_kind:
            sv = u.vertex
            if prev is None:
                if bt.weight[sv] * tn * q <= gate:
                    flag_b = True
                    contrib(ca.ft[u.idx], tn * q)
            else:
                anchor = sv
                if flag_a:
                    break
                if bt.weight[sv] * dist(sv, sv) * q > gate:
                    break
                flag_b = True
                if bt.marked[sv]:
                    count += 1
        else:
            if prev is u.right:
                if flag_b:
                    lc = u.left
                    key = dist(lc.vt, anchor) * q
                    side = ca.ft[lc.idx]
                    contrib(side, key)
                    if not _covers_spine(side, key, td):
                        flag_b = False
            else:
                if not flag_a:
                    rc = u.right
                    key = dist(rc.vb, rc.vb) * q
                    side = ca.fb[rc.idx]
                    contrib(side, key)
                    if not _covers_spine(side, key, td):
                        flag_a = True
        if k is not None and count >= k:
            return count
        prev = u
        u = u.parent
    return count


def query_count(st: SpineTree, ca: CoverageArrays, x: EdgePoint) -> int:
    return _walk(st, ca, *_position(st.bt, x), None)


def query_at_least_k(st: SpineTree, ca: CoverageArrays, x: EdgePoint, k: int) -> bool:
    return query_at_least_k_at(st, ca, *_position(st.bt, x), k)


def query_at_least_k_at(st: SpineTree, ca: CoverageArrays, s: int, tn: int, td: int,
                        k: int) -> bool:
    """query_at_least_k at the point at distance tn/(td*SL) from vertex s
    of the transformed tree toward its parent (tn = 0 at s itself)."""
    if k < 1:
        raise ValueError("k must be positive")
    return _walk(st, ca, s, tn, td, k) >= k
