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
  the marked counts of the largest top-inclusive (ft) and
  bottom-inclusive (fb) covered subtrees of its vertex set (its subspine
  and the subtrees hanging from it) as step functions of the distance to
  an outside point.

The arrays have a closed form.  A vertex u joins the covered subtree
exactly when every vertex y on the path to it passes its gate, w_y *
dist(y) <= lam, so the point at distance t beyond a node's top vt covers
u exactly when t <= tau(u) = min over y on the path vt..u of (lam/w_y -
d(vt, y)).  A side (one node, one direction) is the distinct tau(u) >= 0
descending, each with the marked vertices of tau at least it, and its
cover key, the least tau on the subspine, tells when the whole subspine
is covered.  build_coverage_arrays takes every side at once: with lam =
p/q, lp = p*SW*SL and keys in units of 1/(q*SL), let g(y) = lp/W_y -
q*dd[y] and g+(y) = lp/W_y + q*dd[y].  Then ft tau(u) = q*dd[vt] + min g
over vt..u, and for u hanging from the spine vertex s, fb tau(u) =
min(min g+ over s..vb, min g below s to u + 2*q*dd[s]) - q*dd[vb].  Spine
segments are slot ranges of one doubling table (Bender and
Farach-Colton's range minima); a path below s crosses a light edge into
each spine it meets, at most log n of them, so its minimum chains per
light depth; and every value is ranked exactly once per radius, so the
minima compare small integers.

Every key at radius lam has the form lam/w_v - d for one vertex v, so it
is kept exactly as an integer pair (N, D) with D dividing W_v =
g.weights_int[v], worth N/D in units of 1/(q*SL): lam/w_v is (p*SW*SL,
W_v) with SW the graph's weight_scale, and a shift by a length of l/SL
gives (N - q*l*D, D).  Pairs compare by cross-multiplication.  A common
denominator would need the lcm of all weights, which grows with every
coprime weight; per-vertex denominators keep each product at the size of
one weight.  Fraction appears only at the boundary: the radius argument
and the EdgePoint of a query.

A query climbs the decomposition tree from its point's spine, and every
distance it needs runs from the point to a spine vertex whose lowest
common ancestor with the point the climb already knows: the vertex itself
when it lies above, else the spine vertex the point lies on or hangs
from.  So depths alone give each distance.

The arrays only count.  A witness is never read from them: tree_solver
walks the covered subtree directly and checks its size against
query_count.  tree_solver builds no spine tree or arrays for a tree of
at most _WALK_MAX vertices: there a probe walks the covered subtree of
each distinct critical point instead, as the fixed numpy cost of the
layout (~100 calls per tree) and of each build (~50 per radius) exceeds
those walks (timings in tree_solver's docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .arrangement_search import _INT_LIMIT, _sorted_ordinates
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
        for u, i in sorted(g.adj[v]):
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                plen[u] = g.lengths_int[i]
                eid[u] = i
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
    marked: list[bool]
    edge_child: list[int]
    dd: list[int]
    order: list[int]

    def map_point(self, x: EdgePoint) -> tuple[int, Optional[int], Fraction]:
        """Locate x on the transformed tree: (s, r, dist to s) with r the
        parent-side endpoint, or (v, None, 0) at a vertex."""
        if x.edge < 0:
            return self.root, None, ZERO
        g = self.g
        length = g.length(x.edge)
        if x.t == 0:
            return g.eu[x.edge], None, ZERO
        if x.t == length:
            return g.ev[x.edge], None, ZERO
        c = self.edge_child[x.edge]
        ds = length - x.t if c == g.ev[x.edge] else x.t
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
        g, root, nxt, parent, plen, children, weight, marked, edge_child, dd, order
    )


# ---------------------------------------------------------------- spines


class GNode:
    """Node of the decomposition tree.  Leaf-kind nodes stand for one spine
    vertex; their only possible child (stored in left) is the root of the
    search tree built for the hanging subtree.  Internal-kind nodes are
    search-tree nodes over a contiguous subspine: left covers the lower
    part, right the upper."""

    __slots__ = ("idx", "leaf_kind", "vertex", "vt", "vb", "parent", "left",
                 "right", "tsize")

    def __init__(self, idx, leaf_kind, vertex, vt, vb, tsize):
        self.idx = idx
        self.leaf_kind = leaf_kind
        self.vertex = vertex
        self.vt = vt
        self.vb = vb
        self.parent: Optional[GNode] = None
        self.left: Optional[GNode] = None
        self.right: Optional[GNode] = None
        self.tsize = tsize

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
        # spines top to bottom, and each vertex's light depth: the number
        # of spines above its own
        self.spines: list[list[int]] = []
        self.light = [0] * (n + 1)
        self.root = self._decompose(bt.root, 0)
        h = self._height(self.root)
        self.height = h
        bound = 4 * math.log2(n + 1) + 8
        if h > bound:
            raise InternalError(f"decomposition height {h} exceeds {bound:.1f}")
        # ft of node i is side i; fb of the i-th search-tree node is side
        # len(nodes) + i, and a spine vertex's node shares its ft
        self.fb_side = list(range(len(self.nodes)))
        i = len(self.nodes)
        for u in self.nodes:
            if not u.leaf_kind:
                self.fb_side[u.idx] = i
                i += 1
        self.sides = i
        self.lay = _Layout(self)

    def _new(self, leaf_kind, vertex, vt, vb, tsize) -> GNode:
        node = GNode(len(self.nodes), leaf_kind, vertex, vt, vb, tsize)
        self.nodes.append(node)
        return node

    def _decompose(self, top: int, depth: int) -> GNode:
        spine = [top]
        while self.right[spine[-1]]:
            spine.append(self.right[spine[-1]])
        self.spines.append(spine)
        for s in spine:
            self.light[s] = depth
        rev = spine[::-1]  # leaves left to right are bottom-up
        leaves = []
        for s in rev:
            h = self.left[s]
            w = self.size[s] - (self.size[self.right[s]] if self.right[s] else 0)
            node = self._new(True, s, s, s, w)
            self.leaf_of[s] = node
            if h:
                sub = self._decompose(h, depth + 1)
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
            node = self._new(False, 0, rnode.vt, lnode.vb, lnode.tsize + rnode.tsize)
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


def spine_decompose(bt: BinaryTransform) -> SpineTree:
    return SpineTree(bt)


# ---------------------------------------------------------------- arrays


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(a, a + c) over the pairs (a, c)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(int(ends[-1]))


class _Layout:
    """Index arrays of the closed form (see build_coverage_arrays), fixed
    per tree.

    The values are elements: element y - 1 is g(y) for vertex y; then,
    grouped by attachment, one element w_l(y) = g(y) + 2*q*dd[a] per
    vertex y and light depth l <= light(y), where a is y's vertex on its
    ancestor spine of light depth l (a = y and w_l(y) = g+(y) at
    l = light(y)); then a probe -q*dd[v] and a probe q*dd[v] per vertex;
    last a sentinel above every value.  Element e is
    (lpm[e]*lp - q*cc[e])/den[e].

    Spines lie side by side in slot order, each top to bottom, so a
    subspine is a slot range and range minima come from one doubling
    table over the slots: g in the first half, g+ in the second.  A
    side's entries are the pairs (node, spine vertex s of its subspine)
    times the elements attached to s, which lie in one block.
    """

    def __init__(self, st: SpineTree):
        bt = st.bt
        n = bt.n_all
        n1 = n + 1
        light = np.array(st.light)
        seq = np.array([v for sp in st.spines for v in sp])
        slot = np.empty(n1, dtype=np.int64)
        slot[seq] = np.arange(n)
        top = np.zeros(n1, dtype=np.int64)
        top[seq] = np.repeat([sp[0] for sp in st.spines], [len(sp) for sp in st.spines])
        # the vertex one spine up that a vertex's spine hangs from
        hang = np.array(bt.parent)[top]
        depth = int(light.max())
        by_light = np.argsort(light[1:], kind="stable") + 1
        groups = np.split(by_light, np.cumsum(np.bincount(light[1:]))[:-1])
        att = np.zeros((depth + 1, n1), dtype=np.int64)
        for d, grp in enumerate(groups):
            att[d, grp] = grp
            att[:d, grp] = att[:d, hang[grp]]

        ls, ys = np.nonzero(att[:, 1:])
        ys += 1
        o = np.argsort(att[ls, ys], kind="stable")
        ls, ys = ls[o], ys[o]
        atts = att[ls, ys]
        ne = n + len(ys)
        m = ne + 2 * n
        self.m = m
        wel = np.full((depth + 1, n1), m, dtype=np.int64)
        wel[ls, ys] = np.arange(n, ne)
        self.wel = wel.ravel()
        self.vert = np.concatenate((np.arange(1, n1), ys, np.zeros(2 * n + 1, dtype=np.int64)))
        block = np.bincount(atts, minlength=n1)
        start = n + np.cumsum(block) - block

        self.scale = max(bt.weight) * max(bt.dd)
        self.iota = np.arange(m + 1)
        wide = 4 * self.scale >= _INT_LIMIT
        dd = np.array(bt.dd, dtype=object if wide else np.int64)
        weight = np.array(bt.weight, dtype=object if wide else np.int64)
        w = weight[self.vert[:ne]]
        c = np.concatenate((dd[1:], dd[ys] - 2 * dd[atts]))
        self.cc = np.concatenate((w * c, dd[1:], -dd[1:], [0]))
        self.lpm = np.concatenate((np.ones(ne, dtype=np.int64), np.zeros(2 * n + 1, np.int64)))
        self.den = np.concatenate((w, np.ones(2 * n + 1, dtype=w.dtype)))

        # range minima queries (lo, hi) over the doubled slots: C(node,
        # s) = min g over vt..s, X(node, s) = min g+ over s..vb, and per
        # vertex the min g over its spine's top..itself
        nodes = st.nodes
        vt = np.array([u.vt for u in nodes])
        vb = np.array([u.vb for u in nodes])
        leaf = np.array([u.leaf_kind for u in nodes])
        lo = slot[vt]
        cnt = slot[vb] - lo + 1
        pslot = _ranges(lo, cnt)
        ps = seq[pslot]
        pnode = np.repeat(np.arange(len(nodes)), cnt)
        pairs = len(ps)
        qlo = np.concatenate((lo[pnode], n + pslot, slot[top[1:]]))
        qhi = np.concatenate((pslot, n + slot[vb][pnode], slot[1:]))
        j = np.frexp(qhi - qlo + 1)[1].astype(np.int64) - 1
        self.levels = int(j.max()) + 1
        self.base = np.concatenate((seq - 1, wel[light[seq], seq]))
        self.q1 = j * (2 * n) + qlo
        self.q2 = j * (2 * n) + qhi - np.left_shift(1, j) + 1
        self.hang = np.full((depth + 1, n1), (m + 1) ** 2 - 1, dtype=np.int64)
        self.chain = [
            (d, grp, 2 * pairs + grp - 1, hang[grp]) for d, grp in enumerate(groups) if d
        ]

        # entries: ft of every node, fb of every search-tree node
        blen = block[ps]
        el = _ranges(start[ps], blen) - n
        epair = np.repeat(np.arange(pairs), blen)
        enode = pnode[epair]
        ey = ys[el]
        self.e_h = ls[el] * n1 + ey
        self.e_pair = epair
        f = np.flatnonzero(~leaf[enode])
        self.f = f
        self.f_pair = pairs + epair[f]
        self.f_row = ls[el][f] * n1

        inner = np.flatnonzero(~leaf)
        fb_side = np.array(st.fb_side)
        sides = st.sides
        self.sent = np.full(sides, (m + 1) ** 2 - 1)
        # entries, then a sentinel and a closing 0 per side, keyed
        # side*2(m+1) + 2(m - rank) + marked: the sides in order, each
        # sentinel first and then by value descending
        side_e = np.concatenate((enode, fb_side[enode[f]], np.arange(sides), np.arange(sides)))
        marked = np.array(bt.marked, dtype=np.int64)
        mark_e = np.concatenate((marked[ey], marked[ey[f]], np.zeros(2 * sides, np.int64)))
        self.side_e = side_e
        self.side_key = side_e * (2 * m + 2) + 2 * m + mark_e
        self.side_base = np.arange(sides) * (m + 1) + m
        # a side keeps tau >= 0: ft tau = value + q*dd[vt] and fb tau =
        # value - q*dd[vb], so its threshold is a probe
        self.probe = np.concatenate((ne + vt - 1, ne + n + vb[inner] - 1))
        self.shift = np.concatenate((dd[vt], -dd[vb[inner]]))
        pend = np.cumsum(cnt)
        self.cover = np.concatenate((pend - 1, pairs + pend[inner] - cnt[inner]))


@dataclass
class CoverageArrays:
    """The arrays of every node at radius lam, flat.  Side i holds the
    keys xs[j]/xd[j] (units of 1/(q*SL)), descending, and the marked
    counts zs[j] for off[i] < j < off[i + 1]; index off[i] is its
    sentinel (keys None, count 0).  icov[i] is the index of side i's
    cover key, -1 when its subspine is never fully covered.  Node u's
    ft side is u.idx, its fb side st.fb_side[u.idx]."""

    lam: Fraction
    xs: list
    xd: list
    zs: list[int]
    off: list[int]
    icov: list[int]


def build_coverage_arrays(st: SpineTree, lam: Fraction) -> CoverageArrays:
    """Every side at radius lam, from path-minimum thresholds (see
    _Layout) in a fixed number of numpy calls, plus one doubling round per
    level of the slot table and one round per light depth."""
    if lam.numerator < 0:
        raise ValueError("radius must be nonnegative")
    g = st.bt.g
    lp = lam.numerator * g.weight_scale * g.length_scale
    lay = st.lay
    n = st.bt.n_all
    m = lay.m
    m1 = m + 1
    q = lam.denominator
    big = lp + 4 * q * lay.scale + 1  # the sentinel, above every value
    lpm, cc, den, shift = lay.lpm, lay.cc, lay.den, lay.shift
    if big >= _INT_LIMIT:
        lpm, cc, den, shift = (a.astype(object) for a in (lpm, cc, den, shift))
    num = lp * lpm - q * cc
    num[m] = big
    den = den.copy()
    # every value ranked exactly, in lowest terms from here on
    rank = _sorted_ordinates(num, den)[2]
    rank[m] = m
    # an element's key orders by value, then by element, so the least key
    # of a set names its least value and an element holding it
    key = rank * m1 + lay.iota
    held = np.empty(m1, dtype=np.int64)
    held[rank] = lay.iota

    # least keys over slot ranges, one doubling round per level
    t = np.empty((lay.levels, 2 * n), dtype=np.int64)
    t[0] = key[lay.base]
    for j in range(1, lay.levels):
        h = 1 << (j - 1)
        np.minimum(t[j - 1, :-h], t[j - 1, h:], out=t[j, :-h])
    t = t.ravel()
    r = np.minimum(t[lay.q1], t[lay.q2])
    # hanging minima: for light depth l < light(u), the least g on the
    # path from u up to its ancestor spine's top at light depth l + 1
    hang = lay.hang.copy()
    for d, grp, ridx, up in lay.chain:
        hang[:d, grp] = np.minimum(r[ridx], hang[:d, up])
    hv = hang.ravel()[lay.e_h]

    top_key = np.minimum(r[lay.e_pair], hv)
    # the hanging minimum of fb is at the same vertex, shifted by 2*q*dd[s]
    y = lay.vert[hv[lay.f] % m1]
    bot_key = np.minimum(r[lay.f_pair], key[lay.wel[lay.f_row + y]])
    er = np.concatenate((top_key, bot_key, lay.sent, key[lay.probe])) // m1
    thr = rank[lay.probe]
    keep = er >= thr[lay.side_e]
    sk = lay.side_key[keep] - 2 * er[keep]
    sk.sort()
    mark = sk & 1
    sk >>= 1
    last = np.ones(len(sk), dtype=bool)
    last[:-1] = sk[1:] != sk[:-1]
    cum = np.cumsum(mark)[last]
    sk = sk[last]
    er = m - sk % m1
    off = np.flatnonzero(er == m)
    size = np.diff(np.append(off, len(sk)))
    zs = cum - np.repeat(cum[off], size)
    el = held[er]
    xd = den[el]
    xs = num[el] + np.repeat(q * shift, size) * xd

    cr = r[lay.cover] // m1
    icov = np.where(cr >= thr, np.searchsorted(sk, lay.side_base - cr), -1)
    xs = xs.tolist()
    xd = xd.tolist()
    off = off.tolist()
    for i in off:
        xs[i] = xd[i] = None
    off.append(len(xs))
    return CoverageArrays(lam, xs, xd, zs.tolist(), off, icov.tolist())


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
    xs, xd, zs, off, icov = ca.xs, ca.xd, ca.zs, ca.off, ca.icov
    fb_side = st.fb_side
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

    # a distance dist is the key (dist * q, td); the marked count of side
    # i at key kn/td, and whether the key covers its whole subspine
    def contrib(i: int, kn: int) -> bool:
        nonlocal count
        count += zs[_rank(xs, xd, kn, td, off[i] + 1, off[i + 1]) - 1]
        c = icov[i]
        return c >= 0 and kn * xd[c] <= xs[c] * td

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
                    contrib(u.idx, tn * q)
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
                    flag_b = contrib(lc.idx, dist(lc.vt, anchor) * q)
            else:
                if not flag_a:
                    rc = u.right
                    flag_a = not contrib(fb_side[rc.idx], dist(rc.vb, rc.vb) * q)
        if k is not None and count >= k:
            return count
        prev = u
        u = u.parent
    return count


def _rank(ns: list, ds: list, kn: int, kd: int, lo: int, hi: int) -> int:
    """End of the run of keys ns[i]/ds[i] >= kn/kd in the descending keys
    ns[lo:hi]."""
    while lo < hi:
        mid = (lo + hi) // 2
        if ns[mid] * kd >= kn * ds[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def query_count(st: SpineTree, ca: CoverageArrays, x: EdgePoint) -> int:
    return _walk(st, ca, *_position(st.bt, x), None)


def query_at_least_k_at(st: SpineTree, ca: CoverageArrays, s: int, tn: int, td: int,
                        k: int) -> bool:
    """Whether the point at distance tn/(td*SL) from vertex s of the
    transformed tree toward its parent (tn = 0 at s itself) covers at
    least k marked vertices."""
    if k < 1:
        raise ValueError("k must be positive")
    return _walk(st, ca, s, tn, td, k) >= k
