"""Tree coverage engine: binarization and depths, spine decomposition,
coverage arrays, and point queries."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ckoc import oracle, tree_engine
from ckoc.graph_core import (
    EdgePoint,
    Graph,
    InstanceError,
    all_pairs_distances,
    canonical_point,
    vertex_point,
)
from ckoc.tree_engine import (
    binarize,
    build_coverage_arrays,
    query_count,
    spine_decompose,
)
from ckoc.tree_solver import _pair_radii, _TreeContext, covered_walk, solve_weighted_tree

from conftest import exact_d, point_distance, query_at_least_k, rand_rational, random_tree


def _engine(g, lam=None):
    st = spine_decompose(binarize(g))
    ca = build_coverage_arrays(st, lam) if lam is not None else None
    return st, ca


def _root_spine_vertices(st):
    # leaves of the topmost search tree, without crossing hanging links
    out = set()
    stack = [st.root]
    while stack:
        u = stack.pop()
        if u.leaf_kind:
            out.add(u.vertex)
        else:
            stack.append(u.left)
            stack.append(u.right)
    return out


def _keys(g, ca, nums, dens):
    """Array keys as Fractions: the pair (N, D) is N/(D*q*SL) at lam = p/q;
    the sentinel stays None."""
    scale = ca.lam.denominator * g.length_scale
    return [None if n is None else F(n, d * scale) for n, d in zip(nums, dens)]


def _side(g, ca, i):
    """Side i of the flat arrays: its keys as Fractions (the sentinel
    None), its marked counts, and the index of its cover key (0 when
    none)."""
    a, b = ca.off[i], ca.off[i + 1]
    c = ca.icov[i]
    return _keys(g, ca, ca.xs[a:b], ca.xd[a:b]), ca.zs[a:b], c - a if c >= 0 else 0


# ---------------------------------------------------------------- binarize


def test_distance_oracle_rejects_nontree(triangle):
    with pytest.raises(InstanceError):
        binarize(triangle)


def test_binarize_star3(star3):
    bt = binarize(star3)
    assert bt.n_all == 5
    assert bt.parent[5] == 1 and bt.plen[5] == 0
    assert bt.orig[5] == 1 and not bt.marked[5]
    assert bt.weight[5] == star3.weights_int[1]
    assert bt.children[1] == [2, 5]
    assert bt.children[5] == [3, 4]
    for edge, (a, b) in enumerate(zip(star3.eu, star3.ev)):
        leaf = b if a == 1 else a
        assert bt.edge_child[edge] == leaf


def test_binarize_four_leaf_star():
    g = Graph.unit(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    bt = binarize(g)
    assert bt.n_all == 7
    assert bt.parent[6] == 1 and bt.parent[7] == 6
    assert bt.plen[6] == 0 and bt.plen[7] == 0
    assert bt.orig[6] == 1 and bt.orig[7] == 1
    assert bt.children[1] == [2, 6]
    assert bt.children[6] == [3, 7]
    assert bt.children[7] == [4, 5]


def test_binarize_path_identity(path5):
    bt = binarize(path5)
    assert bt.n_all == 5
    assert all(bt.children[v] == [v + 1] for v in range(1, 5))
    edge = next(i for i in range(path5.m) if {path5.eu[i], path5.ev[i]} == {2, 3})
    s, r, ds = bt.map_point(EdgePoint(edge, F(1, 3)))
    assert (s, r) == (3, 2)
    assert ds == path5.length(edge) - F(1, 3)
    s, r, ds = bt.map_point(vertex_point(path5, 4))
    assert s == 4 and r is None and ds == 0


def test_binarize_preserves_distances_and_weights():
    rng = random.Random(711)
    for _ in range(8):
        g = random_tree(rng, rng.randint(2, 14), weighted=True)
        dm = all_pairs_distances(g)
        bt = binarize(g)
        for v in g.vertices():
            assert bt.dd[v] == dm.rows[1][v]
        for a in range(g.n + 1, bt.n_all + 1):
            assert not bt.marked[a]
            assert bt.weight[a] == g.weights_int[bt.orig[a]]
            assert bt.dd[a] == bt.dd[bt.orig[a]]
        # breadth-first order: every vertex once, parents first
        assert sorted(bt.order) == list(range(1, bt.n_all + 1))
        pos = {v: i for i, v in enumerate(bt.order)}
        for v in bt.order[1:]:
            assert pos[bt.parent[v]] < pos[v]


# ---------------------------------------------------------------- spines


def test_spine_path5(path5):
    st = spine_decompose(binarize(path5))
    leaves = [u for u in st.nodes if u.leaf_kind]
    assert len(leaves) == 5
    assert all(u.left is None for u in leaves)
    assert st.root.tsize == 5
    assert _root_spine_vertices(st) == {1, 2, 3, 4, 5}


def test_spine_perfect7():
    g = Graph.unit(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
    st = spine_decompose(binarize(g))
    assert _root_spine_vertices(st) == {1, 2, 4}


def test_spine_structure_random():
    rng = random.Random(712)
    for _ in range(10):
        g = random_tree(rng, rng.randint(1, 25), weighted=rng.random() < 0.5)
        st = spine_decompose(binarize(g))
        bt = st.bt
        assert st.root.tsize == bt.n_all
        for v in range(1, bt.n_all + 1):
            assert st.leaf_of[v].vertex == v
        for u in st.nodes:
            if u.leaf_kind:
                continue
            assert u.vt == u.right.vt and u.vb == u.left.vb
            assert u.tsize == u.left.tsize + u.right.tsize
            # the joined subspines are tree-adjacent
            assert bt.parent[u.left.vt] == u.right.vb


# ---------------------------------------------------------------- arrays


def test_leaf_arrays_frozen_single_vertex():
    g = Graph(1, [3], [])
    st, ca = _engine(g, F(2))
    i = st.root.idx
    assert _side(g, ca, i) == ([None, F(2, 3), 0], [0, 1, 1], 1)
    # a spine vertex's node has one side for both directions
    assert st.fb_side[i] == i


def test_vertex_side_aux_unmarked(star3):
    # the copy 5 of the center heads the spine vertex node of {5, 4}:
    # covered alone at radius 1/2 it adds no marked vertex, and at radius
    # 1 only the leaf 4 one unit farther counts
    st, ca = _engine(star3, F(1, 2))
    bt = st.bt
    assert bt.orig[5] == 1 and not bt.marked[5] and st.left[5] == 4
    assert _side(star3, ca, st.leaf_of[5].idx)[:2] == ([None, F(1, 2), 0], [0, 0, 0])
    st, ca = _engine(star3, F(1))
    assert _side(star3, ca, st.leaf_of[5].idx)[:2] == ([None, F(1), 0], [0, 0, 1])


def test_arrays_path5_midspine(path5):
    st, ca = _engine(path5, F(1))
    node = next(
        u for u in st.nodes if not u.leaf_kind and u.vt == 3 and u.vb == 5
    )
    xs, zs, _ = _side(path5, ca, node.idx)
    # standing at vertex 3 with unit radius covers {3, 4}; 5 stays out
    i = max(j for j in range(1, len(xs)) if xs[j] >= 0)
    assert zs[i] == 2


def test_arrays_shape_invariants():
    rng = random.Random(713)
    for _ in range(10):
        g = random_tree(rng, rng.randint(1, 16), weighted=rng.random() < 0.5)
        lam = F(rng.randint(0, 40), rng.randint(1, 8))
        st, ca = _engine(g, lam)
        assert ca.off[0] == 0 and ca.off[-1] == len(ca.xs) == len(ca.xd) == len(ca.zs)
        assert len(ca.off) == len(ca.icov) + 1 == st.sides + 1
        for i in range(st.sides):
            xs, zs, c = _side(g, ca, i)
            assert xs[0] is None and zs[0] == 0 and xs[-1] == 0
            for j in range(2, len(xs)):
                assert xs[j] < xs[j - 1]
            for j in range(1, len(xs)):
                assert zs[j] >= zs[j - 1]
            if c:
                assert xs[c] >= 0


def _fraction_sides(st, lam):
    """Every side of the spine tree at radius lam by walking each node's
    vertices with Fractions, as _side reads them.

    The ft side of a node holds, per vertex u of its set, the largest
    distance tau(u) from the outside point to its top vt at which u is
    covered: u is covered exactly when every vertex y on the path passes
    its gate, lam/w_y >= tau + d(vt, y).  The fb side does the same from
    below its bottom vb.  A side lists the distinct tau >= 0 descending
    after a sentinel, closed by 0, with the marked vertices of tau at
    least each key, and its cover key is the least tau on its subspine."""
    bt = st.bt
    g = bt.g
    dd = bt.dd

    def gate(y, dist):
        return lam * g.weight_scale / bt.weight[y] - F(dist, g.length_scale)

    def side(taus, spine_taus):
        keys = sorted({t for t, _ in taus if t >= 0}, reverse=True)
        if keys[-1] > 0:
            keys.append(F(0))
        zs = [sum(m for t, m in taus if t >= key) for key in keys]
        cov = min(spine_taus)
        return [None] + keys, [0] + zs, (keys.index(cov) + 1 if cov >= 0 else 0)

    out = {}
    for node in st.nodes:
        spine = [node.vt]
        while spine[-1] != node.vb:
            spine.append(st.right[spine[-1]])
        vt, vb = node.vt, node.vb
        ft, fb = [], []
        for i, s in enumerate(spine):
            # s, then the subtree hanging from it, each vertex with its
            # path from below s
            members = [(s, [])]
            stack = [(st.left[s], [st.left[s]])] if st.left[s] else []
            while stack:
                v, path = stack.pop()
                members.append((v, path))
                stack += [(c, path + [c]) for c in bt.children[v]]
            for v, below in members:
                m = 1 if bt.marked[v] else 0
                t = min(gate(y, dd[y] - dd[vt]) for y in spine[: i + 1] + below)
                b = min(
                    [gate(y, dd[vb] - dd[y]) for y in spine[i:]]
                    + [gate(y, dd[vb] - 2 * dd[s] + dd[y]) for y in below]
                )
                ft.append((t, m, v == s))
                fb.append((b, m, v == s))
        for i, taus in ((node.idx, ft), (st.fb_side[node.idx], fb)):
            out[i] = side([(t, m) for t, m, _ in taus], [t for t, _, on in taus if on])
    return out


# ---------------------------------------------------------------- queries


def test_query_count_path5_frozen(path5):
    st, ca = _engine(path5, lam=F(3, 2))
    x = vertex_point(path5, 3)
    assert query_count(st, ca, x) == 3
    assert covered_walk(path5, x, F(3, 2)).keys() == {2, 3, 4}


def test_query_count_star_hub(star3):
    st, ca = _engine(star3, lam=F(1))
    x = vertex_point(star3, 1)
    assert query_count(st, ca, x) == 4
    assert covered_walk(star3, x, F(1)).keys() == {1, 2, 3, 4}


def test_query_count_small_radius(path5):
    st, ca = _engine(path5, lam=F(1, 4))
    x = EdgePoint(0, F(1, 2))
    assert query_count(st, ca, x) == 0
    assert covered_walk(path5, x, F(1, 4)) == {}


def test_query_at_least_k_frozen(path5):
    st, ca = _engine(path5, lam=F(3, 2))
    mid = vertex_point(path5, 3)
    assert query_at_least_k(st, ca, mid, 1)
    assert query_at_least_k(st, ca, mid, 3)
    assert not query_at_least_k(st, ca, mid, 4)
    with pytest.raises(ValueError):
        query_at_least_k(st, ca, mid, 0)


def _random_points(rng, g, count):
    pts = []
    for _ in range(count):
        edge = rng.randrange(g.m) if g.m else None
        if edge is None:
            pts.append(vertex_point(g, 1))
            continue
        t = g.length(edge) * F(rng.randint(0, 8), 8)
        pts.append(canonical_point(g, edge, t))
    return pts


def _random_radius(rng, g, dm, x):
    v = rng.randint(1, g.n)
    if rng.random() < 0.5:
        # exact boundary: v's covering threshold at x
        return g.weights[v] * point_distance(g, dm, x, v)
    num = rng.randint(0, 24)
    return F(num, rng.randint(1, 6))


def _walk_distances(g, x, lam):
    """covered_walk with its integer distances read as Fractions."""
    unit = x.t.denominator * g.length_scale
    return {v: F(d, unit) for v, d in covered_walk(g, x, lam).items()}


def test_query_matches_brute_random():
    rng = random.Random(714)
    for _ in range(12):
        g = random_tree(rng, rng.randint(2, 18), weighted=rng.random() < 0.5)
        dm = all_pairs_distances(g)
        st, _ = _engine(g)
        for x in _random_points(rng, g, 25):
            lam = _random_radius(rng, g, dm, x)
            ca = build_coverage_arrays(st, lam)
            want = oracle.brute_covered_set(g, dm, x, lam)
            assert query_count(st, ca, x) == len(want)
            assert _walk_distances(g, x, lam) == {v: point_distance(g, dm, x, v) for v in want}
            for k in range(1, g.n + 1):
                assert query_at_least_k(st, ca, x, k) == (len(want) >= k)


def test_query_truncated_agrees():
    rng = random.Random(715)
    for _ in range(8):
        g = random_tree(rng, rng.randint(2, 15), weighted=True)
        dm = all_pairs_distances(g)
        st, _ = _engine(g)
        for x in _random_points(rng, g, 12):
            lam = _random_radius(rng, g, dm, x)
            ca = build_coverage_arrays(st, lam)
            got = len(oracle.brute_covered_set(g, dm, x, lam))
            for k in (1, 2, 3):
                assert query_at_least_k(st, ca, x, k) == (got >= k)


def test_query_reports_only_original_vertices():
    g = Graph(7, [2, 1, 3, 1, 2, 1, 4],
              [(1, 2, 1), (1, 3, 2), (1, 4, 1), (1, 5, 3), (1, 6, 1), (1, 7, 2)])
    dm = all_pairs_distances(g)
    st, _ = _engine(g)
    rng = random.Random(716)
    for x in _random_points(rng, g, 15):
        lam = _random_radius(rng, g, dm, x)
        ca = build_coverage_arrays(st, lam)
        assert query_count(st, ca, x) == oracle.brute_coverage_count(g, dm, x, lam)


def test_build_determinism():
    rng = random.Random(717)
    g = random_tree(rng, 20, weighted=True)

    def dump():
        st, ca = _engine(g, F(7, 3))
        shape = [(u.leaf_kind, u.vertex, u.vt, u.vb, u.tsize) for u in st.nodes]
        return shape, st.fb_side, ca.xs, ca.xd, ca.zs, ca.off, ca.icov

    assert dump() == dump()


# ---------------------------------------------------------------- wide scales

# primes near 10**6 and near 2**61: lengths and weights built from them
# have pairwise coprime numerators and denominators, so the integer keys
# carry per-vertex denominators of up to ~120 bits and no common scale
_PRIMES = (999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037) + tuple(
    2**61 + o for o in (-105, -91, -1, 15, 21, 57, 65, 135)
)


@hs.composite
def _wide_trees(draw):
    prime = hs.sampled_from(_PRIMES)

    def rat():
        return F(draw(prime) * draw(hs.integers(1, 9)), draw(prime))

    n = draw(hs.integers(2, 8))
    edges = [(draw(hs.integers(1, v - 1)), v, rat()) for v in range(2, n + 1)]
    return Graph(n, [rat() for _ in range(n)], edges)


@hs.composite
def _wide_cases(draw):
    """A tree, query points anywhere on its edges, and for each point a
    radius: an exact coverage boundary w_v * d(x, v), or that boundary
    times an arbitrary fraction."""
    g = draw(_wide_trees())
    dm = all_pairs_distances(g)
    queries = []
    for _ in range(draw(hs.integers(1, 4))):
        edge = draw(hs.integers(0, g.m - 1))
        den = draw(hs.sampled_from((1, 2, 3) + _PRIMES))
        x = canonical_point(g, edge, g.length(edge) * F(draw(hs.integers(0, den)), den))
        lam = g.weights[draw(hs.integers(1, g.n))] * point_distance(
            g, dm, x, draw(hs.integers(1, g.n)))
        if draw(hs.booleans()):
            lam *= F(draw(hs.integers(0, 3 * den)), den)
        queries.append((x, lam))
    return g, dm, queries, draw(hs.integers(2, g.n))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_wide_cases())
def test_integer_keys_match_brute_at_wide_scales(case):
    g, dm, queries, k = case
    st, _ = _engine(g)
    for x, lam in queries:
        ca = build_coverage_arrays(st, lam)
        want = oracle.brute_covered_set(g, dm, x, lam)
        assert query_count(st, ca, x) == len(want)
        assert _walk_distances(g, x, lam) == {v: point_distance(g, dm, x, v) for v in want}
        for kk in range(1, g.n + 1):
            assert query_at_least_k(st, ca, x, kk) == (len(want) >= kk)
    assert solve_weighted_tree(g, k).lambda_star == oracle.brute_lambda(g, k)


# ---------------------------------------------------------------- closed form


@hs.composite
def _side_cases(draw):
    """A tree of at most 12 vertices (random, a path or a star) with
    lengths and weights over one denominator family, and radii: exact
    coverage boundaries, pair radii and arbitrary fractions.  Small
    denominators keep the closed form in int64; primes near 10**6 and
    2**61 push it to Python ints."""
    dens = draw(hs.sampled_from(((1, 2, 4), _PRIMES[:8], _PRIMES[8:])))

    def rat():
        return F(draw(hs.integers(1, 9)), draw(hs.sampled_from(dens)))

    n = draw(hs.integers(1, 12))
    shape = draw(hs.sampled_from(("random", "path", "star")))
    parents = {
        "random": lambda v: draw(hs.integers(1, v - 1)),
        "path": lambda v: v - 1,
        "star": lambda v: 1,
    }[shape]
    g = Graph(n, [rat() for _ in range(n)], [(parents(v), v, rat()) for v in range(2, n + 1)])
    dm = all_pairs_distances(g)
    lams = [F(0)]
    for _ in range(draw(hs.integers(1, 3))):
        u, v = draw(hs.integers(1, n)), draw(hs.integers(1, n))
        wu, wv, d = g.weights[u], g.weights[v], exact_d(dm, u, v)
        lams += [wu * d, wu * wv * d / (wu + wv)]
        lams.append(F(draw(hs.integers(0, 40)), draw(hs.integers(1, 7))))
    return g, lams


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_side_cases())
def test_sides_match_fraction_walk(case):
    g, lams = case
    st, _ = _engine(g)
    for lam in lams:
        ca = build_coverage_arrays(st, lam)
        assert {i: _side(g, ca, i) for i in range(st.sides)} == _fraction_sides(st, lam)


def _caterpillar(rng, n):
    # a path of n // 2 vertices, each with one leaf
    half = n // 2
    edges = [(v - 1, v, rand_rational(rng)) for v in range(2, half + 1)]
    edges += [(v, half + v, rand_rational(rng)) for v in range(1, half + 1)]
    return Graph(2 * half, [rand_rational(rng) for _ in range(2 * half)], edges)


def _path(rng, n):
    edges = [(v - 1, v, rand_rational(rng)) for v in range(2, n + 1)]
    return Graph(n, [rand_rational(rng) for _ in range(n)], edges)


def test_large_trees_count_every_critical_point():
    # past four doubling levels: every critical point of three radii
    # counts as many vertices as the covered subtree holds
    rng = random.Random(718)
    levels = []
    for g in (_path(rng, 400), _caterpillar(rng, 400), random_tree(rng, 400, weighted=True)):
        ctx = _TreeContext(g)
        levels.append(ctx.st.lay.levels)
        num, den = _pair_radii(ctx)
        for t in (len(num) // 50, len(num) // 2, 9 * len(num) // 10):
            lam = F(int(num[t]), int(den[t]))
            ca = build_coverage_arrays(ctx.st, lam)
            for pt in {ctx.point(v, lam) for v in g.vertices()}:
                x = ctx.edge_point(pt)
                assert query_count(ctx.st, ca, x) == len(covered_walk(g, x, lam))
    assert levels[0] == 9 and min(levels) >= 4


def test_doubling_rounds_stay_logarithmic(monkeypatch):
    # a 2000-vertex path is one spine, as high as a tree gets: the build
    # takes one np.minimum per doubling round beyond the calls a single
    # vertex takes
    calls = [0]
    minimum = tree_engine.np.minimum

    def counted(*args, **kwargs):
        calls[0] += 1
        return minimum(*args, **kwargs)

    n = 2000
    counts = []
    for g in (Graph(1, [3], []), _path(random.Random(719), n)):
        st, _ = _engine(g)
        monkeypatch.setattr(tree_engine.np, "minimum", counted)
        calls[0] = 0
        build_coverage_arrays(st, F(5, 2))
        monkeypatch.setattr(tree_engine.np, "minimum", minimum)
        counts.append(calls[0])
    assert 0 < counts[1] - counts[0] <= math.ceil(math.log2(n)) + 1
