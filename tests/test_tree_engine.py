"""Tree coverage engine: binarization and depths, spine decomposition,
coverage arrays, and point queries."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ckoc import oracle
from ckoc.graph_core import (
    EdgePoint,
    Graph,
    InstanceError,
    all_pairs_distances,
    canonical_point,
    point_distance,
    vertex_point,
)
from ckoc.tree_engine import (
    _vertex_side,
    binarize,
    build_coverage_arrays,
    query_at_least_k,
    query_count,
    spine_decompose,
)
from ckoc.tree_solver import covered_walk, solve_weighted_tree

from conftest import random_tree


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
    for e in star3.edges:
        leaf = e.v if e.u == 1 else e.u
        assert bt.edge_child[e.id] == leaf


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
    e = next(e for e in path5.edges if {e.u, e.v} == {2, 3})
    s, r, ds = bt.map_point(EdgePoint(e.id, F(1, 3)))
    assert (s, r) == (3, 2)
    assert ds == e.length - F(1, 3)
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
    st, ca = _engine(g, lam=F(2))
    side = ca.ft[st.root.idx]
    assert _keys(g, ca, side.xs, side.xd) == [None, F(2, 3), 0]
    assert side.ys == [0, 1, 1]
    assert side.zs == [0, 1, 1]
    assert side.icov == 1
    assert ca.fb[st.root.idx] is side


def test_vertex_side_aux_unmarked(star3):
    bt = binarize(star3)
    # radius 1: the key numerator is p * SW * SL with p = 1
    side = _vertex_side(bt, 5, star3.weight_scale * star3.length_scale)
    assert side.ys == [0, 1, 1]
    assert side.zs == [0, 0, 0]


def test_arrays_path5_midspine(path5):
    st, ca = _engine(path5, lam=F(1))
    node = next(
        u for u in st.nodes if not u.leaf_kind and u.vt == 3 and u.vb == 5
    )
    side = ca.ft[node.idx]
    xs = _keys(path5, ca, side.xs, side.xd)
    # standing at vertex 3 with unit radius covers {3, 4}; 5 stays out
    i = max(j for j in range(1, len(xs)) if xs[j] >= 0)
    assert side.ys[i] == 2
    assert side.zs[i] == 2


def test_arrays_shape_invariants():
    rng = random.Random(713)
    for _ in range(10):
        g = random_tree(rng, rng.randint(1, 16), weighted=rng.random() < 0.5)
        lam = F(rng.randint(0, 40), rng.randint(1, 8))
        st, ca = _engine(g, lam=lam)
        for side in list(ca.ft) + list(ca.fb):
            xs, ys, zs = _keys(g, ca, side.xs, side.xd), side.ys, side.zs
            assert xs[0] is None and xs[-1] == 0
            for i in range(2, len(xs)):
                assert xs[i] < xs[i - 1]
            for i in range(1, len(xs)):
                assert ys[i] >= ys[i - 1] and zs[i] >= zs[i - 1]
            if side.icov:
                assert xs[side.icov] >= 0


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
    x = EdgePoint(path5.edges[0].id, F(1, 2))
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
        e = g.edges[rng.randrange(g.m)] if g.m else None
        if e is None:
            pts.append(vertex_point(g, 1))
            continue
        t = e.length * F(rng.randint(0, 8), 8)
        pts.append(canonical_point(g, e.id, t))
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
        st, ca = _engine(g, lam=F(7, 3))
        shape = [(u.leaf_kind, u.vertex, u.vt, u.vb, u.tsize) for u in st.nodes]
        sides = [
            (_keys(g, ca, s.xs, s.xd), s.ys, s.zs, s.icov)
            for s in list(ca.ft) + list(ca.fb)
        ]
        return shape, sides

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
        e = g.edges[draw(hs.integers(0, g.m - 1))]
        den = draw(hs.sampled_from((1, 2, 3) + _PRIMES))
        x = canonical_point(g, e.id, e.length * F(draw(hs.integers(0, den)), den))
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
