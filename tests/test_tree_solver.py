"""Tests for the tree feasibility test and both tree solvers."""

import inspect
import random
import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from ckoc import oracle, tree_solver
from ckoc.graph_core import (
    EdgePoint,
    Graph,
    InstanceError,
    all_pairs_distances,
    vertex_point,
)
from ckoc.tree_engine import _rooted_arrays
from ckoc.tree_solver import (
    _centroid_lines,
    _euler_rooting,
    _TreeContext,
    _UnweightedEngine,
    _id_dtype,
    _least_radius,
    _pair_radii,
    _unweighted_solution,
    covered_walk,
    is_feasible_tree,
    solve_unweighted_tree,
    solve_weighted_tree,
)

from conftest import exact_d, point_distance, random_tree, tree_probes


# ---------------------------------------------------------- critical points


def _crit(ctx, v, lam):
    return ctx.edge_point(ctx.point(v, lam))


def test_critical_points_path3(path3):
    ctx = _TreeContext(path3)
    lam = F(1, 2)
    assert _crit(ctx, 1, lam) == EdgePoint(0, F(0))
    assert _crit(ctx, 2, lam) == EdgePoint(0, F(1, 2))
    # half a unit from vertex 3 back toward the root
    assert _crit(ctx, 3, lam) == EdgePoint(1, F(1, 2))


def test_critical_points_wedge(wedge2):
    ctx = _TreeContext(wedge2)
    assert _crit(ctx, 1, F(4)) == vertex_point(wedge2, 1)
    assert _crit(ctx, 2, F(4)) == EdgePoint(0, F(2))


def test_critical_points_saturated(path5):
    ctx = _TreeContext(path5)
    assert {_crit(ctx, v, F(100)) for v in path5.vertices()} == {vertex_point(path5, 1)}


def test_critical_points_rejects_negative(path3):
    # no point covers anything at a negative radius, not even its own vertex
    for k in path3.vertices():
        assert not is_feasible_tree(path3, k, F(-1)).feasible


def test_critical_points_on_root_path():
    rng = random.Random(31)
    for trial in range(12):
        n = rng.randint(2, 12)
        g = random_tree(rng, n, weighted=bool(trial % 2))
        dm = all_pairs_distances(g)
        lam = F(rng.randint(0, 12), rng.randint(1, 4))
        ctx = _TreeContext(g)
        for v in g.vertices():
            x = _crit(ctx, v, lam)
            dv = point_distance(g, dm, x, v)
            assert g.weights[v] * dv == min(lam, g.weights[v] * exact_d(dm, 1, v))
            # x lies on the path between v and the root
            assert point_distance(g, dm, x, 1) + dv == exact_d(dm, 1, v)


def test_context_matches_rooted_tree():
    # the context keeps the breadth-first rooting at 1, with exact depths
    rng = random.Random(32)
    for trial in range(60):
        g = random_tree(rng, rng.randint(1, 40), weighted=True)
        parent, _plen, eid, _children = _rooted_arrays(g, 1)
        dm = all_pairs_distances(g)
        ctx = _TreeContext(g)
        assert (ctx.parent, ctx.eid) == (parent, eid), trial
        assert ctx.dd[1 : g.n + 1] == dm.rows[1][1:], trial


# ------------------------------------------------------------- feasibility


def test_feasible_path5(path5):
    res = is_feasible_tree(path5, 3, F(1))
    assert res.feasible
    x, block = res.witness
    assert x == EdgePoint(0, F(1))
    assert block == frozenset({1, 2, 3})
    assert not is_feasible_tree(path5, 3, F(99, 100)).feasible


def test_feasible_star3(star3):
    res = is_feasible_tree(star3, 2, F(1, 2))
    assert res.feasible
    assert res.witness == (EdgePoint(0, F(1, 2)), frozenset({1, 2}))


def test_feasible_rejects_bad_k(path3):
    with pytest.raises(ValueError):
        is_feasible_tree(path3, 0, F(1))
    with pytest.raises(ValueError):
        is_feasible_tree(path3, 4, F(1))


def test_feasible_matches_brute():
    rng = random.Random(57)
    for trial in range(25):
        n = rng.randint(2, 9)
        g = random_tree(rng, n, weighted=bool(trial % 2))
        cands = sorted(set(oracle.candidate_values(g)))
        for _ in range(6):
            k = rng.randint(1, n)
            lam = rng.choice(cands)
            if rng.random() < 0.5:
                lam += F(rng.choice((-1, 1)), 64)
            want = oracle.brute_feasible(g, k, lam) if lam >= 0 else False
            for probe in tree_probes():
                assert is_feasible_tree(g, k, lam).feasible == want, (probe, trial, k, lam)


def test_feasible_witness_tight_at_optimum():
    rng = random.Random(58)
    for trial in range(15):
        n = rng.randint(2, 9)
        g = random_tree(rng, n, weighted=bool(trial % 2))
        dm = all_pairs_distances(g)
        k = rng.randint(2, n)
        lam = oracle.brute_lambda(g, k)
        for _ in tree_probes():
            x, block = is_feasible_tree(g, k, lam).witness
            assert block == oracle.brute_covered_set(g, dm, x, lam)
            assert len(block) == k
            mx = max(g.weights[u] * point_distance(g, dm, x, u) for u in block)
            assert mx == lam


# --------------------------------------------------------- weighted solver


def test_weighted_wedge(wedge2):
    s = solve_weighted_tree(wedge2, 2)
    assert s.lambda_star == F(4)
    assert s.center == EdgePoint(0, F(2))
    assert s.subtree == frozenset({1, 2})


def test_weighted_path5(path5):
    assert solve_weighted_tree(path5, 3).lambda_star == F(1)
    assert solve_weighted_tree(path5, 5).lambda_star == F(2)


def test_weighted_star3(star3):
    assert solve_weighted_tree(star3, 4).lambda_star == F(1)


def test_weighted_k1_shortcut(path5):
    s = solve_weighted_tree(path5, 1)
    assert s.lambda_star == 0
    assert s.center == vertex_point(path5, 1)
    assert s.subtree == frozenset({1})


def test_weighted_rejects_nontree(cycle4):
    with pytest.raises(InstanceError):
        solve_weighted_tree(cycle4, 2)
    with pytest.raises(ValueError):
        solve_weighted_tree(Graph.unit(2, [(1, 2)]), 3)


def test_weighted_matches_brute():
    rng = random.Random(71)
    for trial in range(30):
        n = rng.randint(2, 10)
        g = random_tree(rng, n, weighted=bool(trial % 2))
        for k in range(1, n + 1):
            want = oracle.brute_lambda(g, k)
            for probe in tree_probes():
                got = solve_weighted_tree(g, k)
                assert got.lambda_star == want, (probe, trial, k)


def test_weighted_witness_valid():
    rng = random.Random(72)
    for trial in range(15):
        n = rng.randint(2, 10)
        g = random_tree(rng, n, weighted=True)
        dm = all_pairs_distances(g)
        k = rng.randint(2, n)
        for _ in tree_probes():
            s = solve_weighted_tree(g, k)
            assert len(s.subtree) == k
            inside = sum(1 for a, b in zip(g.eu, g.ev) if a in s.subtree and b in s.subtree)
            assert inside == k - 1  # connected on a tree
            mx = max(g.weights[u] * point_distance(g, dm, s.center, u) for u in s.subtree)
            assert mx == s.lambda_star
            # the center is one of the radius-lam critical points
            ctx = _TreeContext(g)
            assert s.center in {_crit(ctx, v, s.lambda_star) for v in g.vertices()}


def test_weighted_counting_strategy_agrees():
    rng = random.Random(73)
    for trial in range(10):
        n = rng.randint(3, 9)
        g = random_tree(rng, n, weighted=True)
        k = rng.randint(2, n)
        a = solve_weighted_tree(g, k, search="explicit")
        b = solve_weighted_tree(g, k, search="counting")
        assert (a.lambda_star, a.center, a.subtree) == (b.lambda_star, b.center, b.subtree)


# denominators on both sides of int64: a draw with only the small ones
# keeps the pair radii in int64, one with a large one needs Python ints
_PAIR_DENOMS = (1, 2, 3, 4, 999983, 1000003, 2**61 - 1, 2**61 + 15)
_INT64_PAIRS = Graph(3, [1, 2, F(3, 4)], [(1, 2, 5), (2, 3, F(1, 2))])
_OBJECT_PAIRS = Graph(3, [1, 2, F(3, 2**61 - 1)], [(1, 2, 5), (2, 3, F(1, 2**61 + 15))])


@hs.composite
def _pair_trees(draw):
    def rat():
        return F(draw(hs.integers(1, 9)), draw(hs.sampled_from(_PAIR_DENOMS)))

    n = draw(hs.integers(2, 9))
    edges = [(draw(hs.integers(1, v - 1)), v, rat()) for v in range(2, n + 1)]
    return Graph(n, [rat() for _ in range(n)], edges)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_pair_trees())
@example(_INT64_PAIRS)
@example(_OBJECT_PAIRS)
def test_optimum_is_a_pair_radius_and_searches_agree(g):
    dm = all_pairs_distances(g)
    w = g.weights
    radii = {
        w[u] * w[v] * exact_d(dm, u, v) / (w[u] + w[v])
        for u in g.vertices()
        for v in g.vertices()
        if u < v
    }
    num, den = _pair_radii(_TreeContext(g))
    assert [F(int(a), int(b)) for a, b in zip(num, den)] == sorted(radii)
    for k in range(2, g.n + 1):
        want = oracle.brute_lambda(g, k)
        assert want in radii, k
        explicit = solve_weighted_tree(g, k, search="explicit")
        counting = solve_weighted_tree(g, k, search="counting")
        assert explicit.lambda_star == want, k
        assert explicit.to_json(g) == counting.to_json(g), k


def test_pair_radii_take_python_ints_past_int64():
    assert _pair_radii(_TreeContext(_INT64_PAIRS))[0].dtype == np.int64
    assert _pair_radii(_TreeContext(_OBJECT_PAIRS))[0].dtype == object


@hs.composite
def _candidate_trees(draw):
    """Random trees, paths and stars of 2 to 40 vertices with lengths and
    weights a/p, a <= 9: p from the small denominators of _PAIR_DENOMS,
    which keep the pair radii and the centroid lines in int64, or from all
    of them, which mostly take Python ints."""
    n = draw(hs.integers(2, 40))
    shape = draw(hs.sampled_from(("random", "path", "star")))
    denoms = draw(hs.sampled_from((_PAIR_DENOMS[:6], _PAIR_DENOMS)))

    def rat():
        return F(draw(hs.integers(1, 9)), draw(hs.sampled_from(denoms)))

    if shape == "random":
        pairs = [(draw(hs.integers(1, v - 1)), v) for v in range(2, n + 1)]
    elif shape == "path":
        pairs = [(v - 1, v) for v in range(2, n + 1)]
    else:
        pairs = [(1, v) for v in range(2, n + 1)]
    return Graph(n, [rat() for _ in range(n)], [(u, v, rat()) for u, v in pairs])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_candidate_trees())
@example(_INT64_PAIRS)
@example(_OBJECT_PAIRS)
def test_candidates_match_brute(g):
    # the counting search's lines are (+-w_v, w_v d(c,v)) over every
    # centroid c of the brute-force decomposition and v of its component,
    # each once, in units of 1/SW and 1/(SW SL); the explicit search's
    # candidates are every distinct pair radius, ascending
    sw, sl = g.weight_scale, g.length_scale
    want = set()
    for _c, dist, _br in _ref_centroids(g):
        for v, d in dist.items():
            m = int(g.weights[v] * sw)
            b = int(g.weights[v] * sw * d * sl)
            want |= {(m, b), (-m, b)}
    ls = _centroid_lines(g)
    got = list(zip(ls.M.tolist(), ls.B.tolist()))
    assert len(got) == len(set(got)) and set(got) == want
    assert ls.M.dtype == (np.int64 if ls.int_ok else object)
    dm = all_pairs_distances(g)
    w = g.weights
    radii = {
        w[u] * w[v] * exact_d(dm, u, v) / (w[u] + w[v])
        for u in g.vertices()
        for v in g.vertices()
        if u < v
    }
    num, den = _pair_radii(_TreeContext(g))
    assert [F(int(a), int(b)) for a, b in zip(num, den)] == sorted(radii)


# ------------------------------------------------ walks against engines


# denominators near 10**6 keep both engines in int64; two or more near
# 2**61 give every length and weight a ~122-bit scale, so both take
# Python ints
_WALK_PRIMES = ((999953, 999959, 999961), (2**61 - 1, 2**61 + 15, 2**61 + 21))


@hs.composite
def _walk_trees(draw):
    """Trees of 2 to 64 vertices: random, a star, a path or a broom (a
    path ending in a star), unit or weighted, with lengths and weights
    a/p for a <= 9 and p one of up to three primes of one size."""
    n = draw(hs.integers(2, 64))
    shape = draw(hs.sampled_from(("random", "star", "path", "broom")))
    primes = draw(hs.sampled_from(_WALK_PRIMES))[: draw(hs.integers(1, 3))]

    def rat():
        return F(draw(hs.integers(1, 9)), draw(hs.sampled_from(primes)))

    handle = n // 2
    parent = {
        "random": lambda v: draw(hs.integers(1, v - 1)),
        "star": lambda v: 1,
        "path": lambda v: v - 1,
        "broom": lambda v: min(v - 1, handle),
    }[shape]
    weights = [F(1)] * n if draw(hs.booleans()) else [rat() for _ in range(n)]
    return Graph(n, weights, [(parent(v), v, rat()) for v in range(2, n + 1)])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_walk_trees())
@example(Graph.unit(64, [(1, v) for v in range(2, 65)]))
@example(Graph.unit(16, [(v - 1, v) for v in range(2, 17)]))
@example(
    Graph(
        64, [F(v % 5 + 1, 2) for v in range(64)], [(v - 1, v, F(v % 3 + 1)) for v in range(2, 65)]
    )
)
def test_walks_and_engines_agree(g):
    # walks below the limits, engines with the limits at 0: the same JSON
    solvers = [solve_weighted_tree] + [solve_unweighted_tree] * g.unit_weights
    for k in sorted({2, (g.n + 1) // 2, g.n}):
        for solve in solvers:
            got = [solve(g, k).to_json(g) for _ in tree_probes()]
            assert got[0] == got[1], (solve.__name__, k)


def test_engines_only_above_the_limits(monkeypatch):
    # a 64-vertex weighted tree and a 16-vertex unit tree build no spine
    # tree, coverage arrays or unit engine; one vertex more reaches them
    reached = set()

    def spy(name):
        fn = getattr(tree_solver, name)

        def called(*args):
            reached.add(name)
            return fn(*args)

        return called

    for name in ("spine_decompose", "build_coverage_arrays", "_UnweightedEngine"):
        monkeypatch.setattr(tree_solver, name, spy(name))
    rng = random.Random(96)
    for n, weighted, want in (
        (64, True, set()),
        (16, False, set()),
        (65, True, {"spine_decompose", "build_coverage_arrays"}),
        (17, False, {"_UnweightedEngine"}),
    ):
        g = random_tree(rng, n, weighted=weighted)
        reached.clear()
        sol = (solve_weighted_tree if weighted else solve_unweighted_tree)(g, n // 2)
        assert len(sol.subtree) == n // 2
        assert reached == want, n


# ------------------------------------------------------- unweighted solver


def test_unweighted_path5(path5):
    s = solve_unweighted_tree(path5, 3)
    assert s.lambda_star == F(1)
    assert s.center == EdgePoint(0, F(1))
    assert s.subtree == frozenset({1, 2, 3})
    assert solve_unweighted_tree(path5, 5).lambda_star == F(2)


def test_unweighted_star3(star3):
    s = solve_unweighted_tree(star3, 2)
    assert s.lambda_star == F(1, 2)
    assert s.center == EdgePoint(0, F(1, 2))


def test_unweighted_rejects_weighted(wedge2, cycle4):
    with pytest.raises(InstanceError):
        solve_unweighted_tree(wedge2, 2)
    with pytest.raises(InstanceError):
        solve_unweighted_tree(cycle4, 2)


def test_unweighted_equals_weighted():
    # same first-feasible-vertex rule, so whole solutions must coincide
    rng = random.Random(83)
    for trial in range(25):
        n = rng.randint(2, 11)
        g = random_tree(rng, n)
        for k in range(1, n + 1):
            for probe in tree_probes():
                a = solve_weighted_tree(g, k)
                b = solve_unweighted_tree(g, k)
                assert (a.lambda_star, a.center, a.subtree) == (
                    b.lambda_star,
                    b.center,
                    b.subtree,
                ), (probe, trial, k)


def test_unweighted_matches_brute():
    rng = random.Random(84)
    for trial in range(25):
        n = rng.randint(2, 11)
        g = random_tree(rng, n)
        for k in range(1, n + 1):
            want = oracle.brute_lambda(g, k)
            for probe in tree_probes():
                got = solve_unweighted_tree(g, k)
                assert got.lambda_star == want, (probe, trial, k)


def test_unweighted_scale_fallback():
    # astronomically long edges overflow the packed 64-bit grid, so the
    # engine runs on Python ints; with the limits at 0 this is the only
    # test of that path at small n
    g = Graph(
        5,
        [F(1)] * 5,
        [
            (1, 2, F(10**17)),
            (2, 3, F(3 * 10**17)),
            (3, 4, F(10**17)),
            (2, 5, F(2 * 10**17)),
        ],
    )
    for k in range(1, 6):
        want = oracle.brute_lambda(g, k)
        for _ in tree_probes():
            assert solve_unweighted_tree(g, k).lambda_star == want


def test_unweighted_prime_denominator_path():
    # lengths 1/p for three primes near 10**6 put the packed keys past
    # int64; the same engine answers on Python ints.  On a path the best
    # k vertices are k consecutive ones, centered on their window.
    primes = (999961, 999979, 999983)
    n = 2000
    g = Graph(n, [F(1)] * n, [(v, v + 1, F(1, primes[v % 3])) for v in range(1, n)])
    eng = _UnweightedEngine(g)
    assert all(a.dtype == object for a in (eng.depth_np, eng.fulls, eng.brs))
    pre = [F(0)]
    for edge in range(g.m):
        pre.append(pre[-1] + g.length(edge))
    for k in (2, n // 3, n // 2, n):
        s = solve_unweighted_tree(g, k)
        assert s.lambda_star == min(pre[i + k - 1] - pre[i] for i in range(n - k + 1)) / 2, k
        assert len(s.subtree) == k


def test_unweighted_medium_consistency():
    rng = random.Random(85)
    edges = []
    for v in range(2, 301):
        u = rng.randint(max(1, v - 9), v - 1)
        edges.append((u, v, F(rng.randint(1, 8), rng.choice((1, 2, 4)))))
    g = Graph(300, [F(1)] * 300, edges)
    for k in (2, 37, 150, 299):
        a = solve_unweighted_tree(g, k)
        b = solve_weighted_tree(g, k)
        assert a.lambda_star == b.lambda_star, k


def test_unweighted_determinism(path5):
    rng = random.Random(86)
    g = random_tree(rng, 40)
    first = solve_unweighted_tree(g, 17)
    again = solve_unweighted_tree(g, 17)
    assert (first.lambda_star, first.center, first.subtree) == (
        again.lambda_star,
        again.center,
        again.subtree,
    )


def _full_grid_least_radius(eng, k):
    """Bisection over the whole grid [0, maxdepth], counting every
    vertex's critical point at every probe."""
    lo, hi = 0, eng.maxdepth
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (eng.counts(mid) >= k).any():
            hi = mid
        else:
            lo = mid
    return hi, int(np.nonzero(eng.counts(hi) >= k)[0][0]) + 1


def _clamped_spider():
    # root 1 sits mid-length between a heavy leg 1-2 and the unit path
    # 1-3-...-12, so the outermost centroid lies on the path and its
    # farthest vertex, 2, lies beyond the root's maximum depth
    edges = [(1, 2, F(10)), (1, 3, F(1))] + [(v, v + 1, F(1)) for v in range(3, 12)]
    return Graph(12, [F(1)] * 12, edges)


def _traced_least_radius(eng, k, hits):
    """_least_radius(eng, k), adding to hits the name of each branch it
    takes, found by the text of the statement that only that branch runs."""
    lines, start = inspect.getsourcelines(_least_radius)
    at = {text.strip(): start + i for i, text in enumerate(lines)}
    split = at["block, rest = alive[top], np.delete(alive, top)"]
    survivors = at["hi, alive, cnt = hi - 1, rest[ok], cnt[ok]"]
    decided = at["v = int(block[0])"]
    tie = at["v = int(rest[ok][0])"]

    def line(frame, event, _arg):
        if event == "line":
            f = frame.f_locals
            if frame.f_lineno == split:
                hits.add("split")
            elif frame.f_lineno == survivors:
                hits.add("survivors at phi - 1")
            elif frame.f_lineno == decided and f["rest"].size and f["hi"] - 1 == f["lo"]:
                hits.add("phi - 1 = lo")
            elif frame.f_lineno == tie:
                hits.add("tie won outside the block")
        return line

    sys.settrace(lambda frame, *_: line if frame.f_code is _least_radius.__code__ else None)
    try:
        return _least_radius(eng, k)
    finally:
        sys.settrace(None)


def test_pruned_search_matches_full_grid_bisection(monkeypatch):
    # every split of the alive vertices into the bisected block and the
    # rest finds the full grid's radius and least id; equal lengths (a
    # path, a star) tie many vertices at the optimum
    rng = random.Random(87)
    clamped = _clamped_spider()
    c = next(_ref_centroids(clamped))[0]
    dm = all_pairs_distances(clamped)
    eng = _UnweightedEngine(clamped)
    kth = sorted(exact_d(dm, c, u) for u in clamped.vertices())[clamped.n - 1]
    assert kth * eng.sc2 > eng.maxdepth  # the bracket is clamped at k = n
    trees = [clamped, Graph.unit(12, [(v, v + 1) for v in range(1, 12)])]
    trees.append(Graph.unit(12, [(1, v) for v in range(2, 13)]))
    trees += [random_tree(rng, rng.randint(2, 12)) for _ in range(20)]
    trees += [random_tree(rng, 14) for _ in range(3)]
    default = tree_solver._PIVOT_BLOCK
    for block in (1, 2, 7, default):
        monkeypatch.setattr(tree_solver, "_PIVOT_BLOCK", block)
        hits = set()
        for trial, g in enumerate(trees):
            eng = _UnweightedEngine(g)
            for k in range(2, g.n + 1):
                radius, v_star = _full_grid_least_radius(eng, k)
                assert _traced_least_radius(eng, k, hits) == (radius, v_star), (block, trial, k)
                got = solve_unweighted_tree(g, k)
                want = _unweighted_solution(g, eng, k, radius, v_star)
                assert got == want, (block, trial, k)
                # the full grid's answer does not depend on the block; brute
                # force takes seconds past 12 vertices
                if block == default and g.n <= 12:
                    assert got.lambda_star == oracle.brute_lambda(g, k), (trial, k)
        # up to 14 vertices fit in the default block: one plain bisection
        assert hits == (set() if block == default else {
            "split", "survivors at phi - 1", "phi - 1 = lo", "tie won outside the block"
        }), block


# ------------------------------------------ centroid distance subsets


def _ref_centroids(g):
    """Brute-force recursive centroid decomposition, kept apart from the
    solvers' own: per component, the vertex whose largest remaining part
    is smallest, ties to the smaller id, found in O(n^2) per level.
    Yields (c, dist, br) per centroid, each component before its parts:
    dist maps every vertex of c's component to its exact distance from c,
    br to its branch, the neighbour of c it lies behind (c for c)."""
    adj = {v: [(u, g.length(edge)) for u, edge in g.adj[v]] for v in g.vertices()}

    def reach(src, comp, cut):
        dist = {src: F(0)}
        stack = [src]
        while stack:
            v = stack.pop()
            for u, length in adj[v]:
                if u in comp and u != cut and u not in dist:
                    dist[u] = dist[v] + length
                    stack.append(u)
        return dist

    def parts(c, comp):
        return {u: set(reach(u, comp, c)) for u, _ in adj[c] if u in comp}

    stack = [set(g.vertices())] if g.n else []
    while stack:
        comp = stack.pop()
        c = min(comp, key=lambda v: (max(map(len, parts(v, comp).values()), default=0), v))
        br = {c: c}
        for u, part in parts(c, comp).items():
            br.update(dict.fromkeys(part, u))
            stack.append(part)
        yield c, reach(c, comp, None), br


def test_subsets_cover_all_distances():
    # each pair is split at exactly one centroid of the engine's chains,
    # where it lies in two different branches (or one of the two is the
    # centroid): the count of _ball relies on it
    rng = random.Random(93)
    for trial in range(15):
        n = rng.randint(1, 12)
        g = random_tree(rng, n)
        dm = all_pairs_distances(g)
        eng = _UnweightedEngine(g)
        rows = {}
        for v in g.vertices():
            at = slice(eng.ch_off[v], eng.ch_off[v] + eng.ch_len[v])
            for c, d, b in zip(*(a[at].tolist() for a in (eng.ch_c, eng.ch_d, eng.ch_b))):
                rows.setdefault(c, []).append((v, d, b))
        got = {v: [] for v in g.vertices()}
        for comp in rows.values():
            for v, dv, bv in comp:
                got[v].extend(dv + du for _u, du, bu in comp if bu != bv)
        for v in g.vertices():
            want = sorted(exact_d(dm, v, u) * eng.sc2 for u in g.vertices() if u != v)
            assert sorted(got[v]) == want, (trial, v)


def test_subsets_views_stay_logarithmic():
    rng = random.Random(94)
    edges = [(1, v) for v in range(2, 65)]  # 63-leaf star, the worst fan-out
    bound = 3 * (2 * 64).bit_length()
    for g in (Graph.unit(64, edges), random_tree(rng, 60)):
        views = [0] * (g.n + 1)
        for _c, dist, _br in _ref_centroids(g):
            for v in dist:
                views[v] += 1
        assert max(views) <= bound
        # the packed engine keeps one chain entry per view
        assert list(_UnweightedEngine(g).ch_len[1:]) == views[1:]


def test_kth_distance_from():
    # the k-th distance from v is the least radius whose ball around v,
    # counted over the packed centroid subsets, holds v and k others
    rng = random.Random(95)
    g = random_tree(rng, 11)
    dm = all_pairs_distances(g)
    eng = _UnweightedEngine(g)

    def others_within(v, r):
        rho = np.array([int(r * eng.sc2)], dtype=eng.dt)
        p = np.array([v], dtype=np.int64)
        return int(eng._ball(p, rho, p, rho)[0]) - 1

    for v in g.vertices():
        row = sorted(exact_d(dm, v, u) for u in g.vertices() if u != v)
        for k in (1, 5, 10):
            assert min(r for r in row if others_within(v, r) >= k) == row[k - 1]


# ------------------------------------------------------ unweighted engine


@hs.composite
def _unit_trees(draw, min_n=2, max_n=40, shapes=("random", "path", "star")):
    """Unit-weight trees with min_n <= n <= max_n: random, paths, stars
    and caterpillars (a path with leaves hung on it), labels shuffled so
    vertex 1 may sit anywhere, lengths all equal or mixed."""
    n = draw(hs.integers(min_n, max_n))
    shape = draw(hs.sampled_from(shapes))
    if shape == "random":
        pairs = [(draw(hs.integers(1, v - 1)), v) for v in range(2, n + 1)]
    elif shape == "path":
        pairs = [(v - 1, v) for v in range(2, n + 1)]
    elif shape == "star":
        pairs = [(1, v) for v in range(2, n + 1)]
    else:
        spine = draw(hs.integers(1, n))
        pairs = [(v - 1, v) for v in range(2, spine + 1)]
        pairs += [(draw(hs.integers(1, spine)), v) for v in range(spine + 1, n + 1)]
    label = [0] + draw(hs.permutations(range(1, n + 1)))
    # 10**17 overflows the int64 packing, so the engine runs on Python ints
    lengths = hs.sampled_from((F(1), F(2), F(3), F(1, 2), F(3, 4), F(5, 8), F(10**17)))
    if draw(hs.booleans()):
        same = draw(lengths)
        lengths = hs.just(same)
    edges = [(label[u], label[v], draw(lengths)) for u, v in pairs]
    return Graph(n, [F(1)] * n, edges)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_unit_trees(), hs.data())
def test_engine_counts_subsets_and_monotone(g, data):
    eng = _UnweightedEngine(g)
    top = eng.maxdepth
    drawn = data.draw(hs.lists(hs.integers(0, top), max_size=10))
    radii = sorted(set(drawn) | {0, top})
    full = [eng.counts(r) for r in radii]
    # each vertex's count is nondecreasing in the radius, and at maxdepth
    # every critical point is the root, which covers the whole tree
    for lower, upper in zip(full, full[1:]):
        assert (lower <= upper).all()
    assert (full[-1] == g.n).all()
    others = data.draw(hs.lists(hs.integers(2, g.n), unique=True, max_size=g.n - 1))
    at = data.draw(hs.integers(0, len(others)))
    for subset in (others, others[:at] + [1] + others[at:]):
        sub = np.array(subset, dtype=np.int64)
        for r, cnt in zip(radii, full):
            assert (eng.counts(r, sub) == cnt[sub - 1]).all(), (subset, r)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_unit_trees(shapes=("random", "path", "star", "caterpillar")), hs.data())
def test_engine_counts_match_covered_walk(g, data):
    # every vertex's count is the size of its critical point's covered
    # subtree, walked in exact integers with no engine array
    eng = _UnweightedEngine(g)
    top = eng.maxdepth
    drawn = data.draw(hs.lists(hs.integers(0, top), max_size=4))
    for r in sorted(set(drawn) | {0, 1, top // 2, top}):
        lam = F(r, eng.sc2)
        want = [len(covered_walk(g, eng.edge_point(r, v), lam)) for v in g.vertices()]
        assert eng.counts(r).tolist() == want, r


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_unit_trees(1, 60, ("random", "path", "star", "caterpillar")))
@example(Graph.unit(1, []))
@example(Graph.unit(2, [(1, 2)]))
def test_level_decomposition_matches_generator(g):
    # the engine's level-by-level decomposition has the brute-force
    # generator's centroids, chains and distances, and splits each
    # component into the same branches; only the branch ids may differ
    eng = _UnweightedEngine(g)
    want_chain = {v: [] for v in g.vertices()}
    want_parts = {}
    for c, dist, br in _ref_centroids(g):
        for v in dist:
            want_chain[v].append((c, dist[v] * eng.sc2))
        want_parts[c] = _partition((br[v], v) for v in dist if v != c)
    got_rows = {c: [] for c in eng.ch_c.tolist()}
    for v in g.vertices():
        at = slice(eng.ch_off[v], eng.ch_off[v] + eng.ch_len[v])
        cs, ds, bs = (a[at].tolist() for a in (eng.ch_c, eng.ch_d, eng.ch_b))
        assert list(zip(cs, ds)) == want_chain[v], v
        for c, b in zip(cs, bs):
            if c != v:
                got_rows[c].append((b, v))
    assert {c: _partition(rows) for c, rows in got_rows.items()} == want_parts


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_unit_trees(1, 60, ("random", "path", "star", "caterpillar")))
@example(Graph.unit(1, []))
def test_euler_rooting_matches_rooted_arrays(g):
    # the numpy rooting gives the parents, parent edges and depths of the
    # breadth-first rooting at 1, and entry/exit times of some DFS
    parent, _plen, eid, children = _rooted_arrays(g, 1)
    got_parent, got_eid, tin, tout, depth, root_child = _euler_rooting(g, _id_dtype(g.n))
    assert got_parent.tolist() == parent and got_eid.tolist() == eid
    bfs = [1]
    for v in bfs:
        bfs.extend(children[v])
    want_depth = [0] * (g.n + 1)
    below = {v: {v} for v in bfs}
    for v in bfs[1:]:
        want_depth[v] = want_depth[parent[v]] + 2 * g.lengths_int[eid[v]]
    for v in reversed(bfs[1:]):
        below[parent[v]] |= below[v]
    assert depth.tolist() == want_depth
    assert sorted(tin[1:].tolist()) == list(range(g.n))
    for v in bfs:
        assert {u for u in bfs if tin[v] <= tin[u] < tout[v]} == below[v], v
    assert parent[root_child] == 1 if g.n > 1 else root_child == 0


def test_blocked_counts_match_one_block(monkeypatch):
    # counts runs over blocks of vertices, and past one block over the
    # distinct critical points; every block size gives the counts of one
    # block, over all vertices and over a subset
    rng = random.Random(89)
    trees = [random_tree(rng, rng.randint(2, 40)) for _ in range(6)]
    # on an equal-length path and star most critical points coincide
    trees.append(Graph.unit(33, [(v, v + 1) for v in range(1, 33)]))
    trees.append(Graph.unit(33, [(1, v) for v in range(2, 34)]))
    # lengths near 10**17 put the packed keys on Python ints
    edges = [(rng.randint(1, v - 1), v, F(rng.randint(1, 3) * 10**17)) for v in range(2, 31)]
    trees.append(Graph(30, [F(1)] * 30, edges))
    assert _UnweightedEngine(trees[-1]).dt == object
    points = []
    spy = _UnweightedEngine._point_counts

    def counted(self, radius, ch, td):
        points.append(ch.size)
        return spy(self, radius, ch, td)

    monkeypatch.setattr(_UnweightedEngine, "_point_counts", counted)
    for trial, g in enumerate(trees):
        eng = _UnweightedEngine(g)
        sub = np.array(sorted(rng.sample(range(1, g.n + 1), (g.n + 2) // 3)))
        for r in sorted({0, rng.randint(0, eng.maxdepth), eng.maxdepth // 2, eng.maxdepth}):
            got = []
            for block in (g.n, 7, 1):
                monkeypatch.setattr(tree_solver, "_COUNTS_BLOCK", block)
                points.clear()
                got.append((eng.counts(r).tolist(), eng.counts(r, sub).tolist()))
            assert got[1] == got[0] and got[2] == got[0], (trial, r)
            if r == eng.maxdepth:
                # every critical point is the root, counted once per call
                assert points == [1, 1], trial


def test_id_dtype_rule():
    # int32 while block and branch ids, about n (log2 n + 2), fit in it;
    # the rule reads n alone, so it is checked past the limit without
    # building anything of that size
    assert _id_dtype(2) == np.int32
    assert _id_dtype(100_000) == np.int32
    assert _id_dtype(1 << 26) == np.int32  # 2**26 * 29 ids
    assert _id_dtype(1 << 27) == np.int64  # 2**27 * 30 ids
    assert _id_dtype((1 << 31) + 5) == np.int64
    eng = _UnweightedEngine(random_tree(random.Random(90), 30))
    for ids in (eng.parent, eng.ch_c, eng.ch_b, eng.ch_off, eng.full_start, *eng.ups):
        assert ids.dtype == np.int32
    assert eng.fulls.dtype == eng.depth_np.dtype == np.int64


def _crit9_tree(n):
    """An n-vertex unit tree from the generator of acceptance criterion 9."""
    rng = random.Random(0x5CA1E9A)
    edges = []
    for v in range(2, n + 1):
        u = rng.randint(max(1, v - 50), v - 1)
        edges.append((u, v, F(rng.randint(1, 8), rng.choice((1, 1, 2, 4, 8, 16)))))
    return Graph(n, [F(1)] * n, edges)


def test_engine_memory_per_vertex():
    # the tracemalloc peak of the engine build and its first full count on
    # a 20,000-vertex tree from the generator of acceptance criterion 9:
    # ~540 bytes per vertex with counts from the centroid chains alone,
    # ~740 with a merge-sort tree over DFS order beside them, ~1,770 with
    # int64 ids and all chains expanded at once; the bound is 540 + 20%
    n = 20_000
    g = _crit9_tree(n)
    tracemalloc.start()
    try:
        eng = _UnweightedEngine(g)
        eng.counts(eng.maxdepth // 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 650 * n, peak / n


def test_counting_search_memory():
    # the tracemalloc peak of the counting search over the centroid lines
    # of a 2,000-vertex weighted tree (10,180 lines), its lines included:
    # ~3.6 MB with one merge pass per round that keeps no level's arrays,
    # ~7.7 MB keeping every level's arrays until the pass ends, and ~9.8 MB
    # drawing random line pairs 2**17 at a time for each pivot
    from ckoc import arrangement_search, cli
    from ckoc.graph_core import parse_instance

    g, _ = parse_instance(cli.generate_instance(1, 2000, 0.0, True, True))
    lam = solve_weighted_tree(g, g.n // 2, search="counting").lambda_star
    tracemalloc.start()
    try:
        got = arrangement_search.lowest_feasible_vertex(
            _centroid_lines(g), lambda y: y >= lam, "counting"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == lam
    assert peak < 5_500_000, peak


def _vertexwise_least_radius(eng, k):
    """The radius search that bisects all vertices covering k at its
    upper bracket, counting after each feasible probe those still
    covering k."""
    c = int(eng.ch_c[eng.ch_off[1]])
    kth = int(eng.fulls[eng.full_start[c] + k - 1]) - c * eng.stride
    lo, hi = 0, min(eng.maxdepth, kth)
    alive = eng.verts[eng.counts(hi) >= k]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = eng.counts(mid, alive) >= k
        if ok.any():
            hi, alive = mid, alive[ok]
        else:
            lo = mid
    return hi, int(alive[0])


def test_radius_search_counts_fewer_points(monkeypatch):
    # the critical points counted by the block-first search with distinct
    # points, against the vertex-wise search counting each vertex, on the
    # 20,000-vertex tree above (about 0.7x, 0.45x, 0.35x and 0.3x); the
    # counts are exact, so the bounds do not depend on timing
    n = 20_000
    eng = _UnweightedEngine(_crit9_tree(n))
    points = [0]
    spy = _UnweightedEngine._point_counts

    def counted(self, radius, ch, td):
        points[0] += ch.size
        return spy(self, radius, ch, td)

    monkeypatch.setattr(_UnweightedEngine, "_point_counts", counted)

    def search(fn, k):
        points[0] = 0
        return fn(eng, k), points[0]

    bounds = {2: 1.0, n // 10: 1.0, n // 2: 0.5, n - 1: 1.0}
    new = {k: search(_least_radius, k) for k in bounds}
    # one block of every vertex counts each vertex, as the vertex-wise
    # search did
    monkeypatch.setattr(tree_solver, "_COUNTS_BLOCK", n)
    for k, bound in bounds.items():
        (got, counted_new), (want, counted_old) = new[k], search(_vertexwise_least_radius, k)
        assert got == want, k
        assert counted_new <= bound * counted_old, (k, counted_new, counted_old)


def _partition(labelled):
    """The sets of vertices sharing a label, from (label, vertex) pairs."""
    groups = {}
    for label, v in labelled:
        groups.setdefault(label, set()).add(v)
    return {frozenset(s) for s in groups.values()}
