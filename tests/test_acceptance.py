"""Acceptance gate: nine exact, seeded, oracle-backed criteria.

One test per criterion; the -v report line is the pass/fail line.  All
equality checks are exact rational comparisons, zero tolerance.  Wall
budgets are asserted where the criterion pins one.
"""

import random
import time
from bisect import bisect_left
from fractions import Fraction as F

import pytest

from ckoc import oracle
from ckoc.arrangement_search import solve_weighted_graph
from ckoc.general_feasibility import coverage_profile, is_feasible_graph
from ckoc.graph_core import (
    Graph,
    all_pairs_distances,
    canonical_point,
)
from ckoc.klevel_geometry import build_chains, kth_level, solve_unweighted_graph
from ckoc.tree_engine import (
    binarize,
    build_coverage_arrays,
    query_count,
    spine_decompose,
)
from ckoc.tree_solver import is_feasible_tree, solve_unweighted_tree, solve_weighted_tree

from conftest import point_distance, query_at_least_k, random_graph, random_tree, tree_probes

GRAPH_SEED = 0xC1717E57
TREE_SEED = 0x7EEE5EED


@pytest.fixture(scope="module")
def graph_pool():
    """200 seeded random connected graphs, n <= 10, m <= 20, half weighted."""
    rng = random.Random(GRAPH_SEED)
    pool = []
    for i in range(200):
        n = rng.randint(2, 10)
        cap = min(20 - (n - 1), n * (n - 1) // 2 - (n - 1))
        extra = rng.randint(0, max(0, cap))
        pool.append(random_graph(rng, n, extra=extra, weighted=bool(i % 2)))
    assert all(g.m <= 20 for g in pool)
    return pool


@pytest.fixture(scope="module")
def tree_pool():
    """200 seeded random trees, n <= 12, half weighted."""
    rng = random.Random(TREE_SEED)
    return [random_tree(rng, rng.randint(2, 12), weighted=bool(i % 2)) for i in range(200)]


@pytest.fixture(scope="module")
def graph_lams():
    return {}


@pytest.fixture(scope="module")
def tree_lams():
    return {}


def _spt_subtree(g: Graph, dm, x, block) -> bool:
    """block and x form a connected piece of a shortest-path tree of x."""
    direct = {}
    if x.edge >= 0:
        direct[g.eu[x.edge]] = x.t
        direct[g.ev[x.edge]] = g.length(x.edge) - x.t
    dist = {u: point_distance(g, dm, x, u) for u in block}
    for u in sorted(block, key=lambda u: (dist[u], u)):
        if direct.get(u) == dist[u]:
            continue
        if not any(v in dist and dist[v] + g.length(i) == dist[u]
                   for v, i in g.adj[u]):
            return False
    return True


def test_criterion_1_cross_solver_oracle_agreement(graph_pool, graph_lams):
    started = time.perf_counter()
    solves = 0
    for i, g in enumerate(graph_pool):
        for k in range(1, g.n + 1):
            want = oracle.brute_lambda(g, k)
            got = solve_weighted_graph(g, k)
            assert got.lambda_star == want, (i, k, got.lambda_star, want)
            graph_lams[(i, k)] = want
            solves += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"budget blown: {elapsed:.1f} s"
    print(f"[criterion 1] PASS: {solves} solves on 200 graphs agree exactly "
          f"({elapsed:.1f} s < 300 s)")


def test_criterion_2_unweighted_graph_agreement(graph_pool, graph_lams):
    checked = 0
    for i, g in enumerate(graph_pool):
        if not g.unit_weights:
            continue
        for k in range(1, g.n + 1):
            want = graph_lams.get((i, k))
            if want is None:
                want = oracle.brute_lambda(g, k)
            a = solve_unweighted_graph(g, k).lambda_star
            b = solve_weighted_graph(g, k).lambda_star
            assert a == b == want, (i, k, a, b, want)
            checked += 1
    assert checked > 0
    print(f"[criterion 2] PASS: {checked} unit-weight solves agree exactly")


def test_criterion_3_tree_agreement(tree_pool, tree_lams):
    solves = 0
    for i, g in enumerate(tree_pool):
        for k in range(1, g.n + 1):
            want = oracle.brute_lambda(g, k)
            # small trees probe by covered walks, and with the limits at 0
            # by the coverage engines
            for probe in tree_probes():
                got = solve_weighted_tree(g, k).lambda_star
                assert got == want, (probe, i, k, got, want)
                if g.unit_weights:
                    got_u = solve_unweighted_tree(g, k).lambda_star
                    assert got_u == want, (probe, i, k, got_u, want)
            tree_lams[(i, k)] = want
            solves += 1
    print(f"[criterion 3] PASS: {solves} tree solves on 200 trees agree exactly")


def test_criterion_4_min_diameter_ksubtree_matches():
    rng = random.Random(0xD1A137E3)
    checked = 0
    for case in range(100):
        n = rng.randint(2, 10)
        if case % 2:
            g = random_tree(rng, n)
            solve = solve_weighted_tree
        else:
            extra = rng.randint(0, n * (n - 1) // 2 - (n - 1))
            g = random_graph(rng, n, extra=extra)
            solve = solve_weighted_graph
        for k in range(1, min(5, n) + 1):
            w, _block = oracle.brute_min_diameter_ksubtree(g, k)
            lam = solve(g, k).lambda_star
            assert w == lam, (case, k, w, lam)
            checked += 1
    print(f"[criterion 4] PASS: W(T^k) == lambda* on {checked} unweighted cases")


def test_criterion_5_feasibility_sandwich(graph_pool, graph_lams, tree_pool, tree_lams):
    def check(g, dm, k, lam, res):
        assert res.feasible, (k, lam)
        x, block = res.witness
        assert len(block) >= k
        assert max(g.weights[u] * point_distance(g, dm, x, u) for u in block) <= lam
        assert _spt_subtree(g, dm, x, block)

    def sandwich(pool, lams, tree):
        pairs = 0
        for i, g in enumerate(pool):
            dm = all_pairs_distances(g)
            cands = sorted(set(oracle.candidate_values(g)))
            for k in range(1, g.n + 1):
                lam = lams.get((i, k))
                if lam is None:
                    lam = oracle.brute_lambda(g, k)
                if tree:
                    check(g, dm, k, lam, is_feasible_tree(g, k, lam))
                else:
                    check(g, dm, k, lam, is_feasible_graph(g, dm, k, lam))
                j = bisect_left(cands, lam)
                if j > 0:
                    below = cands[j - 1]
                    if tree:
                        lower = is_feasible_tree(g, k, below).feasible
                    else:
                        lower = is_feasible_graph(g, dm, k, below).feasible
                    assert not lower, (i, k, below, lam)
                pairs += 1
        return pairs

    pairs = sandwich(graph_pool, graph_lams, False)
    # the tree half with walks, then with the coverage engines
    for _ in tree_probes():
        pairs += sandwich(tree_pool, tree_lams, True)
    print(f"[criterion 5] PASS: sandwich holds with validated witnesses on {pairs} cases")


def test_criterion_6_coverage_profile_exact(graph_pool):
    rng = random.Random(0xC0FFEE06)
    points = 0
    for g in graph_pool:
        dm = all_pairs_distances(g)
        odm = oracle.distances(g)
        for edge in range(g.m):
            length = g.length(edge)
            for _ in range(5):  # 5 radii x 10 points = 50 points per edge
                if rng.random() < 0.5:
                    v = rng.randint(1, g.n)
                    t0 = length * F(rng.randint(0, 8), 8)
                    lam = g.weights[v] * point_distance(g, dm, canonical_point(g, edge, t0), v)
                else:
                    lam = F(rng.randint(0, 48), rng.choice((1, 2, 4, 8)))
                prof = coverage_profile(g, dm, edge, lam)
                for _ in range(10):
                    t = length * F(rng.randint(0, 64), 64)
                    x = canonical_point(g, edge, t)
                    want = oracle.brute_coverage_count(g, odm, x, lam)
                    assert prof.value_at(t) == want, (edge, t, lam)
                    points += 1
    print(f"[criterion 6] PASS: coverage profile exact at {points} sampled points")


def test_criterion_7_kth_level_exact(graph_pool):
    rng = random.Random(0x13E7E107)
    samples = 0
    lowest_checks = 0
    for g in graph_pool:
        if not g.unit_weights:
            continue  # chains carry unit slopes only
        dm = all_pairs_distances(g)
        cache = {}
        for _ in range(100):
            eid = rng.randrange(g.m)
            k = rng.randint(1, g.n)
            if (eid, k) not in cache:
                cs = build_chains(g, dm, eid)
                cache[(eid, k)] = (cs, kth_level(cs, k))
            cs, level = cache[(eid, k)]
            x = cs.length * F(rng.randint(0, 64), 64)
            assert level.value_at(x) == oracle.brute_kth_level(cs.chains, k, x)
            samples += 1
        # lowest point of one level vs the probe-set minimum
        eid = rng.randrange(g.m)
        k = rng.randint(1, g.n)
        cs = build_chains(g, dm, eid)
        level = kth_level(cs, k)
        probes = {F(0), cs.length}
        for c in cs.chains:
            if c.apex is not None:
                probes.add(c.apex)
            for c2 in cs.chains:
                t = (cs.length + c2.right - c.left) / 2
                if 0 <= t <= cs.length:
                    probes.add(t)
        ordered = sorted(probes)
        for a, b in zip(ordered, ordered[1:]):
            probes.add((a + b) / 2)
        best = min(oracle.brute_kth_level(cs.chains, k, t) for t in probes)
        assert level.lowest()[1] == best, (eid, k)
        lowest_checks += 1
    print(f"[criterion 7] PASS: {samples} level values exact, "
          f"{lowest_checks} lowest points match probe minima")


def test_criterion_8_tree_query_structure():
    rng = random.Random(0x87EE08)
    queries = 0
    for case in range(20):
        n = 60 if case < 2 else rng.randint(2, 60)
        g = random_tree(rng, n, weighted=bool(case % 2))
        dm = all_pairs_distances(g)
        odm = oracle.distances(g)
        st = spine_decompose(binarize(g))
        for _ in range(100):
            edge = rng.randrange(g.m)
            t = g.length(edge) * F(rng.randint(0, 16), 16)
            x = canonical_point(g, edge, t)
            if rng.random() < 0.5:
                v = rng.randint(1, g.n)
                lam = g.weights[v] * point_distance(g, dm, x, v)
            else:
                lam = F(rng.randint(0, 32), rng.choice((1, 2, 4)))
            ca = build_coverage_arrays(st, lam)
            count = query_count(st, ca, x)
            assert count == oracle.brute_coverage_count(g, odm, x, lam), (case, x, lam)
            for k in {1, max(1, count), min(n, count + 1), n}:
                assert query_at_least_k(st, ca, x, k) == (count >= k)
            queries += 1
    print(f"[criterion 8] PASS: {queries} tree coverage queries exact on 20 trees")


def test_criterion_9_scaling_sanity():
    # large unweighted tree
    rng = random.Random(0x5CA1E9A)
    n = 100_000
    edges = []
    for v in range(2, n + 1):
        u = rng.randint(max(1, v - 50), v - 1)
        edges.append((u, v, F(rng.randint(1, 8), rng.choice((1, 1, 2, 4, 8, 16)))))
    g = Graph(n, [F(1)] * n, edges)
    started = time.perf_counter()
    sol = solve_unweighted_tree(g, n // 2)
    tree_time = time.perf_counter() - started
    assert tree_time < 30.0, f"tree budget blown: {tree_time:.1f} s"
    assert sol.lambda_star > 0 and len(sol.subtree) == n // 2

    # mid-size weighted graph, n=200 m=400
    rng = random.Random(0x5CA1E9B)
    pairs = [(rng.randint(1, v - 1), v) for v in range(2, 201)]
    used = set(tuple(sorted(p)) for p in pairs)
    pool = [
        (u, v) for u in range(1, 201) for v in range(u + 1, 201) if (u, v) not in used
    ]
    pairs += sorted(rng.sample(pool, 400 - len(pairs)))
    edges = [
        (u, v, F(rng.randint(1, 8), rng.choice((1, 2, 4, 8, 16)))) for u, v in pairs
    ]
    weights = [F(rng.randint(1, 8), rng.choice((1, 2, 4, 8, 16))) for _ in range(200)]
    g2 = Graph(200, weights, edges)
    assert g2.m == 400
    started = time.perf_counter()
    sol2 = solve_weighted_graph(g2, 100, search="auto")
    graph_time = time.perf_counter() - started
    assert graph_time < 120.0, f"graph budget blown: {graph_time:.1f} s"
    assert sol2.lambda_star > 0 and len(sol2.subtree) == 100
    print(f"[criterion 9] PASS: n=100000 tree in {tree_time:.1f} s (< 30 s); "
          f"n=200 m=400 graph in {graph_time:.1f} s (< 120 s)")
