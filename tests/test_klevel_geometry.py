import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckoc.general_feasibility import FeasibilityTester, covered_subtree, trim_witness
from ckoc.graph_core import (
    EdgePoint,
    Graph,
    InstanceError,
    Solution,
    all_pairs_distances,
    canonical_point,
    kth_bounds,
    vertex_point,
)
from ckoc.klevel_geometry import (
    Chain,
    ChainSet,
    build_chains,
    kth_level,
    segment_sequences,
    solve_unweighted_graph,
)
from ckoc.arrangement_search import solve_weighted_graph
from ckoc import oracle
from conftest import point_distance, random_graph

F = Fraction


def _chain_set(specs, length):
    chains = []
    for vertex, left, right in specs:
        left, right, length_ = F(left), F(right), F(length)
        if right == left + length_:
            chains.append(Chain(vertex, left, right, length_, "x"))
        elif left == right + length_:
            chains.append(Chain(vertex, left, right, length_, "y"))
        else:
            apex = (right + length_ - left) / 2
            chains.append(Chain(vertex, left, right, length_, "peak", apex))
    return ChainSet(tuple(chains), F(length))


# ---------------------------------------------------------------- chains


def test_build_chains_path3_shapes(path3):
    dm = all_pairs_distances(path3)
    cs = build_chains(path3, dm, 0)
    assert cs.length == 1
    by_v = {c.vertex: c for c in cs.chains}
    assert (by_v[1].shape, by_v[1].left, by_v[1].right) == ("x", 0, 1)
    assert (by_v[2].shape, by_v[2].left, by_v[2].right) == ("y", 1, 0)
    assert (by_v[3].shape, by_v[3].left, by_v[3].right) == ("y", 2, 1)
    assert by_v[1].apex is None


def test_build_chains_triangle_peak(triangle):
    dm = all_pairs_distances(triangle)
    cs = build_chains(triangle, dm, 0)
    ch = next(c for c in cs.chains if c.vertex == 3)
    assert ch.shape == "peak"
    assert ch.apex == F(1, 2)
    assert ch.value_at(ch.apex) == F(3, 2)


def test_build_chains_rejects_weighted(wedge2):
    dm = all_pairs_distances(wedge2)
    with pytest.raises(InstanceError):
        build_chains(wedge2, dm, 0)


def test_chain_values_match_point_distance():
    rng = random.Random(11)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 7), extra=rng.randint(0, 3))
        dm = all_pairs_distances(g)
        edge = rng.randrange(g.m)
        cs = build_chains(g, dm, edge)
        for _ in range(5):
            t = g.length(edge) * F(rng.randint(0, 12), 12)
            x = EdgePoint(edge, t)
            for ch in cs.chains:
                assert ch.value_at(t) == point_distance(g, dm, x, ch.vertex)


def test_segment_sequences_grouping():
    # two leaves equidistant from r share one rising group
    # (values in units of 1/cs.scale, twice the unit length scale here)
    g = Graph.unit(4, [(1, 2), (1, 3), (1, 4)])
    dm = all_pairs_distances(g)
    cs = build_chains(g, dm, 0)
    S = cs.scale
    assert S == 2
    left = dict(zip(cs.ids, cs.lefts))
    right = dict(zip(cs.ids, cs.rights))
    seqs = segment_sequences(cs)
    assert [a for a, _ in seqs.splus] == [1 * S, 0]
    # the group on line 1 holds exactly the rising pieces of 3 and 4 (2
    # also starts at height 1 but only falls), which end at their right ends
    rising = [v for v in cs.ids if left[v] != right[v] + cs.size]
    assert [v for v in rising if left[v] == seqs.splus[0][0]] == [3, 4]
    assert seqs.splus[0][1] == [-right[3], -right[4]]
    # one falling group, vertex 2's, starting at its left end
    assert [c for c, _ in seqs.sminus] == [1 * S]
    assert [v for v in cs.ids if right[v] + cs.size == seqs.sminus[0][0]] == [2]
    assert seqs.sminus[0][1] == [-left[2]]
    # longest segment first in every group: highest top, smallest negation
    for _, tops in seqs.splus + seqs.sminus:
        assert tops == sorted(tops)


# ---------------------------------------------------------------- levels


def test_level_two_chain_envelope():
    cs = _chain_set([(1, 0, 2), (2, 2, 0)], 2)
    up = kth_level(cs, 2)
    assert up.vertices == ((0, F(2)), (F(1), F(1)), (F(2), F(2)))
    assert up.lowest() == (F(1), F(1))
    lo = kth_level(cs, 1)
    assert lo.vertices == ((0, F(0)), (F(1), F(1)), (F(2), F(0)))
    assert lo.lowest() == (F(0), F(0))


def test_level_double_valley_tie():
    cs = _chain_set([(1, 0, 4), (2, 4, 0), (3, 2, 2)], 4)
    lv = kth_level(cs, 2)
    assert lv.vertices == (
        (0, F(2)),
        (F(1), F(3)),
        (F(2), F(2)),
        (F(3), F(3)),
        (F(4), F(2)),
    )
    # three equal-height vertices: smallest offset wins
    assert lv.lowest() == (F(0), F(2))


def test_level_path3_edge0_k2(path3):
    dm = all_pairs_distances(path3)
    lv = kth_level(build_chains(path3, dm, 0), 2)
    assert lv.vertices == ((0, F(1)), (F(1, 2), F(1, 2)), (F(1), F(1)))
    assert lv.lowest() == (F(1, 2), F(1, 2))


def test_level_endpoint_values(path5):
    dm = all_pairs_distances(path5)
    for edge in range(path5.m):
        cs = build_chains(path5, dm, edge)
        lefts = sorted(c.left for c in cs.chains)
        rights = sorted(c.right for c in cs.chains)
        for k in range(1, 6):
            lv = kth_level(cs, k)
            assert lv.value_at(F(0)) == lefts[k - 1]
            assert lv.value_at(cs.length) == rights[k - 1]


def test_level_value_range_check():
    cs = _chain_set([(1, 0, 2), (2, 2, 0)], 2)
    lv = kth_level(cs, 1)
    with pytest.raises(ValueError):
        lv.value_at(F(3))
    with pytest.raises(ValueError):
        kth_level(cs, 3)


def test_level_matches_kth_smallest_everywhere():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7), extra=rng.randint(0, 3))
        dm = all_pairs_distances(g)
        for edge in range(g.m):
            cs = build_chains(g, dm, edge)
            for k in range(1, g.n + 1):
                lv = kth_level(cs, k)
                probes = {F(0), g.length(edge)}
                for _ in range(6):
                    probes.add(g.length(edge) * F(rng.randint(0, 24), 24))
                for x, _ in lv.vertices:
                    probes.add(x)
                for t in probes:
                    want = oracle.brute_kth_level(cs.chains, k, t)
                    assert lv.value_at(t) == want
                    not_above = sum(1 for c in cs.chains if c.value_at(t) <= want)
                    assert not_above >= k


# denominators a hand-built chain set mixes, up to a prime near 10**6
_MIXED_DENOMS = (1, 3, 7, 999983)


@st.composite
def _mixed_chain_specs(draw):
    """(specs, length) of a random hand-built chain set: every left, right
    and length has a denominator from _MIXED_DENOMS, and |left - right|
    is at most the length, as for the chains of a real edge."""

    def rational(lo: int, hi: int) -> Fraction:
        q = draw(st.sampled_from(_MIXED_DENOMS))
        return F(draw(st.integers(lo * q, hi * q)), q)

    length = rational(0, 3) or F(1, draw(st.sampled_from(_MIXED_DENOMS)))
    specs = []
    for v in range(1, draw(st.integers(1, 6)) + 1):
        left = rational(0, 6)
        right = min(max(rational(0, 6), left - length), left + length)
        specs.append((v, left, right))
    return specs, length


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mixed_chain_specs())
def test_level_exact_with_mixed_denominators(spec):
    cs = _chain_set(*spec)
    for k in range(1, len(cs.chains) + 1):
        lv = kth_level(cs, k)
        xs = [x for x, _ in lv.vertices]
        probes = set(xs) | {F(0), cs.length}
        probes |= {c.apex for c in cs.chains if c.apex is not None}
        probes |= {(a + b) / 2 for a, b in zip(xs, xs[1:])}
        for t in probes:
            assert lv.value_at(t) == oracle.brute_kth_level(cs.chains, k, t), (k, t)


def test_level_alternation_and_intercepts():
    rng = random.Random(31)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 7), extra=rng.randint(0, 2))
        dm = all_pairs_distances(g)
        for edge in range(g.m):
            cs = build_chains(g, dm, edge)
            for k in range(1, g.n + 1):
                lv = kth_level(cs, k)
                rising, falling = [], []
                for (x0, y0), (x1, y1) in zip(lv.vertices, lv.vertices[1:]):
                    slope = (y1 - y0) / (x1 - x0)
                    assert slope in (F(1), F(-1))
                    if slope == 1:
                        rising.append(x0 - y0)  # x-intercept of y = t + b
                    else:
                        falling.append(x0 + y0)  # x-intercept of y = -t + c
                assert rising == sorted(set(rising))
                assert falling == sorted(set(falling))


def test_level_n_is_local_one_center():
    rng = random.Random(43)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 6), extra=rng.randint(0, 2))
        dm = all_pairs_distances(g)
        for edge in range(g.m):
            cs = build_chains(g, dm, edge)
            lv = kth_level(cs, g.n)
            _, low = lv.lowest()
            probes = oracle.edge_probe_points(g, dm, edge, low)
            want = min(max(c.value_at(t) for c in cs.chains) for t in probes)
            assert low == want


# ---------------------------------------------------------------- solver


def _check_solution(g, dm, sol, k):
    assert len(sol.subtree) == k
    assert max(point_distance(g, dm, sol.center, v) for v in sol.subtree) == sol.lambda_star
    seen = {min(sol.subtree)}
    frontier = [min(sol.subtree)]
    while frontier:
        u = frontier.pop()
        for o, _ in g.adj[u]:
            if o in sol.subtree and o not in seen:
                seen.add(o)
                frontier.append(o)
    assert seen == sol.subtree


def test_solve_path3_k2(path3):
    sol = solve_unweighted_graph(path3, 2)
    assert sol.lambda_star == F(1, 2)
    assert sol.center == EdgePoint(0, F(1, 2))
    assert sol.subtree == {1, 2}


def test_solve_cycle4_k3(cycle4):
    sol = solve_unweighted_graph(cycle4, 3)
    assert sol.lambda_star == F(1)
    assert sol.center == EdgePoint(0, F(0))
    assert sol.subtree == {1, 2, 4}


def test_solve_star3_k3(star3):
    sol = solve_unweighted_graph(star3, 3)
    assert sol.lambda_star == F(1)
    assert sol.center == EdgePoint(0, F(0))
    assert sol.subtree == {1, 2, 3}


def test_solve_k1_and_errors(path3, wedge2):
    sol = solve_unweighted_graph(path3, 1)
    assert sol.lambda_star == 0 and sol.subtree == {1}
    with pytest.raises(InstanceError):
        solve_unweighted_graph(wedge2, 2)
    with pytest.raises(ValueError):
        solve_unweighted_graph(path3, 0)
    with pytest.raises(ValueError):
        solve_unweighted_graph(path3, 4)


def test_solve_matches_brute():
    rng = random.Random(57)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 8), extra=rng.randint(0, 4))
        dm = all_pairs_distances(g)
        for k in range(1, g.n + 1):
            sol = solve_unweighted_graph(g, k)
            assert sol.lambda_star == oracle.brute_lambda(g, k)
            _check_solution(g, dm, sol, k)


def test_solve_agrees_with_weighted_solver():
    rng = random.Random(71)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 7), extra=rng.randint(0, 3))
        for k in range(1, g.n + 1):
            a = solve_unweighted_graph(g, k)
            b = solve_weighted_graph(g, k)
            assert a.lambda_star == b.lambda_star


# ------------------------------------------------- bounded edge order


def _every_edge_json(g, k):
    """solve_unweighted_graph's answer as the least (y, edge id, x) over the
    lowest level points of every edge, with no bound and no early stop."""
    if k == 1 or g.n == 1:
        return Solution(F(0), vertex_point(g, 1), frozenset({1})).to_json(g)
    dm = all_pairs_distances(g)
    keys = []
    for edge in range(g.m):
        x, y = kth_level(build_chains(g, dm, edge), k).lowest_scaled()
        keys.append((y, edge, x))
    y, eid, x = min(keys)
    scale = 2 * dm.scale
    lam = F(y, scale)
    center = canonical_point(g, eid, F(x, scale))
    subtree = trim_witness(g, dm, center, covered_subtree(g, dm, center, lam), k)
    return Solution(lam, center, subtree).to_json(g)


# few distinct lengths, so edge bounds and level minima tie often
_TIE_LENGTHS = (F(1), F(1), F(2), F(1, 2))


@st.composite
def _tied_unit_graphs(draw):
    """Connected unit-weight graph, n <= 12: a random spanning tree plus
    random chords, lengths from _TIE_LENGTHS."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for _ in range(draw(st.integers(0, n))):
        edges.add(draw(st.sampled_from(pairs)))
    return Graph.unit(n, [(u, v, draw(st.sampled_from(_TIE_LENGTHS)))
                          for u, v in sorted(edges)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tied_unit_graphs())
def test_bounded_solver_matches_every_edge(g):
    for k in range(1, g.n + 1):
        assert solve_unweighted_graph(g, k).to_json(g) == _every_edge_json(g, k), k


def _sorted_kth_bound(g, dm, edge, k):
    """The k-th bound of one edge, by sorting its n values."""
    a, b, rows = g.eu[edge], g.ev[edge], dm.rows
    lows = sorted(g.weights_int[v] * min(rows[v][a], rows[v][b]) for v in g.vertices())
    return lows[k - 1]


def test_kth_bounds_match_per_edge_sort_and_tester():
    rng = random.Random(83)
    wide = [F(1, 999983), F(1, 1000003), F(1, 999979)]
    graphs = [random_graph(rng, rng.randint(2, 10), extra=rng.randint(0, 6),
                           weighted=bool(i % 2)) for i in range(30)]
    # weights past 2**63 times the distances: the Python-int path
    graphs.append(Graph(4, [F(10**19), F(3), F(1, 7), F(2)],
                        [(1, 2, wide[0]), (2, 3, wide[1]), (3, 4, 1), (1, 4, wide[2])]))
    for g in graphs:
        dm = all_pairs_distances(g)
        tester = FeasibilityTester(g, dm)
        for k in range(1, g.n + 1):
            want = sorted((_sorted_kth_bound(g, dm, edge, k), edge) for edge in range(g.m))
            assert kth_bounds(g, dm, k) == want
            for b, eid in want:
                assert tester._kth_ints(k)[eid] == b


def test_kth_bound_is_below_every_level():
    rng = random.Random(89)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 10), extra=rng.randint(0, 6))
        dm = all_pairs_distances(g)
        for k in range(1, g.n + 1):
            for b, eid in kth_bounds(g, dm, k):
                _, y = kth_level(build_chains(g, dm, eid), k).lowest_scaled()
                assert 2 * b <= y, (eid, k)
