import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import point_distance, random_graph
from ckoc.general_feasibility import (
    FeasibilityTester,
    build_predecessor_structure,
    coverage_profile,
    covered_subtree,
    is_feasible_graph,
)
from ckoc.graph_core import (
    EdgePoint,
    Graph,
    all_pairs_distances,
    canonical_point,
    vertex_point,
)
from ckoc.oracle import (
    brute_coverage_count,
    brute_covered_set,
    brute_lambda,
    candidate_values,
    distances,
)


def ps_sets(ps):
    pred = {v: set(us) for v, us in ps.pred.items() if us}
    succ = {v: set(us) for v, us in ps.succ.items() if us}
    return pred, succ


def test_predecessors_path_from_endpoint(path3):
    dm = all_pairs_distances(path3)
    ps = build_predecessor_structure(path3, dm, vertex_point(path3, 1))
    pred, succ = ps_sets(ps)
    assert pred == {2: {1}, 3: {2}}
    assert succ == {1: {2}, 2: {3}}


def test_predecessors_two_paths(cycle4):
    dm = all_pairs_distances(cycle4)
    ps = build_predecessor_structure(cycle4, dm, vertex_point(cycle4, 1))
    pred, _ = ps_sets(ps)
    assert pred[3] == {2, 4}


def test_predecessors_interior_dummy(path3):
    dm = all_pairs_distances(path3)
    ps = build_predecessor_structure(path3, dm, EdgePoint(0, F(1, 2)))
    pred, _ = ps_sets(ps)
    assert pred == {1: {0}, 2: {0}, 3: {2}}
    assert ps.root == 0


def test_remove_cut_vertex(path3):
    dm = all_pairs_distances(path3)
    ps = build_predecessor_structure(path3, dm, vertex_point(path3, 1))
    removed, desc = ps.remove({2})
    assert (removed, desc) == ([2, 3], [3])
    assert set(ps.alive) == {1}


def test_remove_survives_alternate_paths(cycle4):
    dm = all_pairs_distances(cycle4)
    ps = build_predecessor_structure(cycle4, dm, vertex_point(cycle4, 1))
    removed, desc = ps.remove({2})
    assert (removed, desc) == ([2], [])
    assert set(ps.alive) == {1, 3, 4}


def test_remove_both_predecessors(cycle4):
    dm = all_pairs_distances(cycle4)
    ps = build_predecessor_structure(cycle4, dm, vertex_point(cycle4, 1))
    removed, desc = ps.remove({2, 4})
    assert desc == [3] and set(removed) == {2, 3, 4}
    assert set(ps.alive) == {1}


def test_remove_identity_and_total(cycle4):
    dm = all_pairs_distances(cycle4)
    ps = build_predecessor_structure(cycle4, dm, vertex_point(cycle4, 1))
    assert ps.remove(set()) == ([], [])
    assert set(ps.alive) == {1, 2, 3, 4}
    removed, desc = ps.remove({1, 2, 3, 4})
    assert desc == [] and set(removed) == {1, 2, 3, 4}
    assert not ps.alive


def test_remove_root_takes_everything(path3):
    dm = all_pairs_distances(path3)
    ps = build_predecessor_structure(path3, dm, vertex_point(path3, 1))
    removed, desc = ps.remove({1})
    assert (removed, desc) == ([1, 2, 3], [2, 3])
    assert not ps.alive


def test_profile_path3_small_radius(path3):
    dm = all_pairs_distances(path3)
    prof = coverage_profile(path3, dm, 0, F(1, 2))
    assert prof.value_at(F(1, 2)) == 2
    assert prof.value_at(F(0)) == 1
    assert prof.value_at(F(1)) == 1
    assert prof.value_at(F(1, 4)) == 1
    assert prof.value_at(F(3, 4)) == 1
    assert prof.max_value() == 2


def test_profile_path3_radius_one(path3):
    dm = all_pairs_distances(path3)
    prof = coverage_profile(path3, dm, 0, F(1))
    assert prof.value_at(F(0)) == 2
    assert prof.value_at(F(1)) == 3
    assert prof.value_at(F(1, 2)) == 2


def test_profile_wedge2(wedge2):
    # cover both vertices: 2t <= 4 and 6 - t <= 4, so only t = 2 reaches 2
    dm = all_pairs_distances(wedge2)
    prof = coverage_profile(wedge2, dm, 0, F(4))
    assert prof.value_at(F(2)) == 2
    for t in (F(0), F(1), F(3), F(7, 2), F(4), F(5), F(6)):
        assert prof.value_at(t) == 1, t


def test_value_at_rejects_offsets_off_the_edge(path3):
    dm = all_pairs_distances(path3)
    prof = coverage_profile(path3, dm, 0, F(1))
    for t in (F(-5), F(-1, 10**9), F(1) + F(1, 10**9), F(5)):
        with pytest.raises(ValueError, match="beyond edge"):
            prof.value_at(t)


def test_feasible_examples(path3, wedge2):
    dm = all_pairs_distances(path3)
    res = is_feasible_graph(path3, dm, 2, F(1, 2))
    assert res.feasible
    x, vs = res.witness
    assert x == EdgePoint(0, F(1, 2)) and vs == {1, 2}
    assert not is_feasible_graph(path3, dm, 2, F(499, 1000)).feasible

    dw = all_pairs_distances(wedge2)
    res = is_feasible_graph(wedge2, dw, 2, F(4))
    assert res.feasible and res.witness[0] == EdgePoint(0, F(2))
    assert res.witness[1] == {1, 2}
    assert not is_feasible_graph(wedge2, dw, 2, F(39, 10)).feasible


def test_witness_matches_oracle_and_radius():
    rng = random.Random(101)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 8), extra=rng.randint(0, 4), weighted=rng.random() < 0.5)
        dm = all_pairs_distances(g)
        k = rng.randint(1, g.n)
        vals = candidate_values(g, dm)
        lam = vals[rng.randrange(len(vals))]
        res = is_feasible_graph(g, dm, k, lam)
        if res.feasible:
            x, vs = res.witness
            assert len(vs) >= k
            assert vs == brute_covered_set(g, dm, x, lam)
            assert all(g.weights[v] * point_distance(g, dm, x, v) <= lam for v in vs)


def test_profile_matches_oracle_random():
    rng = random.Random(61)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 8), extra=rng.randint(0, 4), weighted=rng.random() < 0.5)
        dm = all_pairs_distances(g)
        vals = candidate_values(g, dm)
        lam = vals[rng.randrange(len(vals))]
        if rng.random() < 0.3:
            lam += F(1, 17)
        for edge in range(g.m):
            prof = coverage_profile(g, dm, edge, lam)
            for _ in range(12):
                t = g.length(edge) * F(rng.randint(0, 24), 24)
                want = brute_coverage_count(g, dm, EdgePoint(edge, t), lam)
                assert prof.value_at(t) == want, (edge, t, lam)


def test_profile_matches_oracle_at_own_breakpoints():
    rng = random.Random(67)
    for _ in range(8):
        g = random_graph(rng, rng.randint(3, 8), extra=rng.randint(0, 3), weighted=True)
        dm = all_pairs_distances(g)
        vals = candidate_values(g, dm)
        lam = vals[len(vals) // 2]
        for edge in range(g.m):
            prof = coverage_profile(g, dm, edge, lam)
            prev = None
            for t, left, at in prof.breakpoints:
                assert brute_coverage_count(g, dm, EdgePoint(edge, t), lam) == at
                if prev is not None:
                    mid = (prev + t) / 2
                    assert brute_coverage_count(g, dm, EdgePoint(edge, mid), lam) == left
                prev = t


def test_feasibility_monotone_random():
    rng = random.Random(71)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 7), extra=rng.randint(0, 3), weighted=rng.random() < 0.5)
        dm = all_pairs_distances(g)
        k = rng.randint(1, g.n)
        vals = candidate_values(g, dm)
        picks = sorted(rng.sample(vals, min(6, len(vals))))
        flags = [is_feasible_graph(g, dm, k, lam).feasible for lam in picks]
        assert flags == sorted(flags)


def test_side_scan_monotone(path3, cycle4):
    for g in (path3, cycle4):
        dm = all_pairs_distances(g)
        tester = FeasibilityTester(g, dm)
        for edge in range(g.m):
            for lam in (F(1, 2), F(1), F(3, 2)):
                for from_r in (True, False):
                    _, values, _ = tester._side_scan(edge, from_r, lam)
                    assert values == sorted(values, reverse=True)


def test_covered_subtree_matches_oracle():
    rng = random.Random(79)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 8), extra=rng.randint(0, 4), weighted=True)
        dm = all_pairs_distances(g)
        edge = rng.randrange(g.m)
        t = g.length(edge) * F(rng.randint(0, 8), 8)
        x = EdgePoint(edge, t)
        lam = F(rng.randint(0, 40), 8)
        assert covered_subtree(g, dm, x, lam) == brute_covered_set(g, dm, x, lam)


# ---------------------------------------------------------------- wide scales

# primes near 10**6 and near 2**61: lengths and weights built from them have
# pairwise coprime numerators and denominators, so every vertex's turning
# offset has a denominator of its own, hundreds of bits wide
_PRIMES = (999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037) + tuple(
    2**61 + o for o in (-105, -91, -1, 15, 21, 57, 65, 135)
)


@hs.composite
def _wide_graphs(draw):
    prime = hs.sampled_from(_PRIMES)

    def rat():
        return F(draw(prime) * draw(hs.integers(1, 9)), draw(prime))

    n = draw(hs.integers(2, 7))
    pairs = [(draw(hs.integers(1, v - 1)), v) for v in range(2, n + 1)]
    absent = [(u, v) for v in range(2, n + 1) for u in range(1, v) if (u, v) not in pairs]
    if absent:
        pairs += draw(hs.lists(hs.sampled_from(absent), max_size=3, unique=True))
    return Graph(n, [rat() for _ in range(n)], [(u, v, rat()) for u, v in pairs])


@hs.composite
def _wide_graph_cases(draw):
    """A graph with a few chords and radii at exact coverage boundaries
    w_v * d(x, v) from points x anywhere on its edges, or such a boundary
    times an arbitrary fraction."""
    g = draw(_wide_graphs())
    dm = all_pairs_distances(g)
    lams = []
    for _ in range(draw(hs.integers(1, 3))):
        edge = draw(hs.integers(0, g.m - 1))
        den = draw(hs.sampled_from((1, 2, 3) + _PRIMES))
        x = canonical_point(g, edge, g.length(edge) * F(draw(hs.integers(0, den)), den))
        lam = g.weights[draw(hs.integers(1, g.n))] * point_distance(
            g, dm, x, draw(hs.integers(1, g.n)))
        if draw(hs.booleans()):
            lam *= F(draw(hs.integers(0, 3 * den)), den)
        lams.append(lam)
    return g, dm, lams


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_wide_graph_cases())
def test_graph_integer_keys_match_brute_at_wide_scales(case):
    g, dm, lams = case
    for lam in lams:
        best = 0
        for edge in range(g.m):
            prev = None
            for t, left, at in coverage_profile(g, dm, edge, lam).breakpoints:
                assert brute_coverage_count(g, dm, EdgePoint(edge, t), lam) == at, (edge, t)
                if prev is not None:
                    mid = EdgePoint(edge, (prev + t) / 2)
                    assert brute_coverage_count(g, dm, mid, lam) == left, (edge, mid.t)
                best = max(best, left, at)
                prev = t
        for k in range(1, g.n + 1):
            res = is_feasible_graph(g, dm, k, lam)
            assert res.feasible == (best >= k), (k, lam)
            if res.feasible:
                x, covered = res.witness
                assert covered == brute_covered_set(g, dm, x, lam) and len(covered) >= k


@hs.composite
def _bracket_graphs(draw):
    """Weighted graphs with n <= 8, small rational weights and lengths, or
    the wide-scale graphs above, whose keys and lines need Python ints."""
    if draw(hs.booleans()):
        return draw(_wide_graphs())

    def rat():
        return F(draw(hs.integers(1, 8)), draw(hs.sampled_from((1, 2, 4, 3))))

    # lengths from a short list tie many shortest paths, so some vertices
    # have predecessors that cover them from different radii
    lengths = draw(hs.sampled_from(((F(1),), (F(1), F(2)), (F(1, 2), F(1), F(3, 2)))))
    n = draw(hs.integers(2, 8))
    pairs = [(draw(hs.integers(1, v - 1)), v) for v in range(2, n + 1)]
    absent = [(u, v) for v in range(2, n + 1) for u in range(1, v) if (u, v) not in pairs]
    if absent:
        pairs += draw(hs.lists(hs.sampled_from(absent), max_size=4, unique=True))
    edges = [(u, v, draw(hs.sampled_from(lengths))) for u, v in pairs]
    return Graph(n, [rat() for _ in range(n)], edges)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_bracket_graphs())
def test_bracket_holds_lambda_and_its_top_is_the_best_vertex_center(g):
    dm = distances(g)
    tester = FeasibilityTester(g, all_pairs_distances(g))
    unit = g.weight_scale * g.length_scale
    centers = [vertex_point(g, a) for a in g.vertices()]
    # a vertex center's coverage changes only at the radii w_v * d(a, v)
    radii = sorted({F(g.weights_int[v] * dm.rows[a][v], unit)
                    for a in g.vertices() for v in g.vertices()})
    for k in range(2, g.n + 1):
        lo, hi = (F(b, unit) for b in tester.bracket(k))
        assert lo <= brute_lambda(g, k) <= hi, k
        assert max(brute_coverage_count(g, dm, x, hi) for x in centers) >= k, k
        below = [r for r in radii if r < hi]
        if below:
            assert max(brute_coverage_count(g, dm, x, below[-1]) for x in centers) < k, k
